//! Moving obstacles: deterministic actors, dynamic worlds and predicted
//! occupancy.
//!
//! RoboRun's thesis is that exploiting *spatial* heterogeneity at runtime
//! converts latency into mission speed; this crate opens the *temporal*
//! axis — worlds whose difficulty changes underneath the robot. A
//! [`DynamicWorld`] composes the static ground-truth
//! [`ObstacleField`](roborun_env::ObstacleField) with a set of seeded
//! moving [`Actor`]s (waypoint patrols, constant-velocity crossers,
//! random walkers with reflective bounds) stepped on the simulation
//! clock.
//!
//! # The snapshot / prediction / decay contract
//!
//! Consumers see the world through three views with sharply different
//! guarantees:
//!
//! 1. **Snapshot (exact).** [`Actor::pose_at`] is a *pure function of
//!    time*: the same actor queried at the same `t` returns bit-identical
//!    coordinates, on any thread, in any driver, in any order. A
//!    [`DynamicWorld::snapshot_field`] therefore reproduces the exact
//!    ground truth of instant `t` — sensors capture from it, and the
//!    simulator's collision test ([`DynamicWorld::actor_hit`]) judges the
//!    drone against the actors' *true* poses at every physics substep.
//!    Nothing about a snapshot is approximate.
//!
//! 2. **Prediction (conservative).** [`DynamicWorld::predicted_boxes`]
//!    returns, per actor, an axis-aligned box guaranteed to contain the
//!    actor over the whole lookahead window `[t, t + horizon]`. For
//!    motion models whose future is determined (patrols, crossers) this
//!    is the swept hull of the true path, inflated only by the sampling
//!    stride; for random walkers the future direction is *not* knowable
//!    from a snapshot, so the box is the reachable disc
//!    (`speed · horizon` in every direction, clipped to the walk bounds).
//!    Predictions over-approximate and never under-approximate: a
//!    trajectory that clears every predicted box cannot be hit by the
//!    actor within the horizon, but a predicted conflict may be a false
//!    positive (the price of conservatism). The mission layer uses
//!    predictions only to *discard plans* (forcing a replan), never to
//!    declare space safe.
//!
//! 3. **Decay (perception-side, delegated).** Vacated cells free up in
//!    the *perception* substrate, not here: the occupancy map's
//!    stale-occupied aging (see `roborun_perception::OccupancyMap`)
//!    downgrades an occupied voxel when a fresh sensor ray traverses it
//!    after the occupying observation has gone stale. Those removals
//!    flow into `PlannerMap::delta_from` as `removed` keys, which the
//!    incremental `CollisionChecker::update_map` already takes in — this
//!    crate never reaches into the map.
//!
//! With an empty actor set every view degenerates exactly to the static
//! world: `snapshot_field` holds the same obstacles (and answers every
//! query bit-identically), `predicted_boxes` is empty, `actor_hit` is
//! `false` and `max_closing_speed` is zero — which is how the mission
//! layer guarantees that dynamics-free runs stay byte-identical to the
//! pre-dynamics golden fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod world;

pub use actor::{Actor, MotionModel, WalkAnchor};
pub use world::{DynamicWorld, PoseCache};
