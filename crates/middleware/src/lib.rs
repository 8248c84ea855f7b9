//! A minimal, deterministic ROS-like middleware substrate.
//!
//! The RoboRun paper implements its runtime "on top of the Robot Operating
//! System (ROS), which provides inter-process communication and common
//! robotics libraries" (Section III-A). This crate is the reproduction's
//! substitute for that transport layer: an in-process publish/subscribe
//! middleware with the pieces the navigation pipeline actually relies on —
//!
//! * [`MessageBus`] — topic registry, keep-last delivery queues, simulated
//!   time stamping and per-topic traffic statistics.
//! * [`Node`], [`Publisher`], [`Subscription`] — the user-facing handles,
//!   typed end to end.
//! * [`QosProfile`] — keep-last depth, reliability and durability (latched
//!   topics), mirroring the ROS 2 QoS vocabulary the pipeline would use.
//! * [`CommLatencyModel`] — the transport-cost model behind the "comm"
//!   slices of the paper's Fig. 11 latency breakdown.
//! * [`GraphInfo`] — `rqt_graph`-style introspection of the node graph.
//! * [`BagIndex`] / [`TypedBag`] — `rosbag`-style recording and playback.
//!
//! Everything is deterministic: time only advances when the caller says so,
//! and delivery order equals publish order.
//!
//! # Example
//!
//! ```
//! use roborun_middleware::{MessageBus, Node, QosProfile};
//!
//! let bus = MessageBus::default();
//! let camera = Node::new(&bus, "camera")?;
//! let mapper = Node::new(&bus, "mapper")?;
//!
//! let points = camera.publisher::<Vec<f64>>("/sensors/points")?;
//! let cloud_in = mapper.subscribe::<Vec<f64>>("/sensors/points", QosProfile::sensor_data())?;
//!
//! bus.set_time(1.0);
//! points.publish(vec![1.0, 2.0, 3.0])?;
//! let sample = cloud_in.try_recv().expect("a sample is queued");
//! assert_eq!(sample.message, vec![1.0, 2.0, 3.0]);
//! assert!(sample.arrival_time() >= 1.0);
//! # Ok::<(), roborun_middleware::MiddlewareError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod error;
pub mod graph;
pub mod latency;
pub mod link_faults;
pub mod message;
pub mod node;
pub mod qos;
pub mod record;
pub mod topic;

pub use bus::{MessageBus, NodeConnections, PublishReceipt};
pub use error::{BusError, MiddlewareError};
pub use graph::{GraphInfo, TopicInfo};
pub use latency::{CommLatencyModel, CommStats};
pub use link_faults::{LinkDisposition, LinkFaultModel, LinkFaultStats};
pub use message::{Message, Stamped};
pub use node::{Node, Publisher, Subscription};
pub use qos::{Durability, QosProfile, Reliability};
pub use record::{BagEntry, BagIndex, TypedBag};
pub use topic::TopicName;
