//! The message bus: the in-process substitute for the ROS transport layer.
//!
//! A [`MessageBus`] owns every topic, routes published samples into
//! per-subscription keep-last queues, stamps them with simulated time and a
//! transport latency from the [`CommLatencyModel`], and keeps per-topic
//! traffic statistics. Nodes ([`crate::Node`]) are thin handles onto the
//! bus; all shared state lives here behind one mutex so that the middleware
//! is `Send + Sync` while remaining fully deterministic when driven from a
//! single thread (the configuration every test and experiment uses).

use crate::error::MiddlewareError;
use crate::latency::{CommLatencyModel, CommStats};
use crate::link_faults::{LinkDisposition, LinkFaultModel, LinkFaultStats};
use crate::message::{Message, Stamped};
use crate::qos::{Durability, QosProfile};
use crate::topic::TopicName;
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Receipt returned by a successful publish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishReceipt {
    /// Sequence number assigned to the sample (per topic, from 0).
    pub sequence: u64,
    /// Number of subscriptions the sample was delivered to.
    pub deliveries: usize,
    /// Older samples evicted from full subscription queues by this publish.
    pub evictions: usize,
    /// Largest transport latency charged to any subscription (seconds).
    pub max_transport_latency: f64,
}

/// Per-node connectivity used by graph introspection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeConnections {
    /// Topics the node publishes on.
    pub publishes: BTreeSet<TopicName>,
    /// Topics the node subscribes to.
    pub subscribes: BTreeSet<TopicName>,
}

#[derive(Debug)]
struct SubscriptionSlot {
    id: u64,
    qos: QosProfile,
    queue: VecDeque<Box<dyn Any + Send>>,
    evictions: u64,
    active: bool,
}

#[derive(Debug)]
struct TopicState {
    type_id: TypeId,
    type_name: &'static str,
    next_sequence: u64,
    publisher_nodes: Vec<String>,
    subscriptions: Vec<SubscriptionSlot>,
    retained: Option<Box<dyn Any + Send>>,
    stats: CommStats,
}

#[derive(Debug)]
struct BusInner {
    now: f64,
    comm_model: CommLatencyModel,
    topics: BTreeMap<TopicName, TopicState>,
    nodes: BTreeMap<String, NodeConnections>,
    next_subscription_id: u64,
    closed: bool,
    link_faults: Option<Box<dyn LinkFaultModel>>,
    link_fault_stats: LinkFaultStats,
}

/// The in-process publish/subscribe bus.
///
/// Cloning a `MessageBus` is cheap and yields another handle onto the same
/// shared state, so nodes, publishers and subscriptions can be moved freely
/// between owners.
#[derive(Debug, Clone)]
pub struct MessageBus {
    inner: Arc<Mutex<BusInner>>,
}

impl Default for MessageBus {
    fn default() -> Self {
        MessageBus::new(CommLatencyModel::default())
    }
}

impl MessageBus {
    /// Creates a bus with the given communication-latency model.
    pub fn new(comm_model: CommLatencyModel) -> Self {
        MessageBus {
            inner: Arc::new(Mutex::new(BusInner {
                now: 0.0,
                comm_model,
                topics: BTreeMap::new(),
                nodes: BTreeMap::new(),
                next_subscription_id: 0,
                closed: false,
                link_faults: None,
                link_fault_stats: LinkFaultStats::default(),
            })),
        }
    }

    /// Installs a [`LinkFaultModel`] consulted once per publish. Replaces
    /// any previously installed model (and its statistics). With no model
    /// installed the bus is a perfect transport and behaves bit-identically
    /// to a bus that never had one.
    pub fn install_link_faults(&self, model: Box<dyn LinkFaultModel>) {
        let mut inner = self.lock();
        inner.link_faults = Some(model);
        inner.link_fault_stats = LinkFaultStats::default();
    }

    /// Counters of what the installed link-fault model has done so far
    /// (all zero when no model is installed).
    pub fn link_fault_stats(&self) -> LinkFaultStats {
        self.lock().link_fault_stats
    }

    /// Creates a bus whose transport is free (useful in tests).
    pub fn with_free_transport() -> Self {
        MessageBus::new(CommLatencyModel::free())
    }

    /// Current simulation time on the bus (seconds).
    pub fn now(&self) -> f64 {
        self.lock().now
    }

    /// Sets the simulation time used to stamp publishes.
    ///
    /// Time never moves backwards: attempts to rewind are clamped to the
    /// current time.
    pub fn set_time(&self, time: f64) {
        let mut inner = self.lock();
        if time > inner.now {
            inner.now = time;
        }
    }

    /// Advances the simulation time by `dt` seconds (negative values are
    /// ignored).
    pub fn advance_time(&self, dt: f64) {
        if dt > 0.0 {
            let mut inner = self.lock();
            inner.now += dt;
        }
    }

    /// Shuts the bus down; subsequent publishes fail with
    /// [`MiddlewareError::BusClosed`]. Already-queued samples can still be
    /// taken by subscribers.
    pub fn shutdown(&self) {
        self.lock().closed = true;
    }

    /// `true` once [`MessageBus::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().closed
    }

    /// The communication-latency model in force.
    pub fn comm_model(&self) -> CommLatencyModel {
        self.lock().comm_model
    }

    /// Names of every topic that has at least one publisher or
    /// subscription, in lexicographic order.
    pub fn topic_names(&self) -> Vec<TopicName> {
        self.lock().topics.keys().cloned().collect()
    }

    /// The message type name carried by a topic, if the topic exists.
    pub fn topic_type(&self, topic: &TopicName) -> Option<&'static str> {
        self.lock().topics.get(topic).map(|t| t.type_name)
    }

    /// Traffic statistics for one topic (zeroed default if the topic does
    /// not exist).
    pub fn topic_stats(&self, topic: &TopicName) -> CommStats {
        self.lock()
            .topics
            .get(topic)
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// Sum of the transport latency charged across every delivery on every
    /// topic since the bus was created (seconds).
    pub fn total_transport_latency(&self) -> f64 {
        self.lock()
            .topics
            .values()
            .map(|t| t.stats.total_transport_latency)
            .sum()
    }

    /// Registered node names and their topic connectivity.
    pub fn node_connections(&self) -> BTreeMap<String, NodeConnections> {
        self.lock().nodes.clone()
    }

    /// Number of publishers currently registered on a topic.
    pub fn publisher_count(&self, topic: &TopicName) -> usize {
        self.lock()
            .topics
            .get(topic)
            .map(|t| t.publisher_nodes.len())
            .unwrap_or(0)
    }

    /// Number of active subscriptions on a topic.
    pub fn subscription_count(&self, topic: &TopicName) -> usize {
        self.lock()
            .topics
            .get(topic)
            .map(|t| t.subscriptions.iter().filter(|s| s.active).count())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // crate-internal plumbing used by Node / Publisher / Subscription
    // ------------------------------------------------------------------

    fn lock(&self) -> std::sync::MutexGuard<'_, BusInner> {
        // A poisoned mutex can only result from a panic inside the bus
        // itself; recovering the inner state keeps unrelated tests honest.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn register_node(&self, name: &str) -> Result<(), MiddlewareError> {
        validate_node_name(name)?;
        let mut inner = self.lock();
        if inner.nodes.contains_key(name) {
            return Err(MiddlewareError::NodeNameTaken {
                name: name.to_string(),
            });
        }
        inner
            .nodes
            .insert(name.to_string(), NodeConnections::default());
        Ok(())
    }

    pub(crate) fn register_publisher<T: Message>(
        &self,
        node: &str,
        topic: &TopicName,
    ) -> Result<(), MiddlewareError> {
        let mut inner = self.lock();
        let state = ensure_topic::<T>(&mut inner.topics, topic)?;
        state.publisher_nodes.push(node.to_string());
        if let Some(conn) = inner.nodes.get_mut(node) {
            conn.publishes.insert(topic.clone());
        }
        Ok(())
    }

    pub(crate) fn unregister_publisher(&self, node: &str, topic: &TopicName) {
        let mut inner = self.lock();
        if let Some(state) = inner.topics.get_mut(topic) {
            if let Some(idx) = state.publisher_nodes.iter().position(|n| n == node) {
                state.publisher_nodes.remove(idx);
            }
        }
    }

    pub(crate) fn register_subscription<T: Message>(
        &self,
        node: &str,
        topic: &TopicName,
        qos: QosProfile,
    ) -> Result<u64, MiddlewareError> {
        let mut inner = self.lock();
        let id = inner.next_subscription_id;
        inner.next_subscription_id += 1;
        let comm_model = inner.comm_model;
        let state = ensure_topic::<T>(&mut inner.topics, topic)?;
        let mut slot = SubscriptionSlot {
            id,
            qos,
            queue: VecDeque::new(),
            evictions: 0,
            active: true,
        };
        // Latched topics re-deliver the retained sample to late joiners.
        if qos.durability == Durability::TransientLocal {
            if let Some(retained) = state.retained.as_ref() {
                if let Some(sample) = retained.downcast_ref::<Stamped<T>>() {
                    let mut sample = sample.clone();
                    sample.transport_latency =
                        comm_model.transfer_latency(sample.message.approx_size_bytes(), &qos);
                    slot.queue.push_back(Box::new(sample));
                }
            }
        }
        state.subscriptions.push(slot);
        if let Some(conn) = inner.nodes.get_mut(node) {
            conn.subscribes.insert(topic.clone());
        }
        Ok(id)
    }

    pub(crate) fn unregister_subscription(&self, topic: &TopicName, id: u64) {
        let mut inner = self.lock();
        if let Some(state) = inner.topics.get_mut(topic) {
            if let Some(slot) = state.subscriptions.iter_mut().find(|s| s.id == id) {
                slot.active = false;
                slot.queue.clear();
            }
        }
    }

    pub(crate) fn publish<T: Message>(
        &self,
        topic: &TopicName,
        message: T,
    ) -> Result<PublishReceipt, MiddlewareError> {
        let trace_timer = roborun_trace::timer();
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.closed {
            return Err(MiddlewareError::BusClosed);
        }
        let now = inner.now;
        let comm_model = inner.comm_model;
        let state = inner
            .topics
            .get_mut(topic)
            .filter(|s| s.type_id == TypeId::of::<T>())
            .ok_or_else(|| MiddlewareError::TypeMismatch {
                topic: topic.to_string(),
                existing: "<unregistered>",
                requested: T::type_name(),
            })?;

        let sequence = state.next_sequence;
        state.next_sequence += 1;
        let bytes = message.approx_size_bytes();

        // One fault decision per publish, keyed by (topic, sequence), so a
        // pure-function model keeps the transport bit-deterministic.
        let disposition = match inner.link_faults.as_mut() {
            Some(model) => {
                inner.link_fault_stats.consulted += 1;
                model.disposition(topic, sequence)
            }
            None => LinkDisposition::healthy(),
        };
        if disposition.drop {
            // Lost on the wire: the publisher sees a successful publish but
            // nothing is delivered or retained.
            inner.link_fault_stats.dropped += 1;
            state.stats.record_publish(bytes, 0, 0, 0.0);
            return Ok(PublishReceipt {
                sequence,
                deliveries: 0,
                evictions: 0,
                max_transport_latency: 0.0,
            });
        }
        let copies = 1 + disposition.duplicates as usize;
        let delayed = disposition.extra_delay > 0.0;

        let mut deliveries = 0usize;
        let mut evictions = 0usize;
        let mut latency_sum = 0.0;
        let mut max_latency = 0.0f64;
        for slot in state.subscriptions.iter_mut().filter(|s| s.active) {
            let base_latency = comm_model.transfer_latency(bytes, &slot.qos);
            let latency = if delayed {
                base_latency + disposition.extra_delay
            } else {
                base_latency
            };
            for copy in 0..copies {
                let sample = Stamped {
                    publish_time: now,
                    sequence,
                    transport_latency: latency,
                    message: message.clone(),
                };
                if slot.queue.len() >= slot.qos.depth {
                    slot.queue.pop_front();
                    slot.evictions += 1;
                    evictions += 1;
                }
                slot.queue.push_back(Box::new(sample));
                deliveries += 1;
                latency_sum += latency;
                max_latency = max_latency.max(latency);
                if copy > 0 {
                    inner.link_fault_stats.duplicated += 1;
                }
            }
            if delayed {
                inner.link_fault_stats.delayed += 1;
            }
        }

        let mean_latency = if deliveries > 0 {
            latency_sum / deliveries as f64
        } else {
            0.0
        };
        state
            .stats
            .record_publish(bytes, deliveries as u64, evictions as u64, mean_latency);
        if roborun_trace::armed() {
            let depth: usize = state
                .subscriptions
                .iter()
                .filter(|s| s.active)
                .map(|s| s.queue.len())
                .sum();
            roborun_trace::collector::complete_labeled(
                roborun_trace::SpanKind::BusPublish,
                topic.as_str(),
                now,
                mean_latency,
                roborun_trace::timer_ns(&trace_timer),
                &[
                    ("bytes", bytes as f64),
                    ("sequence", sequence as f64),
                    ("deliveries", deliveries as f64),
                    ("evictions", evictions as f64),
                ],
            );
            roborun_trace::collector::counter(
                roborun_trace::SpanKind::QueueDepth,
                topic.as_str(),
                now,
                depth as f64,
            );
        }

        // Retain the last sample for TransientLocal late joiners.
        state.retained = Some(Box::new(Stamped {
            publish_time: now,
            sequence,
            transport_latency: 0.0,
            message,
        }));

        Ok(PublishReceipt {
            sequence,
            deliveries,
            evictions,
            max_transport_latency: max_latency,
        })
    }

    /// Takes the oldest queued sample, reporting structural failures as
    /// typed [`crate::BusError`]s: an unknown topic or a stale
    /// subscription id (its subscriber dropped mid-mission) degrades to
    /// an error the caller can log and skip, and a corrupted payload is
    /// dropped with a [`MiddlewareError::PayloadTypeCorrupted`] instead
    /// of panicking. `Ok(None)` simply means the queue is empty.
    pub(crate) fn try_take<T: Message>(
        &self,
        topic: &TopicName,
        id: u64,
    ) -> Result<Option<Stamped<T>>, MiddlewareError> {
        let mut inner = self.lock();
        let state = inner
            .topics
            .get_mut(topic)
            .ok_or_else(|| MiddlewareError::UnknownTopic {
                topic: topic.to_string(),
            })?;
        let slot = state
            .subscriptions
            .iter_mut()
            .find(|s| s.id == id && s.active)
            .ok_or_else(|| MiddlewareError::UnknownSubscription {
                topic: topic.to_string(),
                id,
            })?;
        let Some(boxed) = slot.queue.pop_front() else {
            return Ok(None);
        };
        let remaining = slot.queue.len();
        match boxed.downcast::<Stamped<T>>() {
            Ok(sample) => {
                if roborun_trace::armed() {
                    roborun_trace::collector::complete_labeled(
                        roborun_trace::SpanKind::BusDeliver,
                        topic.as_str(),
                        sample.publish_time,
                        sample.transport_latency,
                        0,
                        &[
                            ("sequence", sample.sequence as f64),
                            ("subscription", id as f64),
                        ],
                    );
                    roborun_trace::collector::counter(
                        roborun_trace::SpanKind::QueueDepth,
                        topic.as_str(),
                        sample.publish_time + sample.transport_latency,
                        remaining as f64,
                    );
                }
                Ok(Some(*sample))
            }
            // The type is checked at registration time, so a mismatch
            // here is internal queue corruption; the sample is dropped
            // and the corruption reported.
            Err(_) => Err(MiddlewareError::PayloadTypeCorrupted {
                topic: topic.to_string(),
            }),
        }
    }

    pub(crate) fn take<T: Message>(&self, topic: &TopicName, id: u64) -> Option<Stamped<T>> {
        self.try_take(topic, id).ok().flatten()
    }

    pub(crate) fn queue_len(&self, topic: &TopicName, id: u64) -> usize {
        let inner = self.lock();
        inner
            .topics
            .get(topic)
            .and_then(|state| state.subscriptions.iter().find(|s| s.id == id))
            .map(|slot| slot.queue.len())
            .unwrap_or(0)
    }

    pub(crate) fn subscription_evictions(&self, topic: &TopicName, id: u64) -> u64 {
        let inner = self.lock();
        inner
            .topics
            .get(topic)
            .and_then(|state| state.subscriptions.iter().find(|s| s.id == id))
            .map(|slot| slot.evictions)
            .unwrap_or(0)
    }
}

fn validate_node_name(name: &str) -> Result<(), MiddlewareError> {
    let reject = |reason: &str| MiddlewareError::InvalidNodeName {
        name: name.to_string(),
        reason: reason.to_string(),
    };
    if name.is_empty() {
        return Err(reject("name is empty"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(reject(
            "node names may only contain lower-case letters, digits and `_`",
        ));
    }
    Ok(())
}

fn ensure_topic<'a, T: Message>(
    topics: &'a mut BTreeMap<TopicName, TopicState>,
    topic: &TopicName,
) -> Result<&'a mut TopicState, MiddlewareError> {
    // Entry-based so no panicking re-lookup is needed after insertion.
    let state = topics.entry(topic.clone()).or_insert_with(|| TopicState {
        type_id: TypeId::of::<T>(),
        type_name: T::type_name(),
        next_sequence: 0,
        publisher_nodes: Vec::new(),
        subscriptions: Vec::new(),
        retained: None,
        stats: CommStats::default(),
    });
    if state.type_id != TypeId::of::<T>() {
        return Err(MiddlewareError::TypeMismatch {
            topic: topic.to_string(),
            existing: state.type_name,
            requested: T::type_name(),
        });
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(name: &str) -> TopicName {
        TopicName::new(name).unwrap()
    }

    #[test]
    fn publish_without_subscribers_is_recorded_but_delivers_nothing() {
        let bus = MessageBus::default();
        bus.register_node("talker").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<String>("talker", &t).unwrap();
        let receipt = bus.publish(&t, String::from("hello")).unwrap();
        assert_eq!(receipt.deliveries, 0);
        assert_eq!(receipt.sequence, 0);
        let stats = bus.topic_stats(&t);
        assert_eq!(stats.messages_published, 1);
        assert_eq!(stats.deliveries, 0);
    }

    /// Drops even sequences, duplicates sequence 1, delays sequence 3.
    #[derive(Debug)]
    struct ScriptedFaults;

    impl crate::link_faults::LinkFaultModel for ScriptedFaults {
        fn disposition(&mut self, _topic: &TopicName, sequence: u64) -> LinkDisposition {
            LinkDisposition {
                drop: sequence.is_multiple_of(2),
                duplicates: u32::from(sequence == 1),
                extra_delay: if sequence == 3 { 0.5 } else { 0.0 },
            }
        }
    }

    #[test]
    fn link_fault_model_drops_duplicates_and_delays_samples() {
        let bus = MessageBus::with_free_transport();
        bus.install_link_faults(Box::new(ScriptedFaults));
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<u32>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<u32>("listener", &t, QosProfile::reliable(16))
            .unwrap();
        for i in 0..4u32 {
            bus.publish(&t, i).unwrap();
        }
        let mut received = Vec::new();
        let mut delays = Vec::new();
        while let Some(sample) = bus.take::<u32>(&t, sub) {
            received.push(sample.message);
            delays.push(sample.transport_latency);
        }
        // 0 and 2 dropped, 1 duplicated, 3 delayed by 0.5 s.
        assert_eq!(received, vec![1, 1, 3]);
        assert_eq!(delays, vec![0.0, 0.0, 0.5]);
        let stats = bus.link_fault_stats();
        assert_eq!(stats.consulted, 4);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.delayed, 1);
        assert!(stats.total_events() >= 4);
    }

    #[test]
    fn bus_without_link_faults_reports_zero_fault_stats() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<u32>("talker", &t).unwrap();
        bus.publish(&t, 7u32).unwrap();
        assert_eq!(bus.link_fault_stats(), LinkFaultStats::default());
    }

    #[test]
    fn samples_flow_publisher_to_subscriber_in_order() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<u32>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<u32>("listener", &t, QosProfile::reliable(16))
            .unwrap();
        for i in 0..5u32 {
            bus.publish(&t, i).unwrap();
        }
        let mut received = Vec::new();
        while let Some(sample) = bus.take::<u32>(&t, sub) {
            received.push(sample.message);
        }
        assert_eq!(received, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn keep_last_depth_evicts_oldest() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/scan");
        bus.register_publisher::<u64>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<u64>("listener", &t, QosProfile::reliable(3))
            .unwrap();
        for i in 0..10u64 {
            bus.publish(&t, i).unwrap();
        }
        assert_eq!(bus.queue_len(&t, sub), 3);
        assert_eq!(bus.subscription_evictions(&t, sub), 7);
        let newest: Vec<u64> =
            std::iter::from_fn(|| bus.take::<u64>(&t, sub).map(|s| s.message)).collect();
        assert_eq!(newest, vec![7, 8, 9]);
    }

    #[test]
    fn type_conflicts_are_rejected() {
        let bus = MessageBus::default();
        bus.register_node("a").unwrap();
        let t = topic("/mixed");
        bus.register_publisher::<u32>("a", &t).unwrap();
        let err = bus.register_publisher::<String>("a", &t).unwrap_err();
        assert!(matches!(err, MiddlewareError::TypeMismatch { .. }));
        let err = bus
            .register_subscription::<f64>("a", &t, QosProfile::default())
            .unwrap_err();
        assert!(matches!(err, MiddlewareError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_node_names_are_rejected() {
        let bus = MessageBus::default();
        bus.register_node("governor").unwrap();
        let err = bus.register_node("governor").unwrap_err();
        assert_eq!(
            err,
            MiddlewareError::NodeNameTaken {
                name: "governor".into()
            }
        );
        assert!(bus.register_node("Governor").is_err());
        assert!(bus.register_node("").is_err());
    }

    #[test]
    fn latched_topics_replay_to_late_subscribers() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        bus.register_node("late").unwrap();
        let t = topic("/policy");
        bus.register_publisher::<String>("talker", &t).unwrap();
        bus.publish(&t, String::from("v1")).unwrap();
        bus.publish(&t, String::from("v2")).unwrap();
        // Volatile late joiner sees nothing.
        let volatile = bus
            .register_subscription::<String>("late", &t, QosProfile::reliable(4))
            .unwrap();
        assert!(bus.take::<String>(&t, volatile).is_none());
        // TransientLocal late joiner receives the retained (latest) sample.
        let latched = bus
            .register_subscription::<String>("late", &t, QosProfile::latched(4))
            .unwrap();
        let sample = bus.take::<String>(&t, latched).expect("latched sample");
        assert_eq!(sample.message, "v2");
        assert_eq!(sample.sequence, 1);
    }

    #[test]
    fn publish_stamps_simulation_time_and_transport_latency() {
        let bus = MessageBus::default();
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/cloud");
        bus.register_publisher::<Vec<f64>>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<Vec<f64>>("listener", &t, QosProfile::sensor_data())
            .unwrap();
        bus.set_time(12.5);
        let payload = vec![0.0f64; 10_000]; // 80 kB
        bus.publish(&t, payload).unwrap();
        let sample = bus.take::<Vec<f64>>(&t, sub).unwrap();
        assert!((sample.publish_time - 12.5).abs() < 1e-12);
        assert!(sample.transport_latency > 0.0);
        assert!(sample.arrival_time() > 12.5);
        assert!(bus.total_transport_latency() > 0.0);
    }

    #[test]
    fn time_never_rewinds() {
        let bus = MessageBus::default();
        bus.set_time(10.0);
        bus.set_time(5.0);
        assert!((bus.now() - 10.0).abs() < 1e-12);
        bus.advance_time(-3.0);
        assert!((bus.now() - 10.0).abs() < 1e-12);
        bus.advance_time(2.0);
        assert!((bus.now() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn shutdown_stops_publishes_but_not_takes() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<u8>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<u8>("listener", &t, QosProfile::default())
            .unwrap();
        bus.publish(&t, 7u8).unwrap();
        bus.shutdown();
        assert!(bus.is_shutdown());
        assert_eq!(
            bus.publish(&t, 8u8).unwrap_err(),
            MiddlewareError::BusClosed
        );
        assert_eq!(bus.take::<u8>(&t, sub).unwrap().message, 7);
    }

    #[test]
    fn unregistering_a_subscription_stops_delivery() {
        let bus = MessageBus::with_free_transport();
        bus.register_node("talker").unwrap();
        bus.register_node("listener").unwrap();
        let t = topic("/chatter");
        bus.register_publisher::<u8>("talker", &t).unwrap();
        let sub = bus
            .register_subscription::<u8>("listener", &t, QosProfile::default())
            .unwrap();
        assert_eq!(bus.subscription_count(&t), 1);
        bus.unregister_subscription(&t, sub);
        assert_eq!(bus.subscription_count(&t), 0);
        let receipt = bus.publish(&t, 1u8).unwrap();
        assert_eq!(receipt.deliveries, 0);
        assert!(bus.take::<u8>(&t, sub).is_none());
    }

    #[test]
    fn introspection_reports_topics_and_connectivity() {
        let bus = MessageBus::default();
        bus.register_node("camera").unwrap();
        bus.register_node("mapper").unwrap();
        let t = topic("/sensors/points");
        bus.register_publisher::<Vec<f64>>("camera", &t).unwrap();
        bus.register_subscription::<Vec<f64>>("mapper", &t, QosProfile::sensor_data())
            .unwrap();
        assert_eq!(bus.topic_names(), vec![t.clone()]);
        assert_eq!(bus.publisher_count(&t), 1);
        assert_eq!(bus.subscription_count(&t), 1);
        assert!(bus.topic_type(&t).unwrap().contains("Vec"));
        let connections = bus.node_connections();
        assert!(connections["camera"].publishes.contains(&t));
        assert!(connections["mapper"].subscribes.contains(&t));
    }
}
