//! Nodes, publishers and subscriptions — the user-facing handles.
//!
//! A [`Node`] is a named participant on the [`MessageBus`]; it creates
//! typed [`Publisher`]s and [`Subscription`]s. The handles are plain
//! structs (no lifetimes) so they can be stored in pipeline-stage structs
//! and moved into closures.

use crate::bus::{MessageBus, PublishReceipt};
use crate::error::MiddlewareError;
use crate::message::{Message, Stamped};
use crate::qos::QosProfile;
use crate::topic::TopicName;
use std::marker::PhantomData;

/// A named participant on the bus.
#[derive(Debug, Clone)]
pub struct Node {
    bus: MessageBus,
    name: String,
}

impl Node {
    /// Registers a new node on the bus.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidNodeName`] for malformed names and
    /// [`MiddlewareError::NodeNameTaken`] for duplicates.
    pub fn new(bus: &MessageBus, name: &str) -> Result<Self, MiddlewareError> {
        bus.register_node(name)?;
        Ok(Node {
            bus: bus.clone(),
            name: name.to_string(),
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bus this node is registered on.
    pub fn bus(&self) -> &MessageBus {
        &self.bus
    }

    /// Creates a publisher for `T` on `topic`.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidTopicName`] for malformed topic
    /// names and [`MiddlewareError::TypeMismatch`] if the topic already
    /// carries a different message type.
    pub fn publisher<T: Message>(&self, topic: &str) -> Result<Publisher<T>, MiddlewareError> {
        let topic = TopicName::new(topic)?;
        self.bus.register_publisher::<T>(&self.name, &topic)?;
        Ok(Publisher {
            bus: self.bus.clone(),
            node: self.name.clone(),
            topic,
            _marker: PhantomData,
        })
    }

    /// Creates a subscription to `T` samples on `topic` with the given QoS.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidTopicName`] for malformed topic
    /// names and [`MiddlewareError::TypeMismatch`] if the topic already
    /// carries a different message type.
    pub fn subscribe<T: Message>(
        &self,
        topic: &str,
        qos: QosProfile,
    ) -> Result<Subscription<T>, MiddlewareError> {
        let topic = TopicName::new(topic)?;
        let id = self
            .bus
            .register_subscription::<T>(&self.name, &topic, qos)?;
        Ok(Subscription {
            bus: self.bus.clone(),
            topic,
            id,
            qos,
            _marker: PhantomData,
        })
    }
}

/// A typed publisher handle.
///
/// Dropping the publisher unregisters it from the topic (the bus's
/// publisher count decreases); samples it already published remain
/// queued at their subscribers.
#[derive(Debug)]
pub struct Publisher<T: Message> {
    bus: MessageBus,
    node: String,
    topic: TopicName,
    _marker: PhantomData<fn(T)>,
}

impl<T: Message> Publisher<T> {
    /// The topic this publisher writes to.
    pub fn topic(&self) -> &TopicName {
        &self.topic
    }

    /// Publishes one sample.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::BusClosed`] after the bus has been shut
    /// down.
    pub fn publish(&self, message: T) -> Result<PublishReceipt, MiddlewareError> {
        self.bus.publish(&self.topic, message)
    }

    /// Number of active subscriptions that will receive the next publish.
    pub fn subscriber_count(&self) -> usize {
        self.bus.subscription_count(&self.topic)
    }
}

/// A typed subscription handle with a keep-last queue on the bus.
#[derive(Debug)]
pub struct Subscription<T: Message> {
    bus: MessageBus,
    topic: TopicName,
    id: u64,
    qos: QosProfile,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Message> Subscription<T> {
    /// The topic this subscription listens on.
    pub fn topic(&self) -> &TopicName {
        &self.topic
    }

    /// The QoS profile the subscription was created with.
    pub fn qos(&self) -> QosProfile {
        self.qos
    }

    /// Takes the oldest queued sample, if any. Structural failures (the
    /// subscription was dropped, a payload failed its downcast) degrade
    /// to `None`; use [`Subscription::recv_checked`] to observe them.
    pub fn try_recv(&self) -> Option<Stamped<T>> {
        self.bus.take::<T>(&self.topic, self.id)
    }

    /// Takes the oldest queued sample, surfacing structural failures as
    /// typed [`MiddlewareError`]s instead of silently returning `None`:
    /// `Ok(None)` is an empty queue, `Err(UnknownSubscription)` a handle
    /// whose bus-side slot is gone (subscriber dropped mid-mission),
    /// `Err(PayloadTypeCorrupted)` a dropped corrupt sample. Callers that
    /// must keep a mission alive log the error and continue.
    pub fn recv_checked(&self) -> Result<Option<Stamped<T>>, MiddlewareError> {
        self.bus.try_take::<T>(&self.topic, self.id)
    }

    /// Takes the newest queued sample, discarding anything older. Returns
    /// `None` when the queue is empty.
    pub fn latest(&self) -> Option<Stamped<T>> {
        let mut newest = None;
        while let Some(sample) = self.try_recv() {
            newest = Some(sample);
        }
        newest
    }

    /// Drains every queued sample in publish order.
    pub fn drain(&self) -> Vec<Stamped<T>> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(sample) = self.try_recv() {
            out.push(sample);
        }
        out
    }

    /// Number of samples currently queued.
    pub fn len(&self) -> usize {
        self.bus.queue_len(&self.topic, self.id)
    }

    /// `true` when no samples are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted from this subscription's queue because it was full.
    pub fn evictions(&self) -> u64 {
        self.bus.subscription_evictions(&self.topic, self.id)
    }
}

impl<T: Message> Drop for Publisher<T> {
    fn drop(&mut self) {
        self.bus.unregister_publisher(&self.node, &self.topic);
    }
}

impl<T: Message> Drop for Subscription<T> {
    fn drop(&mut self) {
        self.bus.unregister_subscription(&self.topic, self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_publisher_subscription_round_trip() {
        let bus = MessageBus::with_free_transport();
        let talker = Node::new(&bus, "talker").unwrap();
        let listener = Node::new(&bus, "listener").unwrap();
        let publisher = talker.publisher::<String>("/chatter").unwrap();
        let subscription = listener
            .subscribe::<String>("/chatter", QosProfile::default())
            .unwrap();

        assert_eq!(publisher.subscriber_count(), 1);
        publisher.publish(String::from("hello world")).unwrap();
        let sample = subscription.try_recv().expect("sample");
        assert_eq!(sample.message, "hello world");
        assert!(subscription.is_empty());
    }

    #[test]
    fn latest_discards_older_samples() {
        let bus = MessageBus::with_free_transport();
        let node = Node::new(&bus, "solo").unwrap();
        let publisher = node.publisher::<u32>("/counter").unwrap();
        let subscription = node
            .subscribe::<u32>("/counter", QosProfile::reliable(8))
            .unwrap();
        for i in 0..5 {
            publisher.publish(i).unwrap();
        }
        assert_eq!(subscription.len(), 5);
        assert_eq!(subscription.latest().unwrap().message, 4);
        assert!(subscription.latest().is_none());
    }

    #[test]
    fn drain_preserves_order() {
        let bus = MessageBus::with_free_transport();
        let node = Node::new(&bus, "solo").unwrap();
        let publisher = node.publisher::<u32>("/counter").unwrap();
        let subscription = node
            .subscribe::<u32>("/counter", QosProfile::reliable(8))
            .unwrap();
        for i in 0..4 {
            publisher.publish(i).unwrap();
        }
        let values: Vec<u32> = subscription
            .drain()
            .into_iter()
            .map(|s| s.message)
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_a_publisher_unregisters_it() {
        let bus = MessageBus::with_free_transport();
        let node = Node::new(&bus, "solo").unwrap();
        let topic = crate::topic::TopicName::new("/beat").unwrap();
        {
            let _publisher = node.publisher::<u8>("/beat").unwrap();
            assert_eq!(bus.publisher_count(&topic), 1);
        }
        assert_eq!(bus.publisher_count(&topic), 0);
    }

    #[test]
    fn dropping_a_subscription_unregisters_it() {
        let bus = MessageBus::with_free_transport();
        let node = Node::new(&bus, "solo").unwrap();
        let publisher = node.publisher::<u8>("/beat").unwrap();
        {
            let _subscription = node
                .subscribe::<u8>("/beat", QosProfile::default())
                .unwrap();
            assert_eq!(publisher.subscriber_count(), 1);
        }
        assert_eq!(publisher.subscriber_count(), 0);
    }

    #[test]
    fn invalid_names_surface_as_errors() {
        let bus = MessageBus::default();
        assert!(Node::new(&bus, "Bad Name").is_err());
        let node = Node::new(&bus, "ok").unwrap();
        assert!(node.publisher::<u8>("no_leading_slash").is_err());
        assert!(node
            .subscribe::<u8>("/UPPER", QosProfile::default())
            .is_err());
    }

    #[test]
    fn dropped_subscriber_degrades_instead_of_aborting() {
        let bus = MessageBus::with_free_transport();
        let talker = Node::new(&bus, "talker").unwrap();
        let listener = Node::new(&bus, "listener").unwrap();
        let publisher = talker.publisher::<u32>("/mission").unwrap();
        let keeper = listener
            .subscribe::<u32>("/mission", QosProfile::reliable(4))
            .unwrap();
        {
            let _doomed = listener
                .subscribe::<u32>("/mission", QosProfile::reliable(4))
                .unwrap();
            publisher.publish(1).unwrap();
            // `_doomed` drops here, mid-"mission".
        }
        // Publishing continues without error, deliveries reflect the
        // drop, and the surviving subscription keeps receiving — the
        // sweep never aborts.
        let receipt = publisher.publish(2).unwrap();
        assert_eq!(receipt.deliveries, 1);
        assert_eq!(keeper.drain().len(), 2);
    }

    #[test]
    fn recv_checked_reports_a_stale_subscription_as_a_typed_error() {
        use crate::error::BusError;
        let bus = MessageBus::with_free_transport();
        let node = Node::new(&bus, "solo").unwrap();
        let publisher = node.publisher::<u8>("/beat").unwrap();
        let sub = node
            .subscribe::<u8>("/beat", QosProfile::default())
            .unwrap();
        publisher.publish(1).unwrap();
        assert!(matches!(sub.recv_checked(), Ok(Some(_))));
        assert!(matches!(sub.recv_checked(), Ok(None)));
        // Simulate the bus-side slot vanishing while the handle lives
        // on: unregister directly, as a foreign drop would.
        bus.unregister_subscription(sub.topic(), 0);
        match sub.recv_checked() {
            Err(BusError::UnknownSubscription { topic, id }) => {
                assert_eq!(topic, "/beat");
                assert_eq!(id, 0);
            }
            other => panic!("expected UnknownSubscription, got {other:?}"),
        }
        // The un-checked path degrades the same condition to `None`.
        assert!(sub.try_recv().is_none());
        // The publisher keeps working regardless.
        publisher.publish(2).unwrap();
    }

    #[test]
    fn two_subscribers_each_get_every_sample() {
        let bus = MessageBus::with_free_transport();
        let talker = Node::new(&bus, "talker").unwrap();
        let a = Node::new(&bus, "a").unwrap();
        let b = Node::new(&bus, "b").unwrap();
        let publisher = talker.publisher::<u32>("/fanout").unwrap();
        let sub_a = a
            .subscribe::<u32>("/fanout", QosProfile::reliable(8))
            .unwrap();
        let sub_b = b
            .subscribe::<u32>("/fanout", QosProfile::reliable(8))
            .unwrap();
        for i in 0..3 {
            publisher.publish(i).unwrap();
        }
        assert_eq!(sub_a.drain().len(), 3);
        assert_eq!(sub_b.drain().len(), 3);
    }
}
