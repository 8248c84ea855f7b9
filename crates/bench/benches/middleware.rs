//! Criterion benchmarks for the middleware substrate: raw pub/sub
//! throughput and fan-out cost.
//!
//! These validate that the transport layer's real cost is negligible next
//! to the navigation kernels (the modeled "comm" term dominates it by
//! orders of magnitude), i.e. the middleware never becomes the bottleneck
//! of the reproduction itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use roborun_middleware::{MessageBus, Node, QosProfile};

/// Publish/take round trips for a point-cloud-sized payload.
fn bench_pub_sub_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_round_trip");
    group.sample_size(40);
    for &points in &[100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("points", points), &points, |b, &points| {
            let bus = MessageBus::default();
            let talker = Node::new(&bus, "talker").unwrap();
            let listener = Node::new(&bus, "listener").unwrap();
            let publisher = talker.publisher::<Vec<f64>>("/sensors/points").unwrap();
            let subscription = listener
                .subscribe::<Vec<f64>>("/sensors/points", QosProfile::sensor_data())
                .unwrap();
            let payload = vec![1.5f64; points];
            b.iter(|| {
                publisher.publish(payload.clone()).unwrap();
                std::hint::black_box(subscription.try_recv())
            });
        });
    }
    group.finish();
}

/// Fan-out cost: one publish delivered to an increasing number of
/// subscribers.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware_fanout");
    group.sample_size(40);
    for &subscribers in &[1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("subscribers", subscribers),
            &subscribers,
            |b, &subscribers| {
                let bus = MessageBus::default();
                let talker = Node::new(&bus, "talker").unwrap();
                let publisher = talker.publisher::<Vec<f64>>("/fanout").unwrap();
                let subs: Vec<_> = (0..subscribers)
                    .map(|i| {
                        let node = Node::new(&bus, &format!("listener_{i}")).unwrap();
                        node.subscribe::<Vec<f64>>("/fanout", QosProfile::reliable(4))
                            .unwrap()
                    })
                    .collect();
                let payload = vec![1.5f64; 1_000];
                b.iter(|| {
                    publisher.publish(payload.clone()).unwrap();
                    for sub in &subs {
                        std::hint::black_box(sub.try_recv());
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pub_sub_round_trip, bench_fanout);
criterion_main!(benches);
