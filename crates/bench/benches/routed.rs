//! Bench: the routed protocol — plain ring vs broken ring end-to-end, and
//! the RoutedSystem surgery cost on general graphs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_core::{RoutedSystem, System, Value};
use prcc_net::DelayModel;
use prcc_sharegraph::{topology, RegisterId, ReplicaId};

fn drive_ring(n: usize) {
    let mut sys = System::builder(topology::ring(n))
        .delay(DelayModel::Fixed(2))
        .seed(1)
        .build();
    for round in 0..5u64 {
        for i in 0..n as u32 {
            sys.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
        }
        sys.run_to_quiescence();
    }
    assert!(sys.check().is_consistent());
}

fn drive_broken(n: usize) {
    let severed = (ReplicaId::new(n as u32 - 1), ReplicaId::new(0));
    let mut sys = RoutedSystem::new(&topology::ring(n), &[severed], DelayModel::Fixed(2), 1)
        .expect("a ring edge is breakable");
    for round in 0..5u64 {
        for i in 0..n as u32 {
            sys.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
        }
        sys.run_to_quiescence();
    }
    assert!(sys.check().is_consistent());
}

fn bench_ring_vs_broken(c: &mut Criterion) {
    let mut g = c.benchmark_group("routed_ring");
    g.sample_size(10);
    for n in [6usize, 10] {
        g.bench_with_input(BenchmarkId::new("plain", n), &n, |b, &n| {
            b.iter(|| drive_ring(black_box(n)))
        });
        g.bench_with_input(BenchmarkId::new("broken", n), &n, |b, &n| {
            b.iter(|| drive_broken(black_box(n)))
        });
    }
    g.finish();
}

fn bench_surgery(c: &mut Criterion) {
    let mut g = c.benchmark_group("routed_surgery");
    g.sample_size(10);
    let grid = topology::grid(4, 4);
    g.bench_function("grid4x4_one_break", |b| {
        b.iter(|| {
            RoutedSystem::new(
                black_box(&grid),
                &[(ReplicaId::new(0), ReplicaId::new(1))],
                DelayModel::Fixed(1),
                0,
            )
            .expect("routable")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ring_vs_broken, bench_surgery);
criterion_main!(benches);
