//! Bench: the consistency checker — happened-before construction and
//! full safety/liveness verification on traces of increasing size.
//!
//! Both groups run the same traces: `ring(6)` at three sizes, and
//! `clique_full(8, 2)` with 4 000 round-robin writes (32 k events).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_checker::{check, HbGraph, Trace};
use prcc_core::{System, Value};
use prcc_net::DelayModel;
use prcc_sharegraph::{topology, Placement, RegisterId, ReplicaId};

/// Generates a consistent trace by running the real protocol.
fn make_trace(writes_per_replica: u64) -> (Trace, Placement) {
    let g = topology::ring(6);
    let placement = g.placement().clone();
    let mut sys = System::builder(g)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .seed(1)
        .build();
    for round in 0..writes_per_replica {
        for i in 0..6u32 {
            sys.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
        }
        for _ in 0..4 {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    (sys.trace().clone(), placement)
}

/// 4 000 writes on `clique_full(8, 2)`, round-robin over the replicas
/// and alternating registers, one `step` after each: 32 000 events.
fn clique_trace() -> (Trace, Placement) {
    let g = topology::clique_full(8, 2);
    let placement = g.placement().clone();
    let mut sys = System::builder(g)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .seed(1)
        .build();
    for k in 0..4000u32 {
        sys.write(
            ReplicaId::new(k % 8),
            RegisterId::new(k % 2),
            Value::from(u64::from(k)),
        );
        sys.step();
    }
    sys.run_to_quiescence();
    (sys.trace().clone(), placement)
}

/// The benched traces, each with its name.
fn traces() -> Vec<(String, Trace, Placement)> {
    let mut all: Vec<_> = [20u64, 80, 320]
        .into_iter()
        .map(|n| {
            let (t, p) = make_trace(n);
            (format!("ring6/{}", t.num_updates()), t, p)
        })
        .collect();
    let (t, p) = clique_trace();
    all.push((format!("clique8x2/{}", t.num_updates()), t, p));
    all
}

fn bench_hb_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("hb_build");
    for (name, trace, _) in traces() {
        g.bench_with_input(BenchmarkId::new("updates", name), &trace, |b, t| {
            b.iter(|| HbGraph::build(black_box(t)))
        });
    }
    g.finish();
}

fn bench_full_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("consistency_check");
    g.sample_size(20);
    for (name, trace, placement) in traces() {
        g.bench_with_input(
            BenchmarkId::new("updates", name),
            &(trace, placement),
            |b, (t, p)| b.iter(|| check(black_box(t), black_box(p))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_hb_build, bench_full_check);
criterion_main!(benches);
