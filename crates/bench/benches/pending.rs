//! Bench: pending-buffer drain — the replica's step-4 loop under
//! out-of-order bursts: the dependency-counting wakeup index against
//! the reference model's scan, which re-evaluates `J` over the whole
//! buffer after every apply (DESIGN §6 "pending-set scheduling").

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_core::{CausalityTracker, EdgeTracker, Replica, Value};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_spec::{EdgeClock, Spec};
use prcc_timestamp::TsRegistry;
use std::sync::Arc;

const R0: ReplicaId = ReplicaId::new(0);
const R1: ReplicaId = ReplicaId::new(1);

/// Builds `n` updates from replica 0 to replica 1 and returns them
/// reversed (worst-case ordering for a scanning drain).
fn make_burst(n: usize) -> (Replica, Vec<prcc_core::UpdateMsg>) {
    let g = topology::path(2);
    let reg = Arc::new(TsRegistry::new(
        &g,
        TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
    ));
    let mut sender = Replica::new(
        R0,
        g.placement().registers_of(R0).clone(),
        Box::new(EdgeTracker::new(reg.clone(), R0)) as Box<dyn CausalityTracker>,
    );
    let mut msgs = Vec::with_capacity(n);
    for i in 0..n {
        let (m, _) = sender
            .write(RegisterId::new(0), Value::from(i as u64), vec![R1])
            .unwrap();
        msgs.push(m);
    }
    msgs.reverse();
    let receiver = Replica::new(
        R1,
        g.placement().registers_of(R1).clone(),
        Box::new(EdgeTracker::new(reg, R1)) as Box<dyn CausalityTracker>,
    );
    (receiver, msgs)
}

/// The same burst in the reference model: `n` writes at replica 0, to
/// be delivered at replica 1 in reverse.
fn make_reference_burst(n: usize) -> (Spec<EdgeClock>, Vec<prcc_checker::UpdateId>) {
    let g = topology::path(2);
    let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
    let mut spec = Spec::new(&g, EdgeClock::all(&g, &graphs));
    let mut ids: Vec<_> = (0..n as u64)
        .map(|i| spec.write(R0, RegisterId::new(0), i).0)
        .collect();
    ids.reverse();
    (spec, ids)
}

fn bench_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("pending_drain");
    g.sample_size(20);
    for n in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("reversed_burst/scan", n), &n, |b, &n| {
            b.iter_batched(
                || make_reference_burst(n),
                |(mut spec, ids)| {
                    let mut applied = 0;
                    for id in ids {
                        applied += spec.deliver(R1, black_box(id)).len();
                    }
                    assert_eq!(applied, n);
                },
                criterion::BatchSize::SmallInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("reversed_burst/wakeup", n), &n, |b, &n| {
            b.iter_batched(
                || make_burst(n),
                |(mut receiver, msgs)| {
                    let mut applied = 0;
                    for m in msgs {
                        applied += receiver.receive(black_box(m)).len();
                    }
                    assert_eq!(applied, n);
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_drain);
criterion_main!(benches);
