//! Bench: the three timestamp operations of Section 3.3 — `advance`,
//! `merge`, and predicate `J` — for edge-indexed timestamps vs the
//! vector-clock baseline, with the reference model's `J` over counter
//! maps as the unindexed baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_timestamp::{EdgeTimestamp, TsRegistry, VectorClock};

/// `ts` as the reference model's counter map over its replica's `E_i`.
fn as_map(reg: &TsRegistry, ts: &EdgeTimestamp) -> prcc_spec::Timestamp {
    let edges = reg.graphs().of(ts.replica()).edges();
    edges
        .iter()
        .copied()
        .zip(ts.values().iter().copied())
        .collect()
}

fn bench_edge_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("edge_timestamp_ops");
    for n in [6usize, 12, 24] {
        let graph = topology::ring(n);
        let reg = TsRegistry::new(
            &graph,
            TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE),
        );
        let r0 = ReplicaId::new(0);
        let r1 = ReplicaId::new(1);
        let mut t0 = reg.new_timestamp(r0);
        reg.advance(&mut t0, RegisterId::new(0));
        let incoming = t0.clone();
        let t1 = reg.new_timestamp(r1);

        g.bench_with_input(BenchmarkId::new("advance", n), &n, |b, _| {
            let mut t = reg.new_timestamp(r0);
            b.iter(|| reg.advance(black_box(&mut t), RegisterId::new(0)))
        });
        g.bench_with_input(BenchmarkId::new("ready", n), &n, |b, _| {
            b.iter(|| reg.ready(black_box(&t1), r0, black_box(&incoming)))
        });
        // Baseline (DESIGN §6 "predicate J indexing"): the reference
        // model's `J`, which walks counter maps keyed by edge instead of
        // the precomputed all-pairs position maps.
        let (t1_map, incoming_map) = (as_map(&reg, &t1), as_map(&reg, &incoming));
        g.bench_with_input(BenchmarkId::new("ready_map", n), &n, |b, _| {
            b.iter(|| prcc_spec::j(r1, black_box(&t1_map), r0, black_box(&incoming_map)))
        });
        g.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            let mut t = reg.new_timestamp(r1);
            b.iter(|| reg.merge(black_box(&mut t), r0, black_box(&incoming)))
        });
    }
    g.finish();
}

fn bench_vc_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vector_clock_ops");
    for n in [6usize, 12, 24] {
        let mut sender = VectorClock::new(n);
        sender.increment(ReplicaId::new(0));
        let msg = sender.clone();
        let receiver = VectorClock::new(n);
        g.bench_with_input(BenchmarkId::new("deliverable", n), &n, |b, _| {
            b.iter(|| black_box(&receiver).deliverable(ReplicaId::new(0), black_box(&msg)))
        });
        g.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            let mut r = VectorClock::new(n);
            b.iter(|| r.merge(black_box(&msg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_edge_ops, bench_vc_ops);
criterion_main!(benches);
