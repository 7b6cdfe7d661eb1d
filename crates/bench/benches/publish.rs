//! Bench: snapshot publishing — the sharded copy-on-write store versus
//! cloning the whole store, as the register space grows 64 → 16384.
//!
//! The baseline clones the reference model's `BTreeMap` store: O(store)
//! per publish. A copy-on-write capture republishes `Arc`s for
//! untouched shards and rebuilds only what changed since the last
//! publish: O(Δ). The steady-state case measured here is the replica
//! loop's — one write dirties one shard, then the view is captured —
//! so the clone/cow gap at 16384 registers is the direct cost the
//! replica loop's per-burst publish avoids.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_core::runtime::ReplicaView;
use prcc_core::{CausalityTracker, EdgeTracker, Replica, StoreMode, Value};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_spec::{EdgeClock, Spec};
use prcc_timestamp::TsRegistry;
use std::sync::Arc;

/// One replica of a 2-clique holding all `k` registers, every register
/// written once so the store is fully populated.
fn setup(k: usize) -> Replica {
    let graph = topology::clique_full(2, k);
    let registry = Arc::new(TsRegistry::new(
        &graph,
        TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE),
    ));
    let r0 = ReplicaId::new(0);
    let mut replica = Replica::new(
        r0,
        graph.placement().registers_of(r0).clone(),
        Box::new(EdgeTracker::new(registry, r0)) as Box<dyn CausalityTracker>,
    );
    for i in 0..k {
        replica
            .write(RegisterId::new(i as u32), Value::from(i as u64), Vec::new())
            .expect("replica stores every register");
    }
    replica
}

/// [`setup`] in the reference model, whose store is a `BTreeMap`.
fn reference_setup(k: usize) -> Spec<EdgeClock> {
    let graph = topology::clique_full(2, k);
    let graphs = TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE);
    let mut spec = Spec::new(&graph, EdgeClock::all(&graph, &graphs));
    for i in 0..k {
        spec.write(ReplicaId::new(0), RegisterId::new(i as u32), i as u64);
    }
    spec
}

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish");
    for k in [64usize, 1024, 16384] {
        let mut replica = setup(k);
        let frontier = vec![k as u64, 0];

        // Clone-the-world: every publish copies all k registers (plus
        // provenance).
        let spec = reference_setup(k);
        group.bench_with_input(BenchmarkId::new("clone", k), &k, |b, _| {
            b.iter(|| black_box(spec.store(ReplicaId::new(0)).clone()))
        });

        // Steady-state COW: a previous publish holds every shard (so
        // the store is fully shared), one register is overwritten (one
        // shard clones), and the view is captured — the replica loop's
        // write → publish cycle.
        group.bench_with_input(BenchmarkId::new("cow", k), &k, |b, _| {
            let mut prev = ReplicaView::capture(&replica, StoreMode::Cow, frontier.clone());
            let mut i = 0u64;
            b.iter(|| {
                replica
                    .write(
                        RegisterId::new((i % k as u64) as u32),
                        Value::from(i),
                        Vec::new(),
                    )
                    .expect("rewrite stays stored");
                i += 1;
                prev = ReplicaView::capture(&replica, StoreMode::Cow, frontier.clone());
                black_box(&prev);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_publish);
criterion_main!(benches);
