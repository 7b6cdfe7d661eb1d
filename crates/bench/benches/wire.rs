//! Microbenchmarks of the wire codec's send path: single-pair encode,
//! full clique fan-out (the encode-once case), and the frame primitives
//! underneath — the per-send cost that `tests/gates.rs` bounds at 5× raw
//! on clique(24).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_core::{Metadata, WireCodec, WireMode};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_timestamp::{DeltaStream, TsRegistry};
use std::sync::Arc;

fn registry(g: &prcc_sharegraph::ShareGraph) -> Arc<TsRegistry> {
    Arc::new(TsRegistry::new(
        g,
        TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE),
    ))
}

/// One advanced metadata Arc per round, pre-built so only codec cost is
/// on the clock.
fn advancing_metas(reg: &TsRegistry, sender: ReplicaId, rounds: usize) -> Vec<Arc<Metadata>> {
    let mut ts = reg.new_timestamp(sender);
    (0..rounds)
        .map(|k| {
            reg.advance(&mut ts, RegisterId::new((k % 2) as u32));
            Arc::new(Metadata::Edge(ts.clone()))
        })
        .collect()
}

/// Fan-out of one write on clique_full(n, 2): n−1 recipients, identical
/// streams — the dense case the encode-once path exists for.
fn bench_clique_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_fanout");
    group.sample_size(20);
    for n in [8usize, 24] {
        let g = topology::clique_full(n, 2);
        let reg = registry(&g);
        let sender = ReplicaId::new(0);
        let recipients: Vec<ReplicaId> = (1..n as u32).map(ReplicaId::new).collect();
        let metas = advancing_metas(&reg, sender, 64);
        for mode in [WireMode::Raw, WireMode::Compressed] {
            group.bench_with_input(BenchmarkId::new(mode.name(), n), &metas, |b, metas| {
                let mut codec = WireCodec::new(mode, Some(reg.clone()));
                let mut k = 0usize;
                b.iter(|| {
                    let out = codec.encode_fanout(sender, &recipients, &metas[k % metas.len()]);
                    k += 1;
                    black_box(out)
                });
            });
        }
    }
    group.finish();
}

/// Per-pair encode on a ring — the sparse case where every pair stream
/// is distinct and delta frames are tiny.
fn bench_ring_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_pair");
    group.sample_size(20);
    let g = topology::ring(12);
    let reg = registry(&g);
    let (s, r) = (ReplicaId::new(0), ReplicaId::new(1));
    let metas = advancing_metas(&reg, s, 64);
    for mode in [WireMode::Raw, WireMode::Compressed] {
        group.bench_with_input(BenchmarkId::new(mode.name(), 12), &metas, |b, metas| {
            let mut codec = WireCodec::new(mode, Some(reg.clone()));
            let mut k = 0usize;
            b.iter(|| {
                let out = codec.encode(s, r, &metas[k % metas.len()]);
                k += 1;
                black_box(out)
            });
        });
    }
    group.finish();
}

/// The raw frame primitive: one varint/zigzag delta pass over a dense
/// layout, no codec bookkeeping around it.
fn bench_frame_primitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_frame");
    group.sample_size(20);
    let g = topology::clique_full(24, 2);
    let reg = registry(&g);
    let (s, r) = (ReplicaId::new(0), ReplicaId::new(1));
    let layout = reg.wire_layout(r, s);
    let mut ts = reg.new_timestamp(s);
    for k in 0..64 {
        reg.advance(&mut ts, RegisterId::new(k % 2));
    }
    let full = ts.values().to_vec();
    let slice = layout.project(&full);
    group.bench_function("encode_frame/clique24", |b| {
        let mut enc = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            enc.encode(&layout, black_box(&slice), &mut buf);
            black_box(buf.len())
        });
    });
    group.bench_function("project/clique24", |b| {
        b.iter(|| black_box(layout.project(black_box(&full))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clique_fanout,
    bench_ring_pair,
    bench_frame_primitive
);
criterion_main!(benches);
