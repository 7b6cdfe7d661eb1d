//! Layout-cache invariance: the `PairLayout`s cached (and structurally
//! deduplicated) at `TsRegistry` construction must be indistinguishable
//! from layouts freshly re-derived from the share graph — identical
//! explicit/derived partitions, identical projections, and byte-identical
//! frame sequences under real `advance` workloads.

use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_timestamp::{DeltaStream, TsRegistry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_topology(sel: usize, n: usize) -> ShareGraph {
    match sel % 3 {
        0 => topology::ring(n),
        1 => topology::binary_tree(n),
        _ => topology::clique_full(n, 2),
    }
}

/// Checks every ordered pair of `g`: cached layout ≡ fresh derivation,
/// on structure and on the frames of a seeded write sequence.
fn assert_cache_invariant(g: &ShareGraph, seed: u64) {
    let reg = TsRegistry::new(g, TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE));
    let mut rng = StdRng::seed_from_u64(seed);
    for sender in g.replicas() {
        // One advancing timestamp per sender, shared across receivers so
        // distinct pairs see the same counter history.
        let mut ts = reg.new_timestamp(sender);
        let regs: Vec<RegisterId> = g.placement().registers_of(sender).iter().collect();
        let mut frames = Vec::new();
        for _ in 0..4 {
            for _ in 0..rng.gen_range(1usize..5) {
                reg.advance(&mut ts, regs[rng.gen_range(0..regs.len())]);
            }
            frames.push(ts.values().to_vec());
        }
        for receiver in g.replicas() {
            if receiver == sender {
                continue;
            }
            let cached = reg.wire_layout(receiver, sender);
            let fresh = reg.derive_wire_layout(g, receiver, sender);

            // Identical partitions, element for element.
            assert_eq!(cached.sender_positions(), fresh.sender_positions());
            assert_eq!(cached.explicit_indices(), fresh.explicit_indices());
            assert_eq!(cached.derived_rows(), fresh.derived_rows());
            assert_eq!(*cached, fresh);

            // Byte-identical frame streams and identical decodes.
            let mut enc_c = DeltaStream::new(&cached);
            let mut enc_f = DeltaStream::new(&fresh);
            let mut dec = DeltaStream::new(&fresh);
            for full in &frames {
                let (mut buf_c, mut buf_f) = (Vec::new(), Vec::new());
                enc_c.encode(&cached, &cached.project(full), &mut buf_c);
                enc_f.encode(&fresh, &fresh.project(full), &mut buf_f);
                assert_eq!(buf_c, buf_f, "frame bytes differ for {sender}->{receiver}");
                assert_eq!(
                    dec.decode(&fresh, &buf_c),
                    Ok(fresh.project(full)),
                    "cached frame must decode to the fresh layout's projection"
                );
            }
        }
    }
}

proptest! {
    /// Ring / tree / clique, all sizes: the cache (with its structural
    /// Arc-dedup) never changes what goes on the wire.
    #[test]
    fn cached_layouts_match_fresh_derivations(
        topo in 0usize..3,
        n in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        assert_cache_invariant(&build_topology(topo, n), seed);
    }
}

#[test]
fn clique_layouts_share_one_allocation_per_sender() {
    // Full replication: for a fixed sender, every receiver's layout is
    // the same (same common slice, same derived rows over the sender's
    // own edges), and the dedup at construction must collapse them into
    // a single `Arc` — the property the encode-once fan-out's pointer
    // grouping relies on. Layouts of *different* senders differ (their
    // own edges sit at different slice positions) and must not merge.
    let g = topology::clique_full(6, 2);
    let reg = TsRegistry::new(&g, TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE));
    for s in g.replicas() {
        let first = reg.wire_layout(
            if s.index() == 0 {
                ReplicaId::new(1)
            } else {
                ReplicaId::new(0)
            },
            s,
        );
        for r in g.replicas() {
            if s == r {
                continue;
            }
            let l = reg.wire_layout(r, s);
            assert_eq!(*l, *first);
            assert!(
                std::sync::Arc::ptr_eq(&l, &first),
                "one sender's clique layouts must be deduplicated into one Arc"
            );
        }
    }
    let a = reg.wire_layout(ReplicaId::new(2), ReplicaId::new(0));
    let b = reg.wire_layout(ReplicaId::new(2), ReplicaId::new(1));
    assert_ne!(*a, *b, "different senders' layouts must stay distinct");
}
