//! Differential testing of the pending-delivery scheduler and the wire
//! codec.
//!
//! The reference model of the `prcc-spec` crate (a flat pending list
//! re-scanned with `J` after every arrival and every apply) is the
//! oracle for the replicas' dependency-counting wakeup index: a
//! [`System`] and the reference, fed the same writes and the same
//! arrival sequence at every replica, must record the same applied
//! event sequence, end with the same stores and pending counts and the
//! same checker verdict — while the replicas evaluate their predicate
//! at most as often as the reference evaluates `J` (see
//! `reference/mod.rs`).
//!
//! Analogously, [`WireMode::Raw`] (full timestamps on the wire) is the
//! oracle for [`WireMode::Compressed`]: the per-pair projected,
//! derived-row-compressed, delta-framed metadata must produce the same
//! traces, stores, and checker verdicts while never putting more metadata
//! bytes on the wire.
//!
//! Each property runs 100 deterministic cases by default
//! (`PROPTEST_CASES` overrides) over ring / binary-tree / clique share
//! graphs with adversarial `Uniform{1,200}` delivery delays.

mod reference;

use prcc_core::{System, TrackerKind, Value, WireMode};
use prcc_net::DelayModel;
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
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

/// One deterministic run: a seeded write/step interleaving over `g`.
fn run_wire(g: &ShareGraph, tracker: TrackerKind, wire: WireMode, seed: u64) -> System {
    let mut sys = System::builder(g.clone())
        .tracker(tracker)
        .wire_mode(wire)
        .delay(DelayModel::Uniform { min: 1, max: 200 })
        .seed(seed)
        .build();
    // The workload RNG is shared by construction (same seed both runs):
    // interleave writes with partial network steps so pending buffers
    // actually fill up before each drain.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let n = g.num_replicas();
    let writes = 4 * n as u64;
    for w in 0..writes {
        let r = ReplicaId::new(rng.gen_range(0..n as u32));
        let regs: Vec<RegisterId> = g.placement().registers_of(r).iter().collect();
        let x = regs[rng.gen_range(0..regs.len())];
        sys.write(r, x, Value::from(w));
        for _ in 0..rng.gen_range(0usize..4) {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    sys
}

/// Asserts that the compressed wire mode yields the same observable
/// execution as the raw oracle, and that its wire bytes never exceed raw's.
fn assert_wire_equivalent(g: &ShareGraph, tracker: TrackerKind, seed: u64) {
    let raw = run_wire(g, tracker, WireMode::Raw, seed);
    let comp = run_wire(g, tracker, WireMode::Compressed, seed);

    // Identical event (issue + apply) sequences.
    prop_assert_eq!(raw.trace().events(), comp.trace().events());
    // Identical stores and pending buffers at every replica.
    for i in g.replicas() {
        for x in g.placement().registers_of(i).iter() {
            prop_assert_eq!(
                raw.read(i, x),
                comp.read(i, x),
                "store mismatch at {:?} register {:?}",
                i,
                x
            );
        }
        prop_assert_eq!(
            raw.replica(i).pending_count(),
            comp.replica(i).pending_count()
        );
    }
    // Identical checker verdicts.
    let (rr, cr) = (raw.check(), comp.check());
    prop_assert_eq!(rr.violations, cr.violations);
    prop_assert_eq!(raw.stuck_pending(), comp.stuck_pending());

    // Projection, derived-row elimination and delta framing can only
    // shrink metadata.
    let (rb, cb) = (raw.metrics().metadata_bytes, comp.metrics().metadata_bytes);
    prop_assert!(cb <= rb, "compressed {} > raw {}", cb, rb);
    // Registry-built layouts verify at construction: no run may demote.
    for sys in [&raw, &comp] {
        prop_assert_eq!(sys.codec_stats().demotions, 0);
    }
}

proptest! {
    /// Edge-indexed tracker across ring / tree / clique topologies.
    #[test]
    fn scan_and_wakeup_agree_edge_indexed(
        topo in 0usize..3,
        n in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        reference::replay(&g, tracker, WireMode::default(), seed);
    }

    /// The trait-default (BlockedUnknown) path: vector-clock tracker.
    #[test]
    fn scan_and_wakeup_agree_vector_clock(
        topo in 0usize..3,
        n in 3usize..7,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        reference::replay(&g, TrackerKind::VectorClock, WireMode::default(), seed);
    }

    /// The trait-default path with growing metadata: full dependency lists.
    #[test]
    fn scan_and_wakeup_agree_full_deps(
        topo in 0usize..3,
        n in 3usize..6,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        reference::replay(&g, TrackerKind::FullDeps, WireMode::default(), seed);
    }

    /// Wire-codec differential, edge-indexed tracker: raw vs compressed
    /// agree on every observable, across topologies.
    #[test]
    fn wire_modes_agree_edge_indexed(
        topo in 0usize..3,
        n in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        assert_wire_equivalent(&g, TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE), seed);
    }

    /// Wire-codec differential under the baselines: the codec must be a
    /// pure pass-through (their metadata is not edge-indexed), so both
    /// modes trivially agree — byte counts included.
    #[test]
    fn wire_modes_agree_baselines(
        topo in 0usize..3,
        n in 3usize..6,
        vc in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let tracker = if vc == 0 { TrackerKind::VectorClock } else { TrackerKind::FullDeps };
        assert_wire_equivalent(&g, tracker, seed);
    }

    /// Both axes at once: the wakeup pending index must stay equivalent to
    /// the reference when messages carry compressed frames — and when
    /// they carry raw timestamps.
    #[test]
    fn scan_and_wakeup_agree_under_compression(
        topo in 0usize..3,
        n in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        reference::replay(&g, tracker, WireMode::Compressed, seed);
        reference::replay(&g, tracker, WireMode::Raw, seed);
    }
}
