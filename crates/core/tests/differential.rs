//! Differential testing of the pending-delivery schedulers and the wire
//! codec.
//!
//! [`PendingMode::Scan`] (the obvious re-scan implementation) is the
//! oracle; [`PendingMode::Wakeup`] (the dependency-counting index) must be
//! observationally identical on every seeded execution: same applied
//! event sequence, same final stores, same checker verdict, same stuck
//! count — while evaluating the predicate at most as often.
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

use prcc_core::{PendingMode, System, TrackerKind, Value, WireMode};
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
/// Returns (system, total predicate evaluations).
fn run(g: &ShareGraph, tracker: TrackerKind, mode: PendingMode, seed: u64) -> (System, u64) {
    run_wire(g, tracker, mode, WireMode::default(), seed)
}

/// [`run`] with an explicit wire mode.
fn run_wire(
    g: &ShareGraph,
    tracker: TrackerKind,
    mode: PendingMode,
    wire: WireMode,
    seed: u64,
) -> (System, u64) {
    let mut sys = System::builder(g.clone())
        .tracker(tracker)
        .pending_mode(mode)
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
    let evals = (0..n)
        .map(|i| sys.replica(ReplicaId::new(i as u32)).predicate_evals())
        .sum();
    (sys, evals)
}

/// Asserts the two modes are observationally identical on one execution.
fn assert_equivalent(g: &ShareGraph, tracker: TrackerKind, seed: u64) {
    let (scan, scan_evals) = run(g, tracker, PendingMode::Scan, seed);
    let (wake, wake_evals) = run(g, tracker, PendingMode::Wakeup, seed);

    // Identical event (issue + apply) sequences.
    prop_assert_eq!(scan.trace().events(), wake.trace().events());

    // Identical stores at every replica.
    for i in g.replicas() {
        for x in g.placement().registers_of(i).iter() {
            prop_assert_eq!(
                scan.read(i, x),
                wake.read(i, x),
                "store mismatch at {:?} register {:?}",
                i,
                x
            );
        }
        prop_assert_eq!(
            scan.replica(i).pending_count(),
            wake.replica(i).pending_count()
        );
    }

    // Identical checker verdicts (violation lists included).
    let (sr, wr) = (scan.check(), wake.check());
    prop_assert_eq!(sr.violations, wr.violations);
    prop_assert_eq!(scan.stuck_pending(), wake.stuck_pending());

    // The index never evaluates the predicate more often than the scan.
    prop_assert!(
        wake_evals <= scan_evals,
        "wakeup did more predicate work: {} > {}",
        wake_evals,
        scan_evals
    );
}

/// Asserts that the compressed wire mode yields the same observable
/// execution as the raw oracle, and that its wire bytes never exceed raw's.
fn assert_wire_equivalent(g: &ShareGraph, tracker: TrackerKind, seed: u64) {
    let (raw, _) = run_wire(g, tracker, PendingMode::default(), WireMode::Raw, seed);
    let (comp, _) = run_wire(
        g,
        tracker,
        PendingMode::default(),
        WireMode::Compressed,
        seed,
    );

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
        prop_assert_eq!(sys.net_stats().codec_demotions, 0);
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
        assert_equivalent(&g, TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE), seed);
    }

    /// The trait-default (BlockedUnknown) path: vector-clock tracker.
    #[test]
    fn scan_and_wakeup_agree_vector_clock(
        topo in 0usize..3,
        n in 3usize..7,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        assert_equivalent(&g, TrackerKind::VectorClock, seed);
    }

    /// The trait-default path with growing metadata: full dependency lists.
    #[test]
    fn scan_and_wakeup_agree_full_deps(
        topo in 0usize..3,
        n in 3usize..6,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        assert_equivalent(&g, TrackerKind::FullDeps, seed);
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
    /// the scan oracle when messages carry compressed frames.
    #[test]
    fn scan_and_wakeup_agree_under_compression(
        topo in 0usize..3,
        n in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        let (scan, scan_evals) = run_wire(&g, tracker, PendingMode::Scan, WireMode::Compressed, seed);
        let (wake, wake_evals) = run_wire(&g, tracker, PendingMode::Wakeup, WireMode::Compressed, seed);
        prop_assert_eq!(scan.trace().events(), wake.trace().events());
        let (sr, wr) = (scan.check(), wake.check());
        prop_assert_eq!(sr.violations, wr.violations);
        prop_assert_eq!(scan.stuck_pending(), wake.stuck_pending());
        prop_assert!(wake_evals <= scan_evals);
    }
}
