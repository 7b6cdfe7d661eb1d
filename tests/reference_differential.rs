//! The production replicas against the reference model of the
//! `prcc-spec` crate (see `crates/core/tests/reference/mod.rs`).
//!
//! * A few seeds of the replica-level differential — the same writes
//!   and arrival sequence into a `System` and the reference, identical
//!   apply sequence, stores and pending counts, no more predicate
//!   evaluations than the reference's `J` count — on a ring, a binary
//!   tree and a clique. `prcc-core`'s `differential.rs` runs the full
//!   property.
//! * One cluster-level run each for a `System` and a `ThreadedCluster`:
//!   one writer per register, as `netrun` drives, so the final stores,
//!   frontiers, `covers` grids and verdicts must equal the reference's.

#[path = "../crates/core/tests/reference/mod.rs"]
mod reference;

use prcc::core::{System, ThreadedCluster, TrackerKind, WireMode};
use prcc::net::DelayModel;
use prcc::sharegraph::{topology, LoopConfig, ShareGraph};
use prcc::sim::netrun::NetWorkload;
use reference::Observed;

#[test]
fn replicas_match_the_reference_on_ring_tree_and_clique() {
    let exact = TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE);
    for g in [
        topology::ring(5),
        topology::binary_tree(6),
        topology::clique_full(4, 2),
    ] {
        for seed in 0..4 {
            reference::replay(&g, exact, WireMode::Compressed, seed);
            reference::replay(&g, exact, WireMode::Raw, seed);
        }
        reference::replay(&g, TrackerKind::VectorClock, WireMode::default(), 7);
        reference::replay(&g, TrackerKind::FullDeps, WireMode::default(), 7);
    }
}

/// The reference's final state for the single-writer workload of
/// `rounds` rounds, and the grid bound for `covers`.
fn reference_of(g: &ShareGraph, rounds: u64) -> (Observed, u64) {
    let (spec, max_seq) =
        reference::single_writer_reference(g, NetWorkload::new(g, rounds).writes());
    let observed = Observed::of_spec(&spec, g, max_seq);
    assert!(observed.consistent, "reference trace inconsistent");
    (observed, max_seq)
}

#[test]
fn system_final_state_matches_the_reference() {
    let g = topology::grid(3, 3);
    let mut sys = System::builder(g.clone())
        .delay(DelayModel::Uniform { min: 1, max: 200 })
        .seed(5)
        .build();
    for (r, x, v) in NetWorkload::new(&g, 3).writes() {
        sys.write(r, x, v);
        sys.step();
    }
    sys.run_to_quiescence();
    let (want, max_seq) = reference_of(&g, 3);
    assert_eq!(Observed::of_system(&sys, &g, max_seq), want);
}

#[test]
fn threaded_cluster_final_state_matches_the_reference() {
    let g = topology::ring(5);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(1), 9);
    NetWorkload::new(&g, 3).drive(&cluster);
    cluster.settle();
    let (want, max_seq) = reference_of(&g, 3);
    let observed = Observed::of_cluster(&cluster, &g, max_seq);
    cluster.shutdown();
    assert_eq!(observed, want);
}
