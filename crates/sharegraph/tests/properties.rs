//! Property-based tests for the share-graph machinery.

use prcc_sharegraph::{
    exists_loop, find_loop,
    topology::{self, RandomPlacementConfig},
    LoopConfig, Placement, RegSet, ShareGraph, TimestampGraph,
};
use proptest::prelude::*;

fn random_graph(seed: u64, replicas: usize, registers: usize, rf: usize) -> ShareGraph {
    topology::random_placement(RandomPlacementConfig {
        replicas,
        registers,
        replication_factor: rf,
        seed,
    })
}

proptest! {
    /// Every loop find_loop returns verifies against Definition 4, and
    /// find/exists agree.
    #[test]
    fn found_loops_verify(seed in 0u64..200) {
        let g = random_graph(seed, 6, 8, 2);
        for i in g.replicas() {
            for &e in g.edges() {
                if e.touches(i) {
                    continue;
                }
                let found = find_loop(&g, i, e, LoopConfig::EXHAUSTIVE, None);
                prop_assert_eq!(
                    found.is_some(),
                    exists_loop(&g, i, e, LoopConfig::EXHAUSTIVE)
                );
                if let Some(w) = found {
                    prop_assert!(w.verify(&g), "witness {:?} fails Def 4", w);
                    prop_assert_eq!(w.anchor, i);
                    prop_assert_eq!(w.edge, e);
                }
            }
        }
    }

    /// Share-graph edges always come in direction pairs with identical
    /// register sets, and edge registers are subsets of both endpoints.
    #[test]
    fn share_graph_structural(seed in 0u64..200) {
        let g = random_graph(seed, 7, 10, 3);
        for &e in g.edges() {
            prop_assert!(g.has_edge(e.reversed()));
            prop_assert_eq!(g.edge_registers(e), g.edge_registers(e.reversed()));
            let regs = g.edge_registers(e);
            prop_assert!(regs.is_subset(g.placement().registers_of(e.from)));
            prop_assert!(regs.is_subset(g.placement().registers_of(e.to)));
            prop_assert!(!regs.is_empty());
        }
    }

    /// Timestamp graphs: incident edges always included; every tracked
    /// far edge has a verifying loop witness; and removing the loop's
    /// certificate (building on a bounded config) never ADDS edges.
    #[test]
    fn timestamp_graph_sound_and_complete(seed in 0u64..100) {
        let g = random_graph(seed, 6, 7, 2);
        for i in g.replicas() {
            let tg = TimestampGraph::build(&g, i, LoopConfig::EXHAUSTIVE);
            for &e in g.edges() {
                let expected = e.touches(i) || exists_loop(&g, i, e, LoopConfig::EXHAUSTIVE);
                prop_assert_eq!(tg.contains(e), expected, "replica {} edge {}", i, e);
            }
        }
    }

    /// Full replication (clique, identical registers) ⇒ every replica
    /// tracks every directed edge.
    #[test]
    fn full_replication_tracks_everything(n in 3usize..6, regs in 1usize..4) {
        let g = topology::clique_full(n, regs);
        for i in g.replicas() {
            let tg = TimestampGraph::build(&g, i, LoopConfig::EXHAUSTIVE);
            prop_assert_eq!(tg.len(), n * (n - 1));
        }
    }

    /// Placement round-trip: building from sets preserves them.
    #[test]
    fn placement_round_trip(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..30, 0..10), 1..6)
    ) {
        let regsets: Vec<RegSet> = sets
            .iter()
            .map(|s| RegSet::from_indices(s.iter().copied()))
            .collect();
        let p = Placement::from_sets(regsets.clone());
        for (i, s) in regsets.iter().enumerate() {
            prop_assert_eq!(
                p.registers_of(prcc_sharegraph::ReplicaId::new(i as u32)),
                s
            );
        }
        // holders() is the transpose of registers_of().
        for x in 0..p.num_registers() as u32 {
            let reg = prcc_sharegraph::RegisterId::new(x);
            for &h in p.holders(reg) {
                prop_assert!(p.stores(h, reg));
            }
        }
    }

    /// Augmented graphs with no clients coincide with plain timestamp
    /// graphs on random placements.
    #[test]
    fn augmented_no_clients_is_identity(seed in 0u64..60) {
        use prcc_sharegraph::{AugmentedShareGraph, ClientAssignment};
        let g = random_graph(seed, 5, 6, 2);
        let plain: Vec<_> = g
            .replicas()
            .map(|i| TimestampGraph::build(&g, i, LoopConfig::EXHAUSTIVE))
            .collect();
        let aug = AugmentedShareGraph::new(
            g.clone(),
            ClientAssignment::new(g.num_replicas()),
        );
        for (i, p) in g.replicas().zip(plain) {
            let atg = aug.augmented_timestamp_graph(i);
            prop_assert_eq!(atg.edges(), p.edges());
        }
    }
}
