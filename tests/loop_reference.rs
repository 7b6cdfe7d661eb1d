//! The loop search against the literal Definitions 4 and 27 of the
//! `prcc-spec` crate (`prcc_spec::loops`), which lists every simple
//! cycle through `i` that crosses `e_jk` and checks conditions (i)–(iii)
//! on each.
//!
//! On random placements of 3 to 6 replicas, for every replica `i` and
//! every edge `e_jk` away from it, the search and the reference must
//! agree on whether a loop exists:
//!
//! * `exists_loop` and `find_loop` without clients, exhaustively and
//!   under every loop-length bound;
//! * `find_loop` with a random assignment of 1 to 3 clients,
//!   `AugmentedShareGraph::exists_augmented_loop`, and the augmented
//!   timestamp graph `Ĝ_i` built from them.
//!
//! Every witness `find_loop` returns must be a loop by the reference's
//! definition.

use prcc::sharegraph::topology::{self, RandomPlacementConfig};
use prcc::sharegraph::{
    exists_loop, find_loop, AugmentedShareGraph, ClientAssignment, ClientId, LoopConfig, ReplicaId,
    ShareGraph,
};
use prcc_spec::loops::{self as reference, Loop};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn placement(seed: u64) -> ShareGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    topology::random_placement(RandomPlacementConfig {
        replicas: rng.gen_range(3..7),
        registers: rng.gen_range(2..9),
        replication_factor: rng.gen_range(2..4),
        seed,
    })
}

/// 1 to 3 clients, each on 1 to 3 distinct replicas.
fn assignment(seed: u64, replicas: usize) -> ClientAssignment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut a = ClientAssignment::new(replicas);
    for c in 0..rng.gen_range(1..4u32) {
        let mut set = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let r = ReplicaId::new(rng.gen_range(0..replicas as u32));
            if !set.contains(&r) {
                set.push(r);
            }
        }
        a.assign(ClientId::new(c), set);
    }
    a
}

/// Asserts that `find_loop` finds a loop exactly when the reference
/// lists one, and that its witness is one of the reference's loops.
fn assert_search_agrees(g: &ShareGraph, clients: Option<&ClientAssignment>, what: &str) {
    for i in g.replicas() {
        for &e in g.edges() {
            if e.touches(i) {
                continue;
            }
            let all = reference::loops(g, clients, i, e);
            let found = find_loop(g, i, e, LoopConfig::EXHAUSTIVE, clients);
            assert_eq!(
                found.is_some(),
                !all.is_empty(),
                "{what}: ({i}, {e})-loop; reference lists {all:?}"
            );
            if let Some(w) = found {
                let lp = Loop {
                    left: w.left.clone(),
                    right: w.right.clone(),
                };
                assert!(
                    reference::is_loop(g, clients, i, e, &lp),
                    "{what}: witness {w:?} is no loop"
                );
                assert!(all.contains(&lp), "{what}: witness {w:?} not listed");
            }
        }
    }
}

#[test]
fn plain_search_matches_definition_4() {
    for seed in 0..300 {
        let g = placement(seed);
        assert_search_agrees(&g, None, &format!("seed {seed}"));
        for i in g.replicas() {
            for &e in g.edges() {
                if e.touches(i) {
                    continue;
                }
                let all = reference::loops(&g, None, i, e);
                assert_eq!(
                    exists_loop(&g, i, e, LoopConfig::EXHAUSTIVE),
                    !all.is_empty(),
                    "seed {seed}: exists_loop({i}, {e})"
                );
                if let Some(w) = find_loop(&g, i, e, LoopConfig::EXHAUSTIVE, None) {
                    assert!(w.verify(&g), "seed {seed}: {w:?} fails verify");
                }
                for cap in 3..=g.num_replicas() {
                    assert_eq!(
                        exists_loop(&g, i, e, LoopConfig::bounded(cap)),
                        all.iter().any(|lp| lp.num_edges() <= cap),
                        "seed {seed}: ({i}, {e})-loop of at most {cap} edges"
                    );
                }
            }
        }
    }
}

#[test]
fn augmented_search_matches_definition_27() {
    for seed in 0..300 {
        let g = placement(seed);
        let clients = assignment(seed, g.num_replicas());
        assert_search_agrees(&g, Some(&clients), &format!("seed {seed}, {clients:?}"));
        let aug = AugmentedShareGraph::new(g.clone(), clients.clone());
        for i in g.replicas() {
            let mut tracked = Vec::new();
            for &e in g.edges() {
                if e.touches(i) {
                    tracked.push(e);
                    continue;
                }
                let exists = !reference::loops(&g, Some(&clients), i, e).is_empty();
                assert_eq!(
                    aug.exists_augmented_loop(i, e),
                    exists,
                    "seed {seed}: augmented ({i}, {e})-loop under {clients:?}"
                );
                if exists {
                    tracked.push(e);
                }
            }
            assert_eq!(
                aug.augmented_timestamp_graph(i).edges(),
                &tracked[..],
                "seed {seed}: Ĝ_{i} under {clients:?}"
            );
        }
    }
}
