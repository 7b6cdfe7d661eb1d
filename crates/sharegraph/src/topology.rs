//! Share-graph topology generators used by tests, examples, and the
//! experiment harness (E4, E10).
//!
//! Each generator returns a [`ShareGraph`] whose *shape* matches a case the
//! paper analyses: trees (timestamp = `2·N_i` counters), cycles (`2n`
//! counters), cliques (full replication; compressible to an `R`-vector),
//! plus random placements for workload experiments.

use crate::graph::ShareGraph;
use crate::placement::{Placement, PlacementBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Path of `n` replicas: replica `i` shares register `i` with `i+1` only.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> ShareGraph {
    assert!(n > 0, "need at least one replica");
    let mut b = Placement::builder(n);
    for i in 0..n.saturating_sub(1) {
        b = b.share(i as u32, [i as u32, i as u32 + 1]);
    }
    ShareGraph::new(b.build())
}

/// Ring of `n` replicas with a *distinct* register per adjacent pair — the
/// Figure 13 topology. Every replica ends up tracking all `2n` directed
/// edges.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> ShareGraph {
    assert!(n >= 3, "a ring needs at least 3 replicas");
    let mut b = Placement::builder(n);
    for i in 0..n {
        b = b.share(i as u32, [i as u32, ((i + 1) % n) as u32]);
    }
    ShareGraph::new(b.build())
}

/// Star with `leaves` leaves: hub is replica 0, register `i-1` shared by
/// the hub and leaf `i`.
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star(leaves: usize) -> ShareGraph {
    assert!(leaves > 0, "need at least one leaf");
    let mut b = Placement::builder(leaves + 1);
    for i in 1..=leaves {
        b = b.share((i - 1) as u32, [0, i as u32]);
    }
    ShareGraph::new(b.build())
}

/// Balanced binary tree with `n` replicas (heap layout): node `i` shares a
/// distinct register with each child `2i+1`, `2i+2`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> ShareGraph {
    assert!(n > 0, "need at least one replica");
    let mut b = Placement::builder(n);
    let mut reg = 0u32;
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                b = b.share(reg, [i as u32, child as u32]);
                reg += 1;
            }
        }
    }
    ShareGraph::new(b.build())
}

/// Full replication: every one of `n` replicas stores all `registers`
/// registers. The share graph is a clique where every edge carries every
/// register.
///
/// # Panics
///
/// Panics if `n == 0` or `registers == 0`.
pub fn clique_full(n: usize, registers: usize) -> ShareGraph {
    assert!(n > 0 && registers > 0);
    let mut b = Placement::builder(n);
    for r in 0..n {
        b = b.store_all(r as u32, 0..registers as u32);
    }
    ShareGraph::new(b.build())
}

/// 2-D grid of `w × h` replicas; each horizontally/vertically adjacent
/// pair shares a distinct register.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> ShareGraph {
    assert!(w > 0 && h > 0);
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut b = Placement::builder(w * h);
    let mut reg = 0u32;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b = b.share(reg, [id(x, y), id(x + 1, y)]);
                reg += 1;
            }
            if y + 1 < h {
                b = b.share(reg, [id(x, y), id(x, y + 1)]);
                reg += 1;
            }
        }
    }
    ShareGraph::new(b.build())
}

/// The Appendix D compression example: replica `j` (id 0) shares `x` with
/// replica 1, `y` with replica 2, `z` with replica 3, and `{x, y, z}` with
/// replica 4. The edge to replica 4 is the sum of the other three — the
/// canonical linearly-dependent placement.
pub fn nested_example() -> ShareGraph {
    ShareGraph::new(
        Placement::builder(5)
            .share(0, [0, 1, 4]) // x at j, r1, r4
            .share(1, [0, 2, 4]) // y at j, r2, r4
            .share(2, [0, 3, 4]) // z at j, r3, r4
            .build(),
    )
}

/// Parameters for [`random_placement`].
#[derive(Debug, Clone, Copy)]
pub struct RandomPlacementConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Number of registers.
    pub registers: usize,
    /// Copies of each register (replication factor); clamped to
    /// `1..=replicas`.
    pub replication_factor: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

/// Random placement: each register is stored at `replication_factor`
/// replicas chosen uniformly at random. Used for E10's partial-replication
/// workloads. The result may be disconnected; callers that need
/// connectivity should check [`ShareGraph::is_connected`] or use
/// [`random_connected_placement`].
pub fn random_placement(cfg: RandomPlacementConfig) -> ShareGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.replication_factor.clamp(1, cfg.replicas);
    let mut b = Placement::builder(cfg.replicas);
    let all: Vec<u32> = (0..cfg.replicas as u32).collect();
    for x in 0..cfg.registers as u32 {
        let holders: Vec<u32> = all.choose_multiple(&mut rng, k).copied().collect();
        b = b.share(x, holders);
    }
    ShareGraph::new(b.build())
}

/// Like [`random_placement`] but guarantees a connected share graph by
/// first laying a random spanning-path of "link" registers and then adding
/// the random registers on top.
pub fn random_connected_placement(cfg: RandomPlacementConfig) -> ShareGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.replication_factor.clamp(1, cfg.replicas);
    let mut order: Vec<u32> = (0..cfg.replicas as u32).collect();
    order.shuffle(&mut rng);
    let mut b = Placement::builder(cfg.replicas);
    for (next_reg, w) in (cfg.registers as u32..).zip(order.windows(2)) {
        b = b.share(next_reg, [w[0], w[1]]);
    }
    let all: Vec<u32> = (0..cfg.replicas as u32).collect();
    for x in 0..cfg.registers as u32 {
        let holders: Vec<u32> = all.choose_multiple(&mut rng, k).copied().collect();
        b = b.share(x, holders);
    }
    ShareGraph::new(b.build())
}

/// A "geo" placement mimicking the paper's motivation: `dcs` datacenters
/// arranged in a ring; each datacenter has `local` private registers plus
/// one register shared with each ring neighbor, and `global` registers
/// replicated everywhere.
pub fn geo_placement(dcs: usize, local: usize, global: usize, seed: u64) -> ShareGraph {
    assert!(dcs >= 3);
    let _rng = StdRng::seed_from_u64(seed); // reserved for future jitter
    let mut b: PlacementBuilder = Placement::builder(dcs);
    let mut reg = 0u32;
    // Ring-shared registers.
    for i in 0..dcs {
        b = b.share(reg, [i as u32, ((i + 1) % dcs) as u32]);
        reg += 1;
    }
    // Local registers.
    for i in 0..dcs {
        for _ in 0..local {
            b = b.share(reg, [i as u32]);
            reg += 1;
        }
    }
    // Global registers.
    for _ in 0..global {
        b = b.share(reg, 0..dcs as u32);
        reg += 1;
    }
    ShareGraph::new(b.build())
}

/// `d`-dimensional hypercube: `2^d` replicas; replicas differing in one
/// bit share a distinct register.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 16`.
pub fn hypercube(d: usize) -> ShareGraph {
    assert!(d > 0 && d <= 16, "dimension out of range");
    let n = 1usize << d;
    let mut b = Placement::builder(n);
    let mut reg = 0u32;
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                b = b.share(reg, [v as u32, w as u32]);
                reg += 1;
            }
        }
    }
    ShareGraph::new(b.build())
}

/// 2-D torus of `w × h` replicas (grid plus wraparound edges), one
/// distinct register per adjacent pair.
///
/// # Panics
///
/// Panics if `w < 3 || h < 3` (smaller sizes create duplicate edges).
pub fn torus(w: usize, h: usize) -> ShareGraph {
    assert!(w >= 3 && h >= 3, "torus needs at least 3x3");
    let id = |x: usize, y: usize| ((y % h) * w + (x % w)) as u32;
    let mut b = Placement::builder(w * h);
    let mut reg = 0u32;
    for y in 0..h {
        for x in 0..w {
            b = b.share(reg, [id(x, y), id(x + 1, y)]);
            reg += 1;
            b = b.share(reg, [id(x, y), id(x, y + 1)]);
            reg += 1;
        }
    }
    ShareGraph::new(b.build())
}

/// Community structure: `communities` cliques of `size` replicas (every
/// intra-community pair shares a register) joined in a ring by one
/// bridge register per adjacent community pair — models federated
/// deployments with dense local sharing and sparse global links.
///
/// # Panics
///
/// Panics if `communities < 2 || size < 2`.
pub fn communities(communities: usize, size: usize) -> ShareGraph {
    assert!(communities >= 2 && size >= 2);
    let n = communities * size;
    let mut b = Placement::builder(n);
    let mut reg = 0u32;
    for c in 0..communities {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                b = b.share(reg, [(base + i) as u32, (base + j) as u32]);
                reg += 1;
            }
        }
    }
    // Ring of bridges between last member of c and first member of c+1.
    for c in 0..communities {
        let from = c * size + size - 1;
        let to = ((c + 1) % communities) * size;
        b = b.share(reg, [from as u32, to as u32]);
        reg += 1;
    }
    ShareGraph::new(b.build())
}

/// Parses a command-line topology spec — `ring:<n>`, `path:<n>`,
/// `star:<leaves>`, `tree:<n>`, `grid:<w>x<h>`, `clique:<n>x<registers>`,
/// `geo:<dcs>`, or one of the paper's `fig3`, `fig5`, `fig8a`, `fig8b` —
/// into its share graph. The one parser behind `prcc` and `prcc-node`.
///
/// # Errors
///
/// A one-line message naming the spec when the kind is unknown, a
/// numeric field does not parse, or a two-field kind lacks its `x`.
pub fn parse(spec: &str) -> Result<ShareGraph, String> {
    use crate::paper_examples as paper;
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let num = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad numeric argument '{s}' in topology '{spec}'"))
    };
    let pair = |shape: &str| {
        arg.split_once('x')
            .ok_or_else(|| format!("topology '{spec}' needs {kind}:{shape}"))
    };
    Ok(match kind {
        "ring" => ring(num(arg)?),
        "path" => path(num(arg)?),
        "star" => star(num(arg)?),
        "tree" => binary_tree(num(arg)?),
        "grid" => {
            let (w, h) = pair("<w>x<h>")?;
            grid(num(w)?, num(h)?)
        }
        "clique" => {
            let (n, r) = pair("<n>x<registers>")?;
            clique_full(num(n)?, num(r)?)
        }
        "geo" => geo_placement(num(arg)?, 3, 1, 0),
        "fig3" => paper::figure3(),
        "fig5" => paper::figure5(),
        "fig8a" => paper::figure8a(),
        "fig8b" => paper::figure8b(),
        _ => return Err(format!("unknown topology '{spec}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReplicaId;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_undirected_edges(), 4);
        assert!(g.is_connected());
        assert_eq!(g.degree(ReplicaId::new(0)), 1);
        assert_eq!(g.degree(ReplicaId::new(2)), 2);
    }

    #[test]
    fn single_replica_path() {
        let g = path(1);
        assert_eq!(g.num_undirected_edges(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert_eq!(g.num_undirected_edges(), 6);
        for r in g.replicas() {
            assert_eq!(g.degree(r), 2);
        }
    }

    #[test]
    fn star_shape() {
        let g = star(4);
        assert_eq!(g.degree(ReplicaId::new(0)), 4);
        assert_eq!(g.num_undirected_edges(), 4);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.num_undirected_edges(), 6);
        assert!(g.is_connected());
        assert_eq!(g.degree(ReplicaId::new(0)), 2);
        assert_eq!(g.degree(ReplicaId::new(1)), 3);
        assert_eq!(g.degree(ReplicaId::new(6)), 1);
    }

    #[test]
    fn clique_is_full_replication() {
        let g = clique_full(4, 3);
        assert!(g.placement().is_full_replication());
        assert_eq!(g.num_undirected_edges(), 6);
        for &e in g.edges() {
            assert_eq!(g.edge_registers(e).len(), 3);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 2);
        assert_eq!(g.num_replicas(), 6);
        assert_eq!(g.num_undirected_edges(), 7); // 4 horizontal + 3 vertical
        assert!(g.is_connected());
    }

    #[test]
    fn nested_example_shares() {
        let g = nested_example();
        use crate::ids::edge;
        assert_eq!(g.edge_registers(edge(0, 1)).len(), 1);
        assert_eq!(g.edge_registers(edge(0, 4)).len(), 3);
    }

    #[test]
    fn random_placement_respects_factor() {
        let g = random_placement(RandomPlacementConfig {
            replicas: 10,
            registers: 30,
            replication_factor: 3,
            seed: 42,
        });
        for x in 0..30u32 {
            assert_eq!(g.placement().holders(crate::RegisterId::new(x)).len(), 3);
        }
    }

    #[test]
    fn random_placement_is_deterministic() {
        let cfg = RandomPlacementConfig {
            replicas: 8,
            registers: 20,
            replication_factor: 2,
            seed: 7,
        };
        let a = random_placement(cfg);
        let b = random_placement(cfg);
        assert_eq!(a.placement(), b.placement());
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected_placement(RandomPlacementConfig {
                replicas: 12,
                registers: 10,
                replication_factor: 2,
                seed,
            });
            assert!(g.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3);
        assert_eq!(g.num_replicas(), 8);
        assert_eq!(g.num_undirected_edges(), 12);
        for r in g.replicas() {
            assert_eq!(g.degree(r), 3);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 4);
        assert_eq!(g.num_replicas(), 12);
        assert_eq!(g.num_undirected_edges(), 24);
        for r in g.replicas() {
            assert_eq!(g.degree(r), 4);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn communities_shape() {
        let g = communities(3, 3);
        assert_eq!(g.num_replicas(), 9);
        // 3 communities × C(3,2)=3 intra edges + 3 bridges = 12.
        assert_eq!(g.num_undirected_edges(), 12);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn torus_minimum_size() {
        let _ = torus(2, 3);
    }

    #[test]
    fn geo_placement_shape() {
        let g = geo_placement(4, 2, 1, 0);
        assert!(g.is_connected());
        // Global register makes the graph a clique.
        assert_eq!(g.num_undirected_edges(), 6);
        assert_eq!(g.placement().num_registers(), 4 + 8 + 1);
    }
}
