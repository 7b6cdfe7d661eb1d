//! The share graph (Definition 3 of the paper).
//!
//! Vertices are replicas; directed edges `e_ij`, `e_ji` exist iff
//! `X_ij = X_i ∩ X_j ≠ ∅`. The graph is derived from a [`Placement`] and
//! caches adjacency and per-edge register sets, since every downstream
//! computation (loops, timestamp graphs, hoops) queries them heavily.

use crate::ids::{EdgeId, ReplicaId};
use crate::placement::Placement;
use crate::regset::RegSet;
use std::collections::HashMap;

/// Share graph `G = (V, E)` of a placement (Definition 3).
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{Placement, ShareGraph, ReplicaId, edge};
/// let p = Placement::builder(3)
///     .share(0, [0, 1])
///     .share(1, [1, 2])
///     .build();
/// let g = ShareGraph::new(p);
/// assert!(g.has_edge(edge(0, 1)));
/// assert!(g.has_edge(edge(1, 0))); // edges come in pairs
/// assert!(!g.has_edge(edge(0, 2)));
/// assert_eq!(g.neighbors(ReplicaId::new(1)).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ShareGraph {
    placement: Placement,
    /// Sorted neighbor list per replica.
    adj: Vec<Vec<ReplicaId>>,
    /// Register set per directed edge; both directions share the set.
    edge_regs: HashMap<EdgeId, RegSet>,
    /// All directed edges, sorted.
    edges: Vec<EdgeId>,
}

impl ShareGraph {
    /// Builds the share graph of `placement`.
    pub fn new(placement: Placement) -> Self {
        let r = placement.num_replicas();
        let mut adj = vec![Vec::new(); r];
        let mut edge_regs = HashMap::new();
        let mut edges = Vec::new();
        for a in 0..r {
            for b in (a + 1)..r {
                let (ia, ib) = (ReplicaId::new(a as u32), ReplicaId::new(b as u32));
                let shared = placement.shared(ia, ib);
                if !shared.is_empty() {
                    adj[a].push(ib);
                    adj[b].push(ia);
                    edges.push(EdgeId::new(ia, ib));
                    edges.push(EdgeId::new(ib, ia));
                    edge_regs.insert(EdgeId::new(ia, ib), shared.clone());
                    edge_regs.insert(EdgeId::new(ib, ia), shared);
                }
            }
        }
        edges.sort();
        ShareGraph {
            placement,
            adj,
            edge_regs,
            edges,
        }
    }

    /// The placement the graph was derived from.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of replicas (vertices).
    pub fn num_replicas(&self) -> usize {
        self.adj.len()
    }

    /// All replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.adj.len() as u32).map(ReplicaId::new)
    }

    /// Sorted neighbors of `i` in the share graph.
    pub fn neighbors(&self, i: ReplicaId) -> &[ReplicaId] {
        &self.adj[i.index()]
    }

    /// Degree of `i` (the `N_i` of the paper's tree lower bound).
    pub fn degree(&self, i: ReplicaId) -> usize {
        self.adj[i.index()].len()
    }

    /// True if directed edge `e` is in `E`.
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edge_regs.contains_key(&e)
    }

    /// Registers shared along edge `e` (`X_jk` for `e = e_jk`); empty if the
    /// edge does not exist.
    pub fn edge_registers(&self, e: EdgeId) -> &RegSet {
        static EMPTY: std::sync::OnceLock<RegSet> = std::sync::OnceLock::new();
        self.edge_regs
            .get(&e)
            .unwrap_or_else(|| EMPTY.get_or_init(RegSet::new))
    }

    /// All directed edges, sorted. Always even in count (paired directions).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of *undirected* edges.
    pub fn num_undirected_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// True if the share graph is connected (isolated replicas make it
    /// disconnected unless `R <= 1`). Replicas with no registers count as
    /// isolated vertices.
    pub fn is_connected(&self) -> bool {
        let r = self.num_replicas();
        if r <= 1 {
            return true;
        }
        let mut seen = vec![false; r];
        let mut stack = vec![ReplicaId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;

    fn ring(n: usize) -> ShareGraph {
        let mut b = Placement::builder(n);
        for i in 0..n {
            let j = (i + 1) % n;
            b = b.share(i as u32, [i as u32, j as u32]);
        }
        ShareGraph::new(b.build())
    }

    #[test]
    fn edges_are_paired() {
        let g = ring(5);
        assert_eq!(g.edges().len(), 10);
        assert_eq!(g.num_undirected_edges(), 5);
        for &e in g.edges() {
            assert!(g.has_edge(e.reversed()));
            assert_eq!(g.edge_registers(e), g.edge_registers(e.reversed()));
        }
    }

    #[test]
    fn neighbors_and_degree() {
        let g = ring(4);
        assert_eq!(g.degree(ReplicaId::new(0)), 2);
        assert_eq!(
            g.neighbors(ReplicaId::new(0)),
            &[ReplicaId::new(1), ReplicaId::new(3)]
        );
    }

    #[test]
    fn missing_edge_has_empty_registers() {
        let g = ring(5);
        assert!(!g.has_edge(edge(0, 2)));
        assert!(g.edge_registers(edge(0, 2)).is_empty());
    }

    #[test]
    fn connectivity() {
        assert!(ring(6).is_connected());
        let disconnected = ShareGraph::new(
            Placement::builder(4)
                .share(0, [0, 1])
                .share(1, [2, 3])
                .build(),
        );
        assert!(!disconnected.is_connected());
        let single = ShareGraph::new(Placement::builder(1).build());
        assert!(single.is_connected());
    }

    #[test]
    fn isolated_replica_without_registers() {
        let g = ShareGraph::new(Placement::builder(3).share(0, [0, 1]).build());
        assert_eq!(g.degree(ReplicaId::new(2)), 0);
        assert!(!g.is_connected());
    }
}
