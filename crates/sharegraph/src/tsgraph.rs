//! Timestamp graphs — Definition 5 of the paper.
//!
//! The timestamp graph `G_i = (V_i, E_i)` of replica `i` contains
//!
//! * every directed edge incident at `i` (both directions), and
//! * every directed edge `e_jk` (`j ≠ i ≠ k`) for which an
//!   `(i, e_jk)`-loop exists.
//!
//! `E_i` is exactly the set of edges replica `i` must keep a counter for
//! (necessary by Theorem 8, sufficient by the Section 3.3 algorithm).

use crate::augmented::ClientAssignment;
use crate::graph::ShareGraph;
use crate::ids::{EdgeId, ReplicaId};
use crate::loops::{find_loop, LoopConfig};

/// The timestamp graph of a single replica: the sorted edge set `E_i`.
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{paper_examples, TimestampGraph, ReplicaId, edge, LoopConfig};
/// let g = paper_examples::figure5();
/// let g1 = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
/// // Figure 5b: e_43 ∈ G_1 but e_34 ∉ G_1 (0-indexed: e(3,2) vs e(2,3)).
/// assert!(g1.contains(edge(3, 2)));
/// assert!(!g1.contains(edge(2, 3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampGraph {
    replica: ReplicaId,
    edges: Vec<EdgeId>,
}

impl TimestampGraph {
    /// Builds `G_i` for replica `i` by testing every candidate edge.
    ///
    /// A bounded [`LoopConfig`] yields the truncated graphs of Appendix D
    /// ("sacrificing causality"); incident edges are always included
    /// regardless of the bound.
    pub fn build(g: &ShareGraph, i: ReplicaId, config: LoopConfig) -> Self {
        Self::build_over(g, i, config, None)
    }

    /// [`build`](Self::build) over the augmented share graph when
    /// `clients` is given: the far edges are those with an augmented loop
    /// (Definition 28), and only share edges are ever tracked.
    pub(crate) fn build_over(
        g: &ShareGraph,
        i: ReplicaId,
        config: LoopConfig,
        clients: Option<&ClientAssignment>,
    ) -> Self {
        let edges = g
            .edges()
            .iter()
            .copied()
            .filter(|&e| e.touches(i) || find_loop(g, i, e, config, clients).is_some())
            .collect();
        TimestampGraph { replica: i, edges }
    }

    /// Creates a timestamp graph from an explicit edge list (used by the
    /// client-server augmented construction and by tests).
    pub fn from_edges(replica: ReplicaId, mut edges: Vec<EdgeId>) -> Self {
        edges.sort();
        edges.dedup();
        TimestampGraph { replica, edges }
    }

    /// The replica this graph belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The sorted edge set `E_i`.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges — the number of counters in replica `i`'s
    /// (uncompressed) timestamp vector.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if `E_i` is empty (an isolated replica).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// True if edge `e` is tracked.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// Position of `e` in the sorted edge list, if tracked. This is the
    /// index of the corresponding counter in the timestamp vector.
    pub fn position(&self, e: EdgeId) -> Option<usize> {
        self.edges.binary_search(&e).ok()
    }

    /// The vertices `V_i` mentioned by `E_i`, sorted.
    pub fn vertices(&self) -> Vec<ReplicaId> {
        let mut v: Vec<ReplicaId> = self.edges.iter().flat_map(|e| [e.from, e.to]).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Iterates over the tracked edges whose destination is `i` itself —
    /// the "incoming" edges checked by predicate `J`.
    pub fn incoming(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let me = self.replica;
        self.edges.iter().copied().filter(move |e| e.to == me)
    }

    /// Iterates over the tracked edges issued by `i` itself.
    pub fn outgoing(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let me = self.replica;
        self.edges.iter().copied().filter(move |e| e.from == me)
    }

    /// Sorted intersection `E_i ∩ E_k` with another timestamp graph — the
    /// index set over which `merge` takes a max.
    pub fn intersection(&self, other: &TimestampGraph) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let (mut a, mut b) = (0, 0);
        while a < self.edges.len() && b < other.edges.len() {
            match self.edges[a].cmp(&other.edges[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.edges[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        out
    }
}

/// Timestamp graphs for every replica of a share graph.
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{paper_examples, TimestampGraphs, LoopConfig};
/// let g = paper_examples::figure3();
/// let all = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
/// assert_eq!(all.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct TimestampGraphs {
    graphs: Vec<TimestampGraph>,
}

impl TimestampGraphs {
    /// Builds `G_i` for every replica.
    pub fn build(g: &ShareGraph, config: LoopConfig) -> Self {
        TimestampGraphs {
            graphs: g
                .replicas()
                .map(|i| TimestampGraph::build(g, i, config))
                .collect(),
        }
    }

    /// Wraps pre-built graphs (must be indexed by replica).
    pub fn from_graphs(graphs: Vec<TimestampGraph>) -> Self {
        for (idx, tg) in graphs.iter().enumerate() {
            assert_eq!(
                tg.replica().index(),
                idx,
                "graphs must be ordered by replica"
            );
        }
        TimestampGraphs { graphs }
    }

    /// The graph of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn of(&self, i: ReplicaId) -> &TimestampGraph {
        &self.graphs[i.index()]
    }

    /// Number of replicas covered.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True if no replicas are covered.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Iterates over all per-replica graphs.
    pub fn iter(&self) -> impl Iterator<Item = &TimestampGraph> {
        self.graphs.iter()
    }

    /// Total counters across all replicas — the system-wide metadata
    /// footprint compared in experiment E4.
    pub fn total_counters(&self) -> usize {
        self.graphs.iter().map(TimestampGraph::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::placement::Placement;

    fn ring(n: u32) -> ShareGraph {
        let mut b = Placement::builder(n as usize);
        for i in 0..n {
            b = b.share(i, [i, (i + 1) % n]);
        }
        ShareGraph::new(b.build())
    }

    fn star(n: u32) -> ShareGraph {
        // Hub replica 0 shares register i with leaf i (1..=n).
        let mut b = Placement::builder(n as usize + 1);
        for i in 1..=n {
            b = b.share(i - 1, [0, i]);
        }
        ShareGraph::new(b.build())
    }

    #[test]
    fn ring_replica_tracks_all_2n_edges() {
        // Section 4: cycle of n replicas ⇒ each timestamp has 2n counters.
        for n in [3u32, 4, 5, 6, 7] {
            let g = ring(n);
            let all = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
            for tg in all.iter() {
                assert_eq!(
                    tg.len(),
                    2 * n as usize,
                    "ring({n}), replica {}",
                    tg.replica()
                );
            }
        }
    }

    #[test]
    fn star_replica_tracks_only_incident_edges() {
        // A star is a tree: no loops, so E_i = incident edges = 2·N_i.
        let g = star(5);
        let all = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        assert_eq!(all.of(ReplicaId::new(0)).len(), 10); // hub: degree 5
        for i in 1..=5u32 {
            assert_eq!(all.of(ReplicaId::new(i)).len(), 2); // leaves: degree 1
        }
        assert_eq!(all.total_counters(), 20);
    }

    #[test]
    fn incoming_outgoing_split() {
        let g = ring(4);
        let tg = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
        let inc: Vec<EdgeId> = tg.incoming().collect();
        let out: Vec<EdgeId> = tg.outgoing().collect();
        assert_eq!(inc, vec![edge(1, 0), edge(3, 0)]);
        assert_eq!(out, vec![edge(0, 1), edge(0, 3)]);
    }

    #[test]
    fn positions_are_dense_and_sorted() {
        let g = ring(4);
        let tg = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
        for (idx, &e) in tg.edges().iter().enumerate() {
            assert_eq!(tg.position(e), Some(idx));
        }
        assert_eq!(tg.position(edge(0, 2)), None);
    }

    #[test]
    fn intersection_is_symmetric_and_sorted() {
        let g = ring(5);
        let all = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        let a = all.of(ReplicaId::new(0));
        let b = all.of(ReplicaId::new(1));
        let ab = a.intersection(b);
        let ba = b.intersection(a);
        assert_eq!(ab, ba);
        assert!(ab.windows(2).all(|w| w[0] < w[1]));
        // In a distinct-register ring both replicas track everything.
        assert_eq!(ab.len(), 10);
    }

    #[test]
    fn truncated_graph_is_subset() {
        let g = ring(6);
        let full = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
        let trunc = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::bounded(4));
        assert!(trunc.len() < full.len());
        for &e in trunc.edges() {
            assert!(full.contains(e));
        }
        // Incident edges always survive truncation.
        for &e in g.edges() {
            if e.touches(ReplicaId::new(0)) {
                assert!(trunc.contains(e));
            }
        }
    }

    #[test]
    fn vertices_cover_edge_endpoints() {
        let g = ring(4);
        let tg = TimestampGraph::build(&g, ReplicaId::new(2), LoopConfig::EXHAUSTIVE);
        let vs = tg.vertices();
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let tg =
            TimestampGraph::from_edges(ReplicaId::new(0), vec![edge(1, 0), edge(0, 1), edge(1, 0)]);
        assert_eq!(tg.edges(), &[edge(0, 1), edge(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "ordered by replica")]
    fn from_graphs_validates_order() {
        let tg = TimestampGraph::from_edges(ReplicaId::new(1), vec![]);
        let _ = TimestampGraphs::from_graphs(vec![tg]);
    }
}
