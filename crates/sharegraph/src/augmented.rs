//! The client-server architecture: augmented share graphs, augmented
//! `(i, e_jk)`-loops, and augmented timestamp graphs (Section 6 and
//! Appendix E; Definitions 16, 27, 28).
//!
//! A client that accesses several replicas propagates causal dependencies
//! between them even when they share no registers. The augmented share
//! graph `Ĝ` adds an edge between every pair of replicas co-accessed by
//! some client; the loop conditions then accept either a register witness
//! or client co-access for the right-path hops.
//!
//! This module holds the client assignment and `Ĝ`'s adjacency only. The
//! augmented loop search is [`find_loop`] given the assignment, and `Ĝ_i`
//! is [`TimestampGraph`]'s construction over it.

use crate::graph::ShareGraph;
use crate::ids::{ClientId, EdgeId, ReplicaId};
use crate::loops::{find_loop, LoopConfig};
use crate::tsgraph::{TimestampGraph, TimestampGraphs};
use std::collections::BTreeSet;

/// Static assignment of clients to replica sets (`R_c` in the paper).
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{ClientAssignment, ClientId, ReplicaId};
/// let mut a = ClientAssignment::new(3);
/// a.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(2)]);
/// assert!(a.co_accessed(ReplicaId::new(0), ReplicaId::new(2)));
/// assert!(!a.co_accessed(ReplicaId::new(0), ReplicaId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientAssignment {
    num_replicas: usize,
    clients: Vec<(ClientId, Vec<ReplicaId>)>,
    /// Symmetric co-access matrix, row-major `num_replicas × num_replicas`.
    co_access: Vec<bool>,
}

impl ClientAssignment {
    /// Creates an empty assignment over `num_replicas` replicas.
    pub fn new(num_replicas: usize) -> Self {
        ClientAssignment {
            num_replicas,
            clients: Vec::new(),
            co_access: vec![false; num_replicas * num_replicas],
        }
    }

    /// Registers that client `c` accesses the given replicas (`R_c`). A
    /// repeat call for the same client extends its `R_c`; the set keeps
    /// each replica once, in first-seen order.
    ///
    /// # Panics
    ///
    /// Panics if any replica id is out of range.
    pub fn assign<I: IntoIterator<Item = ReplicaId>>(&mut self, c: ClientId, replicas: I) {
        let added: Vec<ReplicaId> = replicas.into_iter().collect();
        for &r in &added {
            assert!(r.index() < self.num_replicas, "replica out of range");
        }
        let pos = match self.clients.iter().position(|(id, _)| *id == c) {
            Some(pos) => pos,
            None => {
                self.clients.push((c, Vec::new()));
                self.clients.len() - 1
            }
        };
        let set = &mut self.clients[pos].1;
        for r in added {
            if !set.contains(&r) {
                set.push(r);
            }
        }
        for &a in set.iter() {
            for &b in set.iter() {
                if a != b {
                    self.co_access[a.index() * self.num_replicas + b.index()] = true;
                }
            }
        }
    }

    /// True if some client accesses both `a` and `b`.
    pub fn co_accessed(&self, a: ReplicaId, b: ReplicaId) -> bool {
        a != b && self.co_access[a.index() * self.num_replicas + b.index()]
    }

    /// The replicas some client co-accesses with `a`, in id order.
    pub(crate) fn partners(&self, a: ReplicaId) -> impl Iterator<Item = ReplicaId> + '_ {
        let row = &self.co_access[a.index() * self.num_replicas..][..self.num_replicas];
        (0..self.num_replicas as u32)
            .map(ReplicaId::new)
            .filter(move |b| row[b.index()])
    }

    /// The clients and their replica sets, in assignment order.
    pub fn clients(&self) -> &[(ClientId, Vec<ReplicaId>)] {
        &self.clients
    }

    /// The replica set `R_c` of client `c`, if assigned.
    pub fn replicas_of(&self, c: ClientId) -> Option<&[ReplicaId]> {
        self.clients
            .iter()
            .find(|(id, _)| *id == c)
            .map(|(_, v)| v.as_slice())
    }
}

/// The augmented share graph `Ĝ` (Definition 16): share edges plus client
/// co-access edges.
#[derive(Debug, Clone)]
pub struct AugmentedShareGraph {
    base: ShareGraph,
    clients: ClientAssignment,
    /// Sorted neighbor lists in `Ĝ` (share ∪ co-access).
    adj: Vec<Vec<ReplicaId>>,
}

impl AugmentedShareGraph {
    /// Builds `Ĝ` from a share graph and a client assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment covers a different number of replicas.
    pub fn new(base: ShareGraph, clients: ClientAssignment) -> Self {
        assert_eq!(
            base.num_replicas(),
            clients.num_replicas,
            "assignment must cover the same replicas"
        );
        let n = base.num_replicas();
        let mut adj = vec![BTreeSet::new(); n];
        for &e in base.edges() {
            adj[e.from.index()].insert(e.to);
        }
        for (a, row) in adj.iter_mut().enumerate() {
            row.extend(clients.partners(ReplicaId::new(a as u32)));
        }
        AugmentedShareGraph {
            base,
            clients,
            adj: adj.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// The underlying share graph `G`.
    pub fn base(&self) -> &ShareGraph {
        &self.base
    }

    /// The client assignment.
    pub fn clients(&self) -> &ClientAssignment {
        &self.clients
    }

    /// Neighbors in `Ĝ` (share or co-access).
    pub fn neighbors(&self, i: ReplicaId) -> &[ReplicaId] {
        &self.adj[i.index()]
    }

    /// True if `e ∈ Ê` (share edge or client edge).
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.base.has_edge(e) || self.clients.co_accessed(e.from, e.to)
    }

    /// True if an *augmented* `(i, e_jk)`-loop exists (Definition 27).
    pub fn exists_augmented_loop(&self, i: ReplicaId, e: EdgeId) -> bool {
        find_loop(
            &self.base,
            i,
            e,
            LoopConfig::EXHAUSTIVE,
            Some(&self.clients),
        )
        .is_some()
    }

    /// Builds the augmented timestamp graph `Ĝ_i` (Definition 28): incident
    /// edges of `Ĝ` plus augmented-loop edges, **intersected with `E`**
    /// (only real share edges are tracked).
    pub fn augmented_timestamp_graph(&self, i: ReplicaId) -> TimestampGraph {
        TimestampGraph::build_over(&self.base, i, LoopConfig::EXHAUSTIVE, Some(&self.clients))
    }

    /// Augmented timestamp graphs for all replicas.
    pub fn augmented_timestamp_graphs(&self) -> TimestampGraphs {
        TimestampGraphs::from_graphs(
            self.base
                .replicas()
                .map(|i| self.augmented_timestamp_graph(i))
                .collect(),
        )
    }

    /// The edge set a *client* `c` must track: `∪_{i ∈ R_c} Ê_i`
    /// (Appendix E.5).
    pub fn client_edge_set(&self, c: ClientId, graphs: &TimestampGraphs) -> Vec<EdgeId> {
        let mut set = BTreeSet::new();
        if let Some(rs) = self.clients.replicas_of(c) {
            for &r in rs {
                set.extend(graphs.of(r).edges().iter().copied());
            }
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::loops::LoopConfig;
    use crate::placement::Placement;
    use crate::topology;

    /// Path 0 - 1 - 2 with distinct registers; a client spans 0 and 2.
    fn path_with_spanning_client() -> AugmentedShareGraph {
        let g = topology::path(3);
        let mut clients = ClientAssignment::new(3);
        clients.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(2)]);
        AugmentedShareGraph::new(g, clients)
    }

    #[test]
    fn client_edges_extend_adjacency() {
        let ag = path_with_spanning_client();
        assert!(ag.has_edge(edge(0, 2)));
        assert!(!ag.base().has_edge(edge(0, 2)));
        assert_eq!(ag.neighbors(ReplicaId::new(0)).len(), 2);
    }

    #[test]
    fn spanning_client_creates_loops_in_tree() {
        // Without the client, a path has no loops at all. With the client
        // edge 0—2, replica 1 sits on the cycle 1-0-2 (via client edge):
        // an augmented (1, e_jk)-loop can exist.
        let ag = path_with_spanning_client();
        let r1 = ReplicaId::new(1);
        // e_02 is a client-only edge: never tracked (X_02 = ∅ fails (i)).
        assert!(!ag.exists_augmented_loop(r1, edge(0, 2)));
        // But consider i = 0: loop (0, l_1 = 1? ...). Check e_21 from the
        // augmented cycle 0-1-2-0: i=0, j=2, k=1: left path 0→1 (share
        // edge), (i): X_21 ≠ ∅ ✓; right path 2→0 via client co-access ✓.
        assert!(ag.exists_augmented_loop(ReplicaId::new(0), edge(2, 1)));
        // Without clients there is no such loop.
        let g = topology::path(3);
        assert!(!crate::loops::exists_loop(
            &g,
            ReplicaId::new(0),
            edge(2, 1),
            LoopConfig::EXHAUSTIVE
        ));
    }

    #[test]
    fn augmented_graph_only_tracks_real_edges() {
        let ag = path_with_spanning_client();
        for i in ag.base().replicas() {
            let tg = ag.augmented_timestamp_graph(i);
            for &e in tg.edges() {
                assert!(ag.base().has_edge(e), "{e} is not a share edge");
            }
        }
    }

    #[test]
    fn no_clients_means_plain_timestamp_graphs() {
        let g = topology::ring(5);
        let ag = AugmentedShareGraph::new(g.clone(), ClientAssignment::new(5));
        let plain = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        for i in g.replicas() {
            assert_eq!(
                ag.augmented_timestamp_graph(i).edges(),
                plain.of(i).edges(),
                "replica {i}"
            );
        }
    }

    #[test]
    fn augmented_is_superset_of_plain() {
        let g = topology::grid(3, 2);
        let mut clients = ClientAssignment::new(6);
        clients.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(5)]);
        clients.assign(ClientId::new(1), [ReplicaId::new(2), ReplicaId::new(3)]);
        let ag = AugmentedShareGraph::new(g.clone(), clients);
        let plain = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        for i in g.replicas() {
            let aug = ag.augmented_timestamp_graph(i);
            for &e in plain.of(i).edges() {
                assert!(aug.contains(e), "replica {i} lost plain edge {e}");
            }
        }
    }

    #[test]
    fn client_edge_set_unions_replica_graphs() {
        let ag = path_with_spanning_client();
        let graphs = ag.augmented_timestamp_graphs();
        let c = ClientId::new(0);
        let edges = ag.client_edge_set(c, &graphs);
        let mut expected = BTreeSet::new();
        expected.extend(graphs.of(ReplicaId::new(0)).edges().iter().copied());
        expected.extend(graphs.of(ReplicaId::new(2)).edges().iter().copied());
        assert_eq!(edges, expected.into_iter().collect::<Vec<_>>());
        // Unknown client: empty.
        assert!(ag.client_edge_set(ClientId::new(9), &graphs).is_empty());
    }

    #[test]
    fn assignment_validates_range() {
        let mut a = ClientAssignment::new(2);
        a.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(1)]);
        assert_eq!(
            a.replicas_of(ClientId::new(0)),
            Some(&[ReplicaId::new(0), ReplicaId::new(1)][..])
        );
    }

    #[test]
    fn repeat_assignment_extends_the_replica_set() {
        let mut a = ClientAssignment::new(4);
        a.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(1)]);
        a.assign(ClientId::new(0), [ReplicaId::new(3), ReplicaId::new(1)]);
        assert_eq!(a.clients().len(), 1);
        assert_eq!(
            a.replicas_of(ClientId::new(0)),
            Some(&[ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(3)][..])
        );
        assert!(a.co_accessed(ReplicaId::new(0), ReplicaId::new(3)));
        let partners: Vec<_> = a.partners(ReplicaId::new(3)).collect();
        assert_eq!(partners, [ReplicaId::new(0), ReplicaId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignment_rejects_bad_replica() {
        let mut a = ClientAssignment::new(2);
        a.assign(ClientId::new(0), [ReplicaId::new(5)]);
    }

    #[test]
    #[should_panic(expected = "same replicas")]
    fn augmented_rejects_mismatched_sizes() {
        let g = Placement::builder(3).share(0, [0, 1]).build();
        let _ = AugmentedShareGraph::new(ShareGraph::new(g), ClientAssignment::new(2));
    }
}
