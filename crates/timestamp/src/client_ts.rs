//! Client-side timestamps for the client-server architecture
//! (Appendix E.5 of the paper).
//!
//! Each client `c` maintains a vector `μ_c` indexed by
//! `∪_{i ∈ R_c} Ê_i` — the union of the *augmented* timestamp graphs of
//! the replicas it may access. The operations implemented here are the
//! paper's:
//!
//! * predicate `J₁ = J₂`: a read/write request from `c` is served by
//!   replica `i` once `τ_i[e_ji] ≥ μ_c[e_ji]` for every incoming edge
//!   `e_ji ∈ Ê_i`;
//! * the `max(τ, μ)` half of `advance(i, τ, c, μ, x)`
//!   ([`ClientTsRegistry::fold_client`]); the other half, incrementing
//!   `i`'s outgoing `x`-edges, is the peer-to-peer
//!   [`TsRegistry::advance`];
//! * `merge₁ = merge₂`: client folds the replica's `τ` into `μ` over `Ê_i`.
//!
//! Everything else a server does is the peer-to-peer algorithm over the
//! augmented graphs: [`ClientTsRegistry::peer`] is the [`TsRegistry`]
//! whose `J` and `merge` are `J₃` and `merge₃`, shared behind an `Arc` so
//! each server can run a replica over it.

use crate::edge_ts::{EdgeTimestamp, TsRegistry};
use prcc_sharegraph::{AugmentedShareGraph, ClientId, EdgeId, ReplicaId, TimestampGraphs};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The timestamp `μ_c` of one client.
#[derive(Clone, PartialEq, Eq)]
pub struct ClientTimestamp {
    client: ClientId,
    values: Vec<u64>,
}

impl ClientTimestamp {
    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Counter values aligned with the client's sorted edge list.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of counters.
    pub fn num_counters(&self) -> usize {
        self.values.len()
    }

    /// Wire size in bytes (8 per counter).
    pub fn wire_size_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

impl fmt::Debug for ClientTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientTimestamp")
            .field("client", &self.client)
            .field("values", &self.values)
            .finish()
    }
}

#[derive(Debug)]
struct ClientIndex {
    edges: Vec<EdgeId>,
    /// Per accessible replica: `(pos in client vector, pos in replica
    /// vector)` for every edge of `Ê_i`, plus the subset that is incoming
    /// at that replica (used by `J₁`/`J₂`).
    per_replica: HashMap<ReplicaId, ReplicaView>,
}

#[derive(Debug)]
struct ReplicaView {
    common: Vec<(usize, usize)>,
    incoming: Vec<(usize, usize)>,
}

/// Operation table for client timestamps over an augmented share graph.
pub struct ClientTsRegistry {
    peer: Arc<TsRegistry>,
    clients: HashMap<ClientId, ClientIndex>,
}

impl fmt::Debug for ClientTsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientTsRegistry")
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl ClientTsRegistry {
    /// Builds the registry: augmented timestamp graphs for all replicas
    /// plus per-client edge unions and index maps.
    pub fn new(aug: &AugmentedShareGraph) -> Self {
        let graphs: TimestampGraphs = aug.augmented_timestamp_graphs();
        let mut clients = HashMap::new();
        for (c, replicas) in aug.clients().clients() {
            let edges = aug.client_edge_set(*c, &graphs);
            let mut per_replica = HashMap::new();
            for &i in replicas {
                let gi = graphs.of(i);
                let mut common = Vec::new();
                let mut incoming = Vec::new();
                for (pos_r, &e) in gi.edges().iter().enumerate() {
                    let pos_c = edges.binary_search(&e).expect("Ê_i ⊆ client edges");
                    common.push((pos_c, pos_r));
                    if e.to == i {
                        incoming.push((pos_c, pos_r));
                    }
                }
                per_replica.insert(i, ReplicaView { common, incoming });
            }
            clients.insert(*c, ClientIndex { edges, per_replica });
        }
        ClientTsRegistry {
            peer: Arc::new(TsRegistry::new(aug.base(), graphs)),
            clients,
        }
    }

    /// The peer-to-peer operation table over the **augmented** timestamp
    /// graphs — used for replica↔replica update delivery (`J₃`, `merge₃`)
    /// and for creating replica timestamps.
    pub fn peer(&self) -> &Arc<TsRegistry> {
        &self.peer
    }

    /// A zero-initialized timestamp for client `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` was not assigned any replicas.
    pub fn new_client_timestamp(&self, c: ClientId) -> ClientTimestamp {
        let idx = self.clients.get(&c).expect("unknown client");
        ClientTimestamp {
            client: c,
            values: vec![0; idx.edges.len()],
        }
    }

    /// Predicate `J₁ = J₂`: replica `i` (with timestamp `tau`) may serve a
    /// request carrying client timestamp `mu` iff
    /// `τ[e_ji] ≥ μ[e_ji]` for every incoming `e_ji ∈ Ê_i`.
    pub fn request_ready(&self, tau: &EdgeTimestamp, mu: &ClientTimestamp) -> bool {
        let idx = &self.clients[&mu.client];
        let view = match idx.per_replica.get(&tau.replica()) {
            Some(v) => v,
            None => return false, // client may not access this replica
        };
        view.incoming
            .iter()
            .all(|&(pc, pr)| tau.values()[pr] >= mu.values[pc])
    }

    /// The `max(τ, μ)` half of `advance(i, τ, c, μ, x, v)` (Appendix
    /// E.5): folds the client's view into replica `i`'s `τ` over `Ê_i`.
    /// The increment half is the peer [`TsRegistry::advance`].
    ///
    /// The fold raises no counter of an edge at `i`: admission (`J₁`/`J₂`)
    /// has made `τ ≥ μ` on every incoming edge, and only `i` increments
    /// its outgoing ones. So no update parked on `J₃` needs re-checking.
    pub fn fold_client(&self, tau: &mut EdgeTimestamp, mu: &ClientTimestamp) {
        let idx = &self.clients[&mu.client];
        let i = tau.replica();
        if let Some(view) = idx.per_replica.get(&i) {
            let gi = self.peer.graphs().of(i);
            for &(pc, pr) in &view.common {
                let m = mu.values[pc];
                if m > tau.values()[pr] {
                    debug_assert!(
                        !gi.edges()[pr].touches(i),
                        "client view above τ_{i} on {}",
                        gi.edges()[pr]
                    );
                    tau.set_value_internal(pr, m);
                }
            }
        }
    }

    /// `merge₁ = merge₂`: the client folds replica `i`'s response
    /// timestamp into `μ` over `Ê_i`.
    pub fn merge_into_client(&self, mu: &mut ClientTimestamp, tau: &EdgeTimestamp) {
        let idx = &self.clients[&mu.client];
        if let Some(view) = idx.per_replica.get(&tau.replica()) {
            for &(pc, pr) in &view.common {
                mu.values[pc] = mu.values[pc].max(tau.values()[pr]);
            }
        }
    }

    /// The edge list a client's vector is indexed by.
    pub fn client_edges(&self, c: ClientId) -> &[EdgeId] {
        &self.clients[&c].edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, ClientAssignment, RegisterId};

    /// Path 0 — 1 — 2 (registers 0, 1); one client spans replicas 0 and 2.
    fn setup() -> (AugmentedShareGraph, ClientTsRegistry) {
        let g = topology::path(3);
        let mut clients = ClientAssignment::new(3);
        clients.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(2)]);
        let aug = AugmentedShareGraph::new(g, clients);
        let reg = ClientTsRegistry::new(&aug);
        (aug, reg)
    }

    #[test]
    fn client_vector_covers_union_of_replica_graphs() {
        let (_aug, reg) = setup();
        let mu = reg.new_client_timestamp(ClientId::new(0));
        let edges = reg.client_edges(ClientId::new(0));
        assert_eq!(mu.num_counters(), edges.len());
        assert!(!edges.is_empty());
    }

    #[test]
    fn fresh_request_is_ready_everywhere() {
        let (_aug, reg) = setup();
        let mu = reg.new_client_timestamp(ClientId::new(0));
        for i in [0u32, 2] {
            let tau = reg.peer().new_timestamp(ReplicaId::new(i));
            assert!(reg.request_ready(&tau, &mu));
        }
    }

    #[test]
    fn client_propagates_dependency_between_replicas() {
        // Client writes x0 at replica 0, then reads/writes at replica 2.
        // Replica 2's own state doesn't contain the write, but the client's
        // μ records the counter on e_01; replica 2 only gates on its *own*
        // incoming edges, so the request is served — and the advance folds
        // the client's knowledge into replica 2's τ.
        let (_aug, reg) = setup();
        let c = ClientId::new(0);
        let (r0, r2) = (ReplicaId::new(0), ReplicaId::new(2));

        let mut mu = reg.new_client_timestamp(c);
        let mut tau0 = reg.peer().new_timestamp(r0);

        assert!(reg.request_ready(&tau0, &mu));
        reg.fold_client(&mut tau0, &mu);
        reg.peer().advance(&mut tau0, RegisterId::new(0));
        reg.merge_into_client(&mut mu, &tau0);

        // μ now holds e_01's counter = 1.
        let e01 = EdgeId::new(r0, ReplicaId::new(1));
        let pos = reg
            .client_edges(c)
            .binary_search(&e01)
            .expect("client tracks e_01");
        assert_eq!(mu.values()[pos], 1);

        // Write at replica 2: served (no incoming dependency unmet) and τ_2
        // inherits the client's e_01 knowledge if Ê_2 tracks it.
        let mut tau2 = reg.peer().new_timestamp(r2);
        assert!(reg.request_ready(&tau2, &mu));
        reg.fold_client(&mut tau2, &mu);
        reg.peer().advance(&mut tau2, RegisterId::new(1));
        let g2 = reg.peer().graphs().of(r2);
        if let Some(p) = g2.position(e01) {
            assert_eq!(tau2.values()[p], 1, "τ_2 must inherit e_01");
        }
    }

    #[test]
    fn request_blocked_until_replica_catches_up() {
        // Client observed an update from replica 1 at... simulate: client μ
        // has e_10 = 1 (an incoming edge of replica 0). A fresh replica 0
        // must block the request until it applies that update.
        let (_aug, reg) = setup();
        let c = ClientId::new(0);
        let mut mu = reg.new_client_timestamp(c);
        let e10 = EdgeId::new(ReplicaId::new(1), ReplicaId::new(0));
        let pos = reg.client_edges(c).binary_search(&e10).unwrap();
        mu.values[pos] = 1;

        let tau0 = reg.peer().new_timestamp(ReplicaId::new(0));
        assert!(!reg.request_ready(&tau0, &mu));
    }

    #[test]
    fn unassigned_replica_rejects_requests() {
        let (_aug, reg) = setup();
        let mu = reg.new_client_timestamp(ClientId::new(0));
        // Replica 1 is not in R_c.
        let tau1 = reg.peer().new_timestamp(ReplicaId::new(1));
        assert!(!reg.request_ready(&tau1, &mu));
    }

    #[test]
    fn repeat_assignment_indexes_the_union() {
        // A second `assign` of c0 extends R_c0 to {r0, r1, r3}; μ_c0 then
        // indexes Ê_0 ∪ Ê_1 ∪ Ê_3.
        let c = ClientId::new(0);
        let r = ReplicaId::new;
        let mut clients = ClientAssignment::new(4);
        clients.assign(c, [r(0), r(1)]);
        clients.assign(c, [r(3)]);
        let aug = AugmentedShareGraph::new(topology::path(4), clients);
        let reg = ClientTsRegistry::new(&aug);
        let graphs = aug.augmented_timestamp_graphs();
        let mut union: Vec<EdgeId> = [0, 1, 3]
            .into_iter()
            .flat_map(|i| graphs.of(r(i)).edges().to_vec())
            .collect();
        union.sort();
        union.dedup();
        assert_eq!(reg.client_edges(c), &union[..]);
        let mu = reg.new_client_timestamp(c);
        assert_eq!(mu.num_counters(), union.len());
        for i in [0, 1, 3] {
            assert!(reg.request_ready(&reg.peer().new_timestamp(r(i)), &mu));
        }
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        let (_aug, reg) = setup();
        let _ = reg.new_client_timestamp(ClientId::new(7));
    }
}
