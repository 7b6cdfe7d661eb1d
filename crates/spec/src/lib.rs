//! A reference model of the edge-indexed algorithm (Section 3.3 of the
//! paper's full version), for differential tests only.
//!
//! It transcribes the algorithm as the paper states it and shares
//! nothing with the production crates but the share graph and the
//! timestamp graphs `E_i`, so a bug in the production registry, tracker,
//! pending index or store cannot fail both sides of a comparison alike:
//!
//! * a timestamp is a counter map over `E_i` ([`Timestamp`]), and
//!   [`advance`], [`merge`] and [`j`] are the paper's three operations;
//! * a write sends one message per update, carrying the writer's whole
//!   timestamp, to every other holder of the register;
//! * each replica keeps a flat pending list in arrival order and, after
//!   every arrival and every apply, applies the first update whose `J`
//!   holds, counting every evaluation of `J` ([`Spec::deliver`]);
//! * a replica's store is a `BTreeMap` of value and producing update.
//!
//! [`Spec`] is generic over the [`Clock`] — the timestamp and readiness
//! predicate — so a baseline's own tracker can run the same scan loop;
//! [`EdgeClock`] is the paper's.
//!
//! [`hb`] is the reference for the checker itself: happened-before as a
//! closed predecessor set per update, and a check that walks each
//! apply's predecessors.
//!
//! ```
//! use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
//! use prcc_spec::{EdgeClock, Spec};
//!
//! let g = topology::path(2);
//! let mut spec = Spec::new(&g, EdgeClock::all(&g, &TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE)));
//! let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
//! let (first, _) = spec.write(r0, RegisterId::new(0), 1);
//! let (second, to) = spec.write(r0, RegisterId::new(0), 2);
//! assert_eq!(to, vec![r1]);
//! assert!(spec.deliver(r1, second).is_empty(), "waits for the first write");
//! assert_eq!(spec.deliver(r1, first), vec![first, second]);
//! assert_eq!(spec.store(r1)[&RegisterId::new(0)], (2, second));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hb;

use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_sharegraph::{EdgeId, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An edge-indexed timestamp: one counter per edge of `E_i`.
pub type Timestamp = BTreeMap<EdgeId, u64>;

/// `advance(i, τ_i, x)`: a write of `x` at `i` increments `τ_i[e_ik]`
/// for every outgoing edge `e_ik ∈ E_i` whose shared registers `X_ik`
/// contain `x`.
pub fn advance(g: &ShareGraph, i: ReplicaId, tau: &mut Timestamp, x: RegisterId) {
    for (e, c) in tau.iter_mut() {
        if e.from == i && g.edge_registers(*e).contains(x) {
            *c += 1;
        }
    }
}

/// `merge(i, τ_i, k, T)`: the pointwise maximum over `E_i ∩ E_k`.
pub fn merge(tau: &mut Timestamp, t: &Timestamp) {
    for (e, &theirs) in t {
        if let Some(mine) = tau.get_mut(e) {
            *mine = (*mine).max(theirs);
        }
    }
}

/// `J(i, τ_i, k, T)`: an update from `k` stamped `T` may be applied at
/// `i` iff `τ_i[e_ki] = T[e_ki] − 1` and `τ_i[e_ji] ≥ T[e_ji]` for every
/// other common incoming edge `e_ji ∈ E_i ∩ E_k`.
pub fn j(i: ReplicaId, tau: &Timestamp, k: ReplicaId, t: &Timestamp) -> bool {
    let e_ki = EdgeId::new(k, i);
    let exact = match (tau.get(&e_ki), t.get(&e_ki)) {
        (Some(&mine), Some(&theirs)) => mine + 1 == theirs,
        _ => false,
    };
    exact
        && tau
            .iter()
            .filter(|(e, _)| e.to == i && e.from != k)
            .all(|(e, &mine)| t.get(e).is_none_or(|&theirs| mine >= theirs))
}

/// One update message: its id, the register written, the value and the
/// issuer's stamp.
#[derive(Debug, Clone)]
pub struct Update<S> {
    /// Issuer and sequence number.
    pub id: UpdateId,
    /// The register written.
    pub register: RegisterId,
    /// The value written.
    pub value: u64,
    /// The issuer's timestamp after the write.
    pub stamp: S,
}

/// A replica's causality metadata: what it stamps a write with, the
/// readiness predicate, and the merge on apply.
pub trait Clock {
    /// The timestamp an update carries.
    type Stamp: Clone + fmt::Debug;
    /// A local write of `x`: advance, and return the stamp to send.
    fn advance(&mut self, x: RegisterId) -> Self::Stamp;
    /// The readiness predicate: may `u` be applied here now?
    fn ready(&self, u: &Update<Self::Stamp>) -> bool;
    /// Folds the stamp of the applied update `u` into this clock.
    fn merge(&mut self, u: &Update<Self::Stamp>);
}

/// The paper's clock: replica `i`'s counter map over `E_i`.
#[derive(Debug, Clone)]
pub struct EdgeClock {
    i: ReplicaId,
    graph: Arc<ShareGraph>,
    tau: Timestamp,
}

impl EdgeClock {
    /// One zeroed clock per replica of `g`, over the timestamp graphs
    /// `graphs`, in replica order.
    pub fn all(g: &ShareGraph, graphs: &TimestampGraphs) -> Vec<EdgeClock> {
        let graph = Arc::new(g.clone());
        graphs
            .iter()
            .map(|tg| EdgeClock {
                i: tg.replica(),
                graph: Arc::clone(&graph),
                tau: tg.edges().iter().map(|&e| (e, 0)).collect(),
            })
            .collect()
    }
}

impl Clock for EdgeClock {
    type Stamp = Timestamp;

    fn advance(&mut self, x: RegisterId) -> Timestamp {
        advance(&self.graph, self.i, &mut self.tau, x);
        self.tau.clone()
    }

    fn ready(&self, u: &Update<Timestamp>) -> bool {
        j(self.i, &self.tau, u.id.issuer, &u.stamp)
    }

    fn merge(&mut self, u: &Update<Timestamp>) {
        merge(&mut self.tau, &u.stamp);
    }
}

/// One replica of the model.
#[derive(Debug, Clone)]
struct Node<C: Clock> {
    clock: C,
    store: BTreeMap<RegisterId, (u64, UpdateId)>,
    /// `frontier[k]`: updates from `k` issued or applied here.
    frontier: Vec<u64>,
    /// Arrived and not yet applied, in arrival order.
    pending: Vec<Update<C::Stamp>>,
    /// Evaluations of the readiness predicate so far.
    evals: u64,
    next_seq: u64,
}

/// A whole cluster of the model. The caller is the network: it decides
/// when each message of [`Spec::write`] arrives through
/// [`Spec::deliver`]. Issues and applies are recorded in a [`Trace`].
#[derive(Debug, Clone)]
pub struct Spec<C: Clock> {
    graph: ShareGraph,
    nodes: Vec<Node<C>>,
    sent: BTreeMap<UpdateId, Update<C::Stamp>>,
    trace: Trace,
}

impl<C: Clock> Spec<C> {
    /// A cluster over `graph` whose replica `i` runs `clocks[i]` and
    /// stores its registers in `graph`'s placement.
    pub fn new(graph: &ShareGraph, clocks: Vec<C>) -> Self {
        let n = graph.num_replicas();
        assert_eq!(clocks.len(), n, "one clock per replica");
        let nodes = clocks
            .into_iter()
            .map(|clock| Node {
                clock,
                store: BTreeMap::new(),
                frontier: vec![0; n],
                pending: Vec::new(),
                evals: 0,
                next_seq: 0,
            })
            .collect();
        Spec {
            graph: graph.clone(),
            nodes,
            sent: BTreeMap::new(),
            trace: Trace::new(),
        }
    }

    /// A client write of `value` to `x` at `r`: store it, advance, and
    /// return the update's id and the register's other holders, each of
    /// which is due one message.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store `x`.
    pub fn write(&mut self, r: ReplicaId, x: RegisterId, value: u64) -> (UpdateId, Vec<ReplicaId>) {
        assert!(
            self.graph.placement().stores(r, x),
            "{r} does not store {x}"
        );
        let node = &mut self.nodes[r.index()];
        let id = UpdateId {
            issuer: r,
            seq: node.next_seq,
        };
        node.next_seq += 1;
        node.frontier[r.index()] = node.next_seq;
        node.store.insert(x, (value, id));
        let stamp = node.clock.advance(x);
        self.trace.record_issue_with_id(id, x);
        let u = Update {
            id,
            register: x,
            value,
            stamp,
        };
        self.sent.insert(id, u);
        let to = self.graph.placement().holders(x).iter();
        (id, to.copied().filter(|&h| h != r).collect())
    }

    /// The arrival of update `id` at `dst`: append it to the pending
    /// list, then apply the first ready update in arrival order until
    /// none is ready. Returns the updates applied, in order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never written.
    pub fn deliver(&mut self, dst: ReplicaId, id: UpdateId) -> Vec<UpdateId> {
        let stores = self.graph.placement().registers_of(dst);
        let node = &mut self.nodes[dst.index()];
        node.pending.push(self.sent[&id].clone());
        let mut applied = Vec::new();
        loop {
            let first_ready = node.pending.iter().position(|u| {
                node.evals += 1;
                node.clock.ready(u)
            });
            let Some(pos) = first_ready else { break };
            let u = node.pending.remove(pos);
            node.clock.merge(&u);
            if stores.contains(u.register) {
                node.store.insert(u.register, (u.value, u.id));
            }
            let f = &mut node.frontier[u.id.issuer.index()];
            *f = (*f).max(u.id.seq + 1);
            self.trace.record_apply(u.id, dst);
            applied.push(u.id);
        }
        applied
    }

    /// Replica `r`'s store: value and producing update per register.
    pub fn store(&self, r: ReplicaId) -> &BTreeMap<RegisterId, (u64, UpdateId)> {
        &self.nodes[r.index()].store
    }

    /// Replica `r`'s frontier: entry `k` counts the updates from `k`
    /// issued or applied at `r`.
    pub fn frontier(&self, r: ReplicaId) -> &[u64] {
        &self.nodes[r.index()].frontier
    }

    /// Updates arrived at `r` and not yet applied.
    pub fn pending_count(&self, r: ReplicaId) -> usize {
        self.nodes[r.index()].pending.len()
    }

    /// Evaluations of the readiness predicate at `r` so far.
    pub fn evals(&self, r: ReplicaId) -> u64 {
        self.nodes[r.index()].evals
    }

    /// Every issue and apply so far, in the order they happened.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The checker's verdict on [`Spec::trace`] over the placement.
    pub fn check(&self) -> CheckReport {
        check(&self.trace, self.graph.placement())
    }
}
