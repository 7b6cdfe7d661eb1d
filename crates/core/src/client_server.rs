//! The client-server architecture (Section 6, Appendix E).
//!
//! Servers are replicas; clients hold their own timestamps `μ_c` and may
//! read/write at any replica of their set `R_c`, propagating causal
//! dependencies *between* replicas that share no registers. Requests are
//! gated by predicates `J₁`/`J₂` (the server buffers a request until its
//! own timestamp dominates the client's incoming-edge view); server-to-
//! server updates use the peer predicate `J₃` over the **augmented**
//! timestamp graphs.
//!
//! One server's transitions are written once, in `AppEServer`; the
//! lockstep [`ClientServerSystem`] and the client-server explorer
//! ([`CsScenario`](crate::CsScenario)) both run them.

use crate::message::{Metadata, UpdateMsg};
use crate::value::Value;
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{DelayModel, SimNetwork};
use prcc_sharegraph::{AugmentedShareGraph, ClientId, RegisterId, ReplicaId, ShareGraph};
use prcc_timestamp::{ClientTimestamp, ClientTsRegistry, EdgeTimestamp};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a client request, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// A client operation awaiting service.
#[derive(Debug, Clone)]
enum Request {
    Read {
        id: RequestId,
        client: ClientId,
        replica: ReplicaId,
        register: RegisterId,
        mu: ClientTimestamp,
    },
    Write {
        id: RequestId,
        client: ClientId,
        replica: ReplicaId,
        register: RegisterId,
        value: Value,
        mu: ClientTimestamp,
    },
}

impl Request {
    fn replica(&self) -> ReplicaId {
        match self {
            Request::Read { replica, .. } | Request::Write { replica, .. } => *replica,
        }
    }
    fn mu(&self) -> &ClientTimestamp {
        match self {
            Request::Read { mu, .. } | Request::Write { mu, .. } => mu,
        }
    }
}

/// One App E server's protocol state: its timestamp `τ_i`, the
/// server-to-server updates buffered until `J₃` admits them, and its
/// next update sequence number.
#[derive(Clone)]
pub(crate) struct AppEServer {
    tau: EdgeTimestamp,
    pending: Vec<UpdateMsg>,
    next_seq: u64,
}

impl AppEServer {
    pub(crate) fn new(reg: &ClientTsRegistry, id: ReplicaId) -> Self {
        AppEServer {
            tau: reg.peer().new_timestamp(id),
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    /// Predicates `J₁`/`J₂`: may a request carrying the client view `mu`
    /// be served now?
    pub(crate) fn admits(&self, reg: &ClientTsRegistry, mu: &ClientTimestamp) -> bool {
        reg.request_ready(&self.tau, mu)
    }

    /// Serves an admitted write of `value` to `register`:
    /// `advance(i, τ, c, μ, x, v)` under the request's view `mu`, then the
    /// reply into the client's current `mu_c`. Returns the update and the
    /// other holders it fans out to.
    pub(crate) fn issue(
        &mut self,
        reg: &ClientTsRegistry,
        g: &ShareGraph,
        mu: &ClientTimestamp,
        mu_c: &mut ClientTimestamp,
        register: RegisterId,
        value: Value,
    ) -> (UpdateMsg, Vec<ReplicaId>) {
        reg.advance_for_client(&mut self.tau, mu, register, g);
        let issuer = self.tau.replica();
        let msg = UpdateMsg {
            issuer,
            seq: self.next_seq,
            register,
            value: Some(value),
            meta: Arc::new(Metadata::Edge(self.tau.clone())),
            transit: None,
        };
        self.next_seq += 1;
        self.reply(reg, mu_c);
        let fanout = g
            .placement()
            .holders(register)
            .iter()
            .copied()
            .filter(|&h| h != issuer)
            .collect();
        (msg, fanout)
    }

    /// The reply to a served request: `merge₁`/`merge₂` of `τ_i` into the
    /// client's `μ_c`.
    pub(crate) fn reply(&self, reg: &ClientTsRegistry, mu_c: &mut ClientTimestamp) {
        reg.merge_into_client(mu_c, &self.tau);
    }

    /// Buffers a server-to-server update, then applies every buffered
    /// update `J₃` admits (`merge₃` into `τ_i`) until none is ready.
    /// Returns the applied updates in apply order.
    pub(crate) fn deliver(&mut self, reg: &ClientTsRegistry, msg: UpdateMsg) -> Vec<UpdateMsg> {
        self.pending.push(msg);
        let mut applied = Vec::new();
        while let Some(pos) = self.pending.iter().position(|m| match &*m.meta {
            Metadata::Edge(t) => reg.peer().ready(&self.tau, m.issuer, t),
            _ => false,
        }) {
            let m = self.pending.remove(pos);
            if let Metadata::Edge(t) = &*m.meta {
                reg.peer().merge(&mut self.tau, m.issuer, t);
            }
            applied.push(m);
        }
        applied
    }

    /// Updates issued and updates still buffered — the server state a
    /// fingerprint needs besides its apply order.
    pub(crate) fn counts(&self) -> (u64, usize) {
        (self.next_seq, self.pending.len())
    }
}

/// Panics unless client `c` may send an op on register `x` to replica
/// `i`: `i ∈ R_c` and `x ∈ X_i`. The one check behind
/// [`ClientServerSystem`]'s requests and
/// [`CsScenario`](crate::CsScenario)'s scripted ops.
pub(crate) fn validate_op(aug: &AugmentedShareGraph, c: ClientId, i: ReplicaId, x: RegisterId) {
    let rs = aug
        .clients()
        .replicas_of(c)
        .unwrap_or_else(|| panic!("unknown client {c}"));
    assert!(rs.contains(&i), "replica {i} not in R_{c}");
    assert!(
        aug.base().placement().stores(i, x),
        "register {x} not stored at {i}"
    );
}

pub use prcc_checker::SessionEvent;

/// A complete simulated client-server deployment.
///
/// # Examples
///
/// ```
/// use prcc_core::client_server::ClientServerSystem;
/// use prcc_core::Value;
/// use prcc_net::DelayModel;
/// use prcc_sharegraph::{topology, AugmentedShareGraph, ClientAssignment, ClientId, ReplicaId, RegisterId};
///
/// let g = topology::path(3);
/// let mut clients = ClientAssignment::new(3);
/// clients.assign(ClientId::new(0), [ReplicaId::new(0), ReplicaId::new(2)]);
/// let aug = AugmentedShareGraph::new(g, clients);
/// let mut sys = ClientServerSystem::new(aug, DelayModel::Fixed(1), 0);
///
/// let w = sys.write(ClientId::new(0), ReplicaId::new(0), RegisterId::new(0), Value::from(1u64));
/// sys.run_to_quiescence();
/// assert!(sys.is_write_done(w));
/// ```
pub struct ClientServerSystem {
    aug: AugmentedShareGraph,
    reg: ClientTsRegistry,
    servers: Vec<AppEServer>,
    /// Per server: each register's value and the update that wrote it.
    stores: Vec<HashMap<RegisterId, (Value, UpdateId)>>,
    clients: HashMap<ClientId, ClientTimestamp>,
    requests: Vec<Request>,
    net: SimNetwork<UpdateMsg>,
    trace: Trace,
    next_request: u64,
    read_results: HashMap<RequestId, Option<Value>>,
    done_writes: HashMap<RequestId, UpdateId>,
    sessions: Vec<SessionEvent>,
}

impl fmt::Debug for ClientServerSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientServerSystem")
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("queued_requests", &self.requests.len())
            .finish()
    }
}

impl ClientServerSystem {
    /// Creates the system over an augmented share graph.
    pub fn new(aug: AugmentedShareGraph, delay: DelayModel, seed: u64) -> Self {
        let reg = ClientTsRegistry::new(&aug);
        let servers = aug
            .base()
            .replicas()
            .map(|i| AppEServer::new(&reg, i))
            .collect();
        let clients = aug
            .clients()
            .clients()
            .iter()
            .map(|(c, _)| (*c, reg.new_client_timestamp(*c)))
            .collect();
        ClientServerSystem {
            stores: vec![HashMap::new(); aug.base().num_replicas()],
            aug,
            reg,
            servers,
            clients,
            requests: Vec::new(),
            net: SimNetwork::new(delay, seed),
            trace: Trace::new(),
            next_request: 0,
            read_results: HashMap::new(),
            done_writes: HashMap::new(),
            sessions: Vec::new(),
        }
    }

    fn fresh_request(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// Submits a write of `v` to register `x` at replica `i` on behalf of
    /// client `c`. Served once predicate `J₂` admits it.
    ///
    /// # Panics
    ///
    /// Panics if `i ∉ R_c` or `x ∉ X_i`.
    pub fn write(&mut self, c: ClientId, i: ReplicaId, x: RegisterId, v: Value) -> RequestId {
        validate_op(&self.aug, c, i, x);
        let id = self.fresh_request();
        let mu = self.clients[&c].clone();
        self.requests.push(Request::Write {
            id,
            client: c,
            replica: i,
            register: x,
            value: v,
            mu,
        });
        self.pump();
        id
    }

    /// Submits a read of register `x` at replica `i` for client `c`.
    /// Served once predicate `J₁` admits it.
    ///
    /// # Panics
    ///
    /// Panics if `i ∉ R_c` or `x ∉ X_i`.
    pub fn read(&mut self, c: ClientId, i: ReplicaId, x: RegisterId) -> RequestId {
        validate_op(&self.aug, c, i, x);
        let id = self.fresh_request();
        let mu = self.clients[&c].clone();
        self.requests.push(Request::Read {
            id,
            client: c,
            replica: i,
            register: x,
            mu,
        });
        self.pump();
        id
    }

    /// Serves every currently admissible request (predicates `J₁`/`J₂`).
    fn pump(&mut self) {
        while let Some(pos) = self
            .requests
            .iter()
            .position(|rq| self.servers[rq.replica().index()].admits(&self.reg, rq.mu()))
        {
            match self.requests.remove(pos) {
                Request::Read {
                    id,
                    client,
                    replica,
                    register,
                    ..
                } => {
                    let entry = self.stores[replica.index()].get(&register);
                    self.read_results.insert(id, entry.map(|(v, _)| v.clone()));
                    self.sessions.push(SessionEvent::Read {
                        client,
                        register,
                        observed: entry.map(|&(_, u)| u),
                    });
                    let mu_c = self.clients.get_mut(&client).expect("known client");
                    self.servers[replica.index()].reply(&self.reg, mu_c);
                }
                Request::Write {
                    id,
                    client,
                    replica,
                    register,
                    value,
                    mu,
                } => {
                    let mu_c = self.clients.get_mut(&client).expect("known client");
                    let (msg, fanout) = self.servers[replica.index()].issue(
                        &self.reg,
                        self.aug.base(),
                        &mu,
                        mu_c,
                        register,
                        value.clone(),
                    );
                    let uid = UpdateId {
                        issuer: replica,
                        seq: msg.seq,
                    };
                    self.stores[replica.index()].insert(register, (value, uid));
                    self.sessions.push(SessionEvent::Write {
                        client,
                        update: uid,
                        register,
                    });
                    self.trace.record_issue_with_id(uid, register);
                    for h in fanout {
                        self.net.send(replica, h, msg.clone());
                    }
                    self.done_writes.insert(id, uid);
                }
            }
        }
    }

    /// Delivers one server-to-server update (predicate `J₃` + `merge₃`),
    /// then serves any unblocked requests. Returns `false` at quiescence.
    pub fn step(&mut self) -> bool {
        let Some((_, env)) = self.net.next_delivery() else {
            return false;
        };
        let dst = env.dst;
        for m in self.servers[dst.index()].deliver(&self.reg, env.msg) {
            let uid = UpdateId {
                issuer: m.issuer,
                seq: m.seq,
            };
            if let Some(v) = m.value {
                self.stores[dst.index()].insert(m.register, (v, uid));
            }
            self.trace.record_apply(uid, dst);
        }
        self.pump();
        true
    }

    /// Runs until no update is in flight and no request can be served.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
        self.pump();
    }

    /// The result of a completed read (`None` value = register unwritten).
    /// Returns `None` if the read hasn't been served yet.
    pub fn read_result(&self, id: RequestId) -> Option<&Option<Value>> {
        self.read_results.get(&id)
    }

    /// True if the write request has been served.
    pub fn is_write_done(&self, id: RequestId) -> bool {
        self.done_writes.contains_key(&id)
    }

    /// Requests still blocked on their predicate.
    pub fn blocked_requests(&self) -> usize {
        self.requests.len()
    }

    /// Checks replica-centric causal consistency of the server-side trace.
    pub fn check(&self) -> CheckReport {
        check(&self.trace, self.aug.base().placement())
    }

    /// The client's current timestamp (for size accounting).
    pub fn client_timestamp(&self, c: ClientId) -> &ClientTimestamp {
        &self.clients[&c]
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The served session events, in service order.
    pub fn session_events(&self) -> &[SessionEvent] {
        &self.sessions
    }

    /// Checks the client-visible session guarantees (read-your-writes and
    /// monotonic reads) — delegates to
    /// [`prcc_checker::check_sessions`], the same verdict machinery the
    /// threaded serving tier is checked with. Returns human-readable
    /// descriptions of any violations.
    pub fn check_sessions(&self) -> Vec<String> {
        prcc_checker::check_sessions(&self.trace, &self.sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, ClientAssignment};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }
    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    /// Path 0-1-2 with one client on {0, 2} and one on {1}.
    fn spanning_setup() -> ClientServerSystem {
        let g = topology::path(3);
        let mut clients = ClientAssignment::new(3);
        clients.assign(c(0), [r(0), r(2)]);
        clients.assign(c(1), [r(1)]);
        let aug = AugmentedShareGraph::new(g, clients);
        ClientServerSystem::new(aug, DelayModel::Fixed(2), 0)
    }

    #[test]
    fn simple_write_then_read() {
        let mut sys = spanning_setup();
        let w = sys.write(c(0), r(0), x(0), Value::from(5u64));
        assert!(sys.is_write_done(w)); // no dependencies: served at once
        sys.run_to_quiescence();
        // Register 0 is shared by replicas 0, 1; client 1 reads at 1.
        let rd = sys.read(c(1), r(1), x(0));
        sys.run_to_quiescence();
        assert_eq!(sys.read_result(rd), Some(&Some(Value::from(5u64))));
        assert!(sys.check().is_consistent());
    }

    #[test]
    fn client_session_dependency_across_replicas() {
        // Client 0 writes at replica 0, then reads its own write's effects
        // at replica 2 through a fresh write — session causality carried by
        // μ even though replicas 0 and 2 share nothing.
        let mut sys = spanning_setup();
        let w0 = sys.write(c(0), r(0), x(0), Value::from(1u64));
        assert!(sys.is_write_done(w0));
        let w2 = sys.write(c(0), r(2), x(1), Value::from(2u64));
        assert!(sys.is_write_done(w2));
        sys.run_to_quiescence();
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        assert_eq!(sys.blocked_requests(), 0);
    }

    #[test]
    fn read_blocks_until_dependency_arrives() {
        // Client 0 writes x0 at replica 0 (shared 0-1). Client 0's μ now
        // records the update. A read by client 0 at replica 2 is fine
        // (x1 etc.), but a *read at replica 0* by a client whose μ is
        // ahead of a fresh server blocks. Construct: client 0 writes at
        // r0, then reads at r2 — r2 has no dependency on r0's edges...
        // Use the spanning client to carry a dependency: client 0 writes
        // x0 at r0, then writes x1 at r2. Client 1 cannot exist at r2, so
        // instead verify r2's τ inherited e_01's counter via μ.
        let mut sys = spanning_setup();
        sys.write(c(0), r(0), x(0), Value::from(1u64));
        sys.write(c(0), r(2), x(1), Value::from(2u64));
        sys.run_to_quiescence();
        // Replica 1 stores both registers 0 and 1. It must apply the x1
        // write after the x0 write (safety) — checker verifies.
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        assert_eq!(sys.stores[1][&x(0)].0, Value::from(1u64));
        assert_eq!(sys.stores[1][&x(1)].0, Value::from(2u64));
    }

    #[test]
    fn monotonic_session_reads() {
        // After reading a value at one replica, the client's μ prevents
        // reading an older state at another replica storing the register.
        // Registers on a path are pairwise-shared, so use replica 1's
        // registers: x0 (0-1) and x1 (1-2).
        let mut sys = spanning_setup();
        sys.write(c(1), r(1), x(0), Value::from(10u64));
        sys.write(c(1), r(1), x(1), Value::from(11u64));
        sys.run_to_quiescence();
        // Client 0 reads x1 at replica 2 — sees 11 (delivered) and μ
        // captures replica 2's view.
        let rd = sys.read(c(0), r(2), x(1));
        sys.run_to_quiescence();
        assert_eq!(sys.read_result(rd), Some(&Some(Value::from(11u64))));
        // A subsequent read at replica 0 of x0: replica 0 has already
        // applied the x0 update (or the request waits until it does).
        let rd2 = sys.read(c(0), r(0), x(0));
        sys.run_to_quiescence();
        assert_eq!(sys.read_result(rd2), Some(&Some(Value::from(10u64))));
        assert!(sys.check().is_consistent());
    }

    #[test]
    fn session_guarantees_hold() {
        let mut sys = spanning_setup();
        sys.write(c(0), r(0), x(0), Value::from(1u64));
        sys.run_to_quiescence();
        // Read back own write through the other holder's replica… client 0
        // can only access r0 and r2; x0 lives at r0, r1. Read at r0.
        let rd = sys.read(c(0), r(0), x(0));
        sys.run_to_quiescence();
        assert_eq!(sys.read_result(rd), Some(&Some(Value::from(1u64))));
        assert!(sys.check_sessions().is_empty());
        assert!(sys.session_events().len() >= 2);
    }

    #[test]
    fn session_checker_catches_fabricated_violation() {
        // Sanity: the checker logic flags an artificial stale observation.
        let mut sys = spanning_setup();
        sys.write(c(1), r(1), x(0), Value::from(1u64)); // u1
        sys.write(c(1), r(1), x(0), Value::from(2u64)); // u2 (u1 ↪ u2)
        sys.run_to_quiescence();
        // Fabricate: pretend client 1 then read the OLD update.
        let u1 = match sys.session_events()[0].clone() {
            SessionEvent::Write { update, .. } => update,
            other => panic!("unexpected {other:?}"),
        };
        sys.sessions.push(SessionEvent::Read {
            client: c(1),
            register: x(0),
            observed: Some(u1),
        });
        let v = sys.check_sessions();
        assert_eq!(v.len(), 2, "{v:?}"); // RYW + monotonic both fire
        assert!(v[0].contains("read-your-writes"));
    }

    #[test]
    fn cross_replica_session_reads_stay_monotonic() {
        let mut sys = spanning_setup();
        for round in 0..4u64 {
            sys.write(c(1), r(1), x(0), Value::from(round));
            sys.write(c(1), r(1), x(1), Value::from(round));
            sys.run_to_quiescence();
            let _ = sys.read(c(0), r(0), x(0));
            let _ = sys.read(c(0), r(2), x(1));
            sys.run_to_quiescence();
        }
        assert!(sys.check_sessions().is_empty());
        assert!(sys.check().is_consistent());
    }

    #[test]
    fn unserved_read_returns_none() {
        let sys = spanning_setup();
        let bogus = RequestId(99);
        assert!(sys.read_result(bogus).is_none());
        assert!(!sys.is_write_done(bogus));
    }

    #[test]
    #[should_panic(expected = "not in R_")]
    fn client_cannot_access_foreign_replica() {
        let mut sys = spanning_setup();
        sys.write(c(1), r(0), x(0), Value::from(0u64));
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn client_cannot_write_unstored_register() {
        let mut sys = spanning_setup();
        sys.write(c(0), r(0), x(1), Value::from(0u64));
    }
}
