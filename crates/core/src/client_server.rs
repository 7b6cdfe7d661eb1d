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
//! An App E server is a [`Replica`] over an [`EdgeTracker`] on the
//! augmented registry ([`ClientTsRegistry::peer`]): `J₃` and `merge₃` are
//! [`Replica::receive`], values and their producing updates live in the
//! replica's store, and a served write folds `μ` into `τ`
//! ([`ClientTsRegistry::fold_client`]) and then calls [`Replica::write`].
//! This module adds the client half — admission and replies — once, for
//! the lockstep [`ClientServerSystem`] and the client-server explorer
//! ([`CsScenario`](crate::CsScenario)) alike.

use crate::engine::recipients;
use crate::message::UpdateMsg;
use crate::replica::Replica;
use crate::tracker::EdgeTracker;
use crate::value::Value;
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{DelayModel, SimNetwork};
use prcc_sharegraph::{AugmentedShareGraph, ClientId, RegisterId, ReplicaId};
use prcc_timestamp::{ClientTimestamp, ClientTsRegistry, EdgeTimestamp};
use std::collections::HashMap;
use std::fmt;

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

/// The initial deployment: one App E server per replica — a [`Replica`]
/// over an [`EdgeTracker`] on the augmented registry — and each client's
/// zero `μ_c`.
pub(crate) fn start(
    aug: &AugmentedShareGraph,
    reg: &ClientTsRegistry,
) -> (Vec<Replica>, HashMap<ClientId, ClientTimestamp>) {
    let p = aug.base().placement();
    let servers = p.replicas().map(|i| {
        let tracker = EdgeTracker::new(reg.peer().clone(), i);
        Replica::new(i, p.registers_of(i).clone(), Box::new(tracker))
    });
    let clients = aug.clients().clients().iter();
    (
        servers.collect(),
        clients
            .map(|(c, _)| (*c, reg.new_client_timestamp(*c)))
            .collect(),
    )
}

/// The server's timestamp `τ_i`.
fn tau(server: &mut Replica) -> &mut EdgeTimestamp {
    server
        .edge_timestamp()
        .expect("an App E server runs an EdgeTracker")
}

/// Predicates `J₁`/`J₂`: may `server` serve a request carrying the client
/// view `mu` now?
pub(crate) fn admits(reg: &ClientTsRegistry, server: &mut Replica, mu: &ClientTimestamp) -> bool {
    reg.request_ready(tau(server), mu)
}

/// The reply to a served request: `merge₁`/`merge₂` of `τ_i` into the
/// client's `μ_c`.
pub(crate) fn reply(reg: &ClientTsRegistry, server: &mut Replica, mu_c: &mut ClientTimestamp) {
    reg.merge_into_client(mu_c, tau(server));
}

/// Serves an admitted write of `value` to `register` under the request's
/// view `mu`: `advance(i, τ, c, μ, x, v)` is the fold of `mu` into `τ_i`
/// followed by [`Replica::write`]; then the reply into the client's
/// current `mu_c`. Returns the update and the other holders it fans out
/// to.
pub(crate) fn serve_write(
    aug: &AugmentedShareGraph,
    reg: &ClientTsRegistry,
    server: &mut Replica,
    mu: &ClientTimestamp,
    mu_c: &mut ClientTimestamp,
    register: RegisterId,
    value: Value,
) -> (UpdateMsg, Vec<ReplicaId>) {
    reg.fold_client(tau(server), mu);
    let to = recipients(aug.base(), false, server.id(), register);
    let out = server
        .write(register, value, to)
        .expect("validated op: the register is stored here");
    reply(reg, server, mu_c);
    out
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
    servers: Vec<Replica>,
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
        let (servers, clients) = start(&aug, &reg);
        ClientServerSystem {
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
        while let Some(pos) = (0..self.requests.len()).find(|&k| {
            let rq = &self.requests[k];
            admits(&self.reg, &mut self.servers[rq.replica().index()], rq.mu())
        }) {
            let rq = self.requests.remove(pos);
            let server = &mut self.servers[rq.replica().index()];
            match rq {
                Request::Read {
                    id,
                    client,
                    register,
                    ..
                } => {
                    self.read_results.insert(id, server.read(register).cloned());
                    self.sessions.push(SessionEvent::Read {
                        client,
                        register,
                        observed: server.store_cow().src_of(register),
                    });
                    let mu_c = self.clients.get_mut(&client).expect("known client");
                    reply(&self.reg, server, mu_c);
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
                    let (msg, fanout) =
                        serve_write(&self.aug, &self.reg, server, &mu, mu_c, register, value);
                    let uid = UpdateId {
                        issuer: replica,
                        seq: msg.seq,
                    };
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
        for a in self.servers[dst.index()].receive(env.msg) {
            let uid = UpdateId {
                issuer: a.msg.issuer,
                seq: a.msg.seq,
            };
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
        assert_eq!(sys.servers[1].read(x(0)), Some(&Value::from(1u64)));
        assert_eq!(sys.servers[1].read(x(1)), Some(&Value::from(2u64)));
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
