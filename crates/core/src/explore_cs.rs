//! Exhaustive interleaving exploration for the **client-server**
//! protocol (Appendix E) — the client-server counterpart of
//! [`explore`](crate::explore).
//!
//! Nondeterminism in the client-server architecture comes from two
//! sources: the order server-to-server updates are delivered, and the
//! order blocked client requests are served relative to those deliveries.
//! The explorer branches over both. Each client is sequential (its ops
//! fire in script order); cross-client causality can be scripted with
//! explicit preconditions. Servers run the same admit / issue / deliver
//! transitions as the lockstep
//! [`ClientServerSystem`](crate::ClientServerSystem).

use crate::client_server::AppEServer;
use crate::message::UpdateMsg;
use crate::value::Value;
use prcc_checker::{check, Trace, UpdateId};
use prcc_sharegraph::{AugmentedShareGraph, ClientId, RegisterId, ReplicaId};
use prcc_timestamp::{ClientTimestamp, ClientTsRegistry};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One scripted client operation (a write; reads don't alter server state
/// beyond `μ` merges, and writes subsume their gating behaviour).
#[derive(Debug, Clone)]
pub struct CsOp {
    /// The issuing client.
    pub client: ClientId,
    /// The target replica (must be in `R_c`).
    pub replica: ReplicaId,
    /// The register to write (must be stored at `replica`).
    pub register: RegisterId,
    /// Script indices (across all clients) that must have been *served*
    /// before this op may fire. Same-client order is implicit.
    pub after_served: Vec<usize>,
}

/// A client-server exploration scenario.
pub struct CsScenario {
    aug: AugmentedShareGraph,
    reg: ClientTsRegistry,
    ops: Vec<CsOp>,
    max_states: usize,
}

impl fmt::Debug for CsScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsScenario")
            .field("ops", &self.ops.len())
            .finish()
    }
}

impl CsScenario {
    /// Starts a scenario over an augmented share graph.
    pub fn new(aug: AugmentedShareGraph) -> Self {
        let reg = ClientTsRegistry::new(&aug);
        CsScenario {
            aug,
            reg,
            ops: Vec::new(),
            max_states: 500_000,
        }
    }

    /// Adds a write op; returns its script index.
    ///
    /// # Panics
    ///
    /// Panics if `replica ∉ R_c`, the register is not stored there, or a
    /// precondition index is out of range.
    pub fn write_after<I: IntoIterator<Item = usize>>(
        &mut self,
        client: ClientId,
        replica: ReplicaId,
        register: RegisterId,
        after: I,
    ) -> usize {
        let rs = self
            .aug
            .clients()
            .replicas_of(client)
            .unwrap_or_else(|| panic!("unknown client {client}"));
        assert!(rs.contains(&replica), "replica {replica} not in R_{client}");
        assert!(
            self.aug.base().placement().stores(replica, register),
            "register {register} not stored at {replica}"
        );
        let after_served: Vec<usize> = after.into_iter().collect();
        for &a in &after_served {
            assert!(a < self.ops.len(), "precondition {a} out of range");
        }
        self.ops.push(CsOp {
            client,
            replica,
            register,
            after_served,
        });
        self.ops.len() - 1
    }

    /// Adds an unconditioned write; returns its script index.
    pub fn write(&mut self, client: ClientId, replica: ReplicaId, register: RegisterId) -> usize {
        self.write_after(client, replica, register, [])
    }

    /// Caps the number of distinct states explored.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Explores all interleavings of deliveries and request service.
    pub fn explore(&self) -> crate::explore::ExplorationResult {
        let mut ex = CsExplorer {
            scenario: self,
            visited: HashSet::new(),
            states: 0,
            executions: 0,
            violations: 0,
            counterexample: None,
            truncated: false,
        };
        let init = ex.initial_state();
        ex.dfs(init);
        crate::explore::ExplorationResult {
            states: ex.states,
            executions: ex.executions,
            violations: ex.violations,
            counterexample: ex.counterexample,
            truncated: ex.truncated,
        }
    }
}

#[derive(Clone)]
struct CsState {
    servers: Vec<AppEServer>,
    /// Per server: the updates it applied, in order.
    apply_order: Vec<Vec<UpdateId>>,
    clients: HashMap<ClientId, ClientTimestamp>,
    in_flight: Vec<(ReplicaId, UpdateMsg)>,
    served: Vec<bool>,
    serve_order: Vec<usize>,
    trace: Trace,
}

impl CsState {
    fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for (s, order) in self.servers.iter().zip(&self.apply_order) {
            s.counts().hash(&mut h);
            for u in order {
                (u.issuer.raw(), u.seq).hash(&mut h);
            }
            u64::MAX.hash(&mut h);
        }
        let mut fl: Vec<(u32, u32, u64)> = self
            .in_flight
            .iter()
            .map(|(d, m)| (d.raw(), m.issuer.raw(), m.seq))
            .collect();
        fl.sort_unstable();
        fl.hash(&mut h);
        self.serve_order.hash(&mut h);
        h.finish()
    }
}

struct CsExplorer<'a> {
    scenario: &'a CsScenario,
    visited: HashSet<u64>,
    states: usize,
    executions: usize,
    violations: usize,
    counterexample: Option<String>,
    truncated: bool,
}

impl CsExplorer<'_> {
    fn initial_state(&self) -> CsState {
        let sc = self.scenario;
        let g = sc.aug.base();
        CsState {
            servers: g.replicas().map(|i| AppEServer::new(&sc.reg, i)).collect(),
            apply_order: vec![Vec::new(); g.num_replicas()],
            clients: sc
                .aug
                .clients()
                .clients()
                .iter()
                .map(|(c, _)| (*c, sc.reg.new_client_timestamp(*c)))
                .collect(),
            in_flight: Vec::new(),
            served: vec![false; sc.ops.len()],
            serve_order: Vec::new(),
            trace: Trace::new(),
        }
    }

    /// Op `k` is enabled when its client-session predecessor and explicit
    /// preconditions are served AND predicate `J₂` admits it now.
    fn enabled_ops(&self, st: &CsState) -> Vec<usize> {
        let ops = &self.scenario.ops;
        (0..ops.len())
            .filter(|&k| {
                if st.served[k] {
                    return false;
                }
                let op = &ops[k];
                // Session order: previous op by the same client served.
                if let Some(prev) = (0..k).rev().find(|&p| ops[p].client == op.client) {
                    if !st.served[prev] {
                        return false;
                    }
                }
                if !op.after_served.iter().all(|&p| st.served[p]) {
                    return false;
                }
                st.servers[op.replica.index()].admits(&self.scenario.reg, &st.clients[&op.client])
            })
            .collect()
    }

    fn dfs(&mut self, st: CsState) {
        if self.states >= self.scenario.max_states {
            self.truncated = true;
            return;
        }
        let fp = st.fingerprint();
        if !self.visited.insert(fp) {
            return;
        }
        self.states += 1;

        let enabled = self.enabled_ops(&st);
        if enabled.is_empty() && st.in_flight.is_empty() {
            self.executions += 1;
            let all_served = st.served.iter().all(|&s| s);
            let rep = check(&st.trace, self.scenario.aug.base().placement());
            if !rep.is_consistent() || !all_served {
                self.violations += 1;
                if self.counterexample.is_none() {
                    self.counterexample = Some(if !all_served {
                        "some client requests starve".to_owned()
                    } else {
                        rep.violations[0].to_string()
                    });
                }
            }
            return;
        }
        let sc = self.scenario;
        // Serve an admitted request…
        for k in enabled {
            let op = &sc.ops[k];
            let mut next = st.clone();
            let mu = next.clients[&op.client].clone();
            let mu_c = next.clients.get_mut(&op.client).expect("known client");
            let (msg, fanout) = next.servers[op.replica.index()].issue(
                &sc.reg,
                sc.aug.base(),
                &mu,
                mu_c,
                op.register,
                Value::from(k as u64),
            );
            let uid = UpdateId {
                issuer: op.replica,
                seq: msg.seq,
            };
            next.trace.record_issue_with_id(uid, op.register);
            next.in_flight
                .extend(fanout.into_iter().map(|h| (h, msg.clone())));
            next.served[k] = true;
            next.serve_order.push(k);
            self.dfs(next);
        }
        // …or deliver an in-flight update.
        for idx in 0..st.in_flight.len() {
            let mut next = st.clone();
            let (dst, msg) = next.in_flight.swap_remove(idx);
            for m in next.servers[dst.index()].deliver(&sc.reg, msg) {
                let uid = UpdateId {
                    issuer: m.issuer,
                    seq: m.seq,
                };
                next.trace.record_apply(uid, dst);
                next.apply_order[dst.index()].push(uid);
            }
            self.dfs(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, ClientAssignment};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    fn spanning_aug() -> AugmentedShareGraph {
        let g = topology::path(3);
        let mut clients = ClientAssignment::new(3);
        clients.assign(c(0), [r(0), r(2)]);
        clients.assign(c(1), [r(1)]);
        AugmentedShareGraph::new(g, clients)
    }

    #[test]
    fn single_session_verified() {
        let mut s = CsScenario::new(spanning_aug());
        s.write(c(0), r(0), x(0));
        s.write(c(0), r(2), x(1)); // session order implicit
        let res = s.explore();
        assert!(res.verified(), "{res}");
        assert!(res.states > 1);
    }

    #[test]
    fn cross_client_dependency_verified() {
        let mut s = CsScenario::new(spanning_aug());
        let w0 = s.write(c(0), r(0), x(0));
        s.write_after(c(1), r(1), x(1), [w0]);
        let res = s.explore();
        assert!(res.verified(), "{res}");
    }

    #[test]
    fn migrating_client_all_interleavings() {
        // The mobile client alternates ends twice; every delivery/serve
        // interleaving must stay consistent and serve everything.
        let mut s = CsScenario::new(spanning_aug());
        s.write(c(0), r(0), x(0));
        s.write(c(0), r(2), x(1));
        s.write(c(0), r(0), x(0));
        s.write(c(1), r(1), x(0));
        let res = s.explore();
        assert!(res.verified(), "{res}");
        assert!(res.executions >= 1);
    }

    #[test]
    #[should_panic(expected = "not in R_")]
    fn foreign_replica_rejected() {
        let mut s = CsScenario::new(spanning_aug());
        s.write(c(1), r(0), x(0));
    }

    #[test]
    fn state_cap_reports_truncation() {
        let mut s = CsScenario::new(spanning_aug()).max_states(2);
        s.write(c(0), r(0), x(0));
        s.write(c(1), r(1), x(1));
        let res = s.explore();
        assert!(res.truncated);
    }
}
