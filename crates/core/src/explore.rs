//! Exhaustive small-scope exploration of delivery interleavings — a
//! miniature model checker for the protocol.
//!
//! The paper's impossibility arguments quantify over *all* executions:
//! "there exists a delivery order such that…". The explorer makes that
//! quantifier executable: given a scenario of client writes with causal
//! preconditions, it enumerates **every** interleaving of message
//! deliveries (asynchronous, non-FIFO channels) and checks replica-centric
//! causal consistency in each. A scenario *verifies* when no interleaving
//! violates, and a counterexample interleaving is returned otherwise.
//!
//! State-space control: writes fire deterministically as soon as their
//! preconditions (updates applied at the issuer) hold, so branching comes
//! only from delivery choices; visited states are deduplicated by a
//! structural fingerprint.

use crate::message::UpdateMsg;
use crate::replica::Replica;
use crate::system::TrackerKind;
use crate::value::Value;
use prcc_checker::{check, Trace, UpdateId};
use prcc_sharegraph::{RegisterId, ReplicaId, ShareGraph};
use std::collections::HashSet;
use std::fmt;

/// One scripted client write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedWrite {
    /// The issuing replica.
    pub replica: ReplicaId,
    /// The register to write (must be stored at `replica`).
    pub register: RegisterId,
    /// Indices (into the script) of writes that must have been *applied
    /// at the issuer* before this write fires. Same-replica predecessors
    /// are implicit (they applied locally at issue).
    pub after_applied: Vec<usize>,
}

/// A scenario: a share graph plus scripted writes.
#[derive(Debug, Clone)]
pub struct Scenario {
    graph: ShareGraph,
    tracker: TrackerKind,
    writes: Vec<ScriptedWrite>,
    dropped_edges: Vec<(ReplicaId, prcc_sharegraph::EdgeId)>,
    max_states: usize,
}

impl Scenario {
    /// Starts a scenario over `graph` with the exact edge-indexed tracker.
    pub fn new(graph: ShareGraph) -> Self {
        Scenario {
            graph,
            tracker: TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            writes: Vec::new(),
            dropped_edges: Vec::new(),
            max_states: 2_000_000,
        }
    }

    /// Selects the tracker.
    pub fn tracker(mut self, kind: TrackerKind) -> Self {
        self.tracker = kind;
        self
    }

    /// Makes replica `i` oblivious to edge `e` (Theorem 8 configurations).
    pub fn drop_edge(mut self, i: ReplicaId, e: prcc_sharegraph::EdgeId) -> Self {
        self.dropped_edges.push((i, e));
        self
    }

    /// Adds a write with no cross-replica precondition. Returns its index.
    pub fn write(&mut self, replica: ReplicaId, register: RegisterId) -> usize {
        self.write_after(replica, register, [])
    }

    /// Adds a write that fires only after the given script indices have
    /// been applied at `replica`. Returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `replica` does not store `register`, or a precondition
    /// index is out of range / not yet defined.
    pub fn write_after<I: IntoIterator<Item = usize>>(
        &mut self,
        replica: ReplicaId,
        register: RegisterId,
        after: I,
    ) -> usize {
        assert!(
            self.graph.placement().stores(replica, register),
            "{register} not stored at {replica}"
        );
        let after_applied: Vec<usize> = after.into_iter().collect();
        for &a in &after_applied {
            assert!(a < self.writes.len(), "precondition {a} out of range");
        }
        self.writes.push(ScriptedWrite {
            replica,
            register,
            after_applied,
        });
        self.writes.len() - 1
    }

    /// Caps the number of distinct states explored (default 2M).
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Explores every interleaving.
    pub fn explore(&self) -> ExplorationResult {
        Explorer::new(self).run()
    }
}

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Distinct states visited.
    pub states: usize,
    /// Complete executions (all messages delivered, all writes fired).
    pub executions: usize,
    /// Executions whose final trace violated consistency, with one
    /// exemplar violation description.
    pub violations: usize,
    /// An exemplar violating delivery order (indices into the script's
    /// update ids), if any.
    pub counterexample: Option<String>,
    /// True if the state cap was hit (results then cover only part of the
    /// space).
    pub truncated: bool,
}

impl ExplorationResult {
    /// True if every explored execution was causally consistent and the
    /// space was fully covered.
    pub fn verified(&self) -> bool {
        self.violations == 0 && !self.truncated
    }
}

impl fmt::Display for ExplorationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} executions, {} violating{}{}",
            self.states,
            self.executions,
            self.violations,
            if self.truncated { " (TRUNCATED)" } else { "" },
            match &self.counterexample {
                Some(c) => format!("; e.g. {c}"),
                None => String::new(),
            }
        )
    }
}

/// A snapshot of the whole system: replicas + in-flight messages +
/// script progress.
#[derive(Clone)]
struct State {
    replicas: Vec<Replica>,
    /// In-flight `(dst, msg)` pairs, order-independent (channels are
    /// non-FIFO, so the set fully determines reachable behaviour).
    in_flight: Vec<(ReplicaId, UpdateMsg)>,
    /// Which script writes have fired, and their update ids.
    fired: Vec<Option<UpdateId>>,
    /// Which script writes have been applied at each replica:
    /// applied[replica][write_idx].
    applied: Vec<Vec<bool>>,
    /// Apply order per replica — part of the fingerprint, because safety
    /// depends on the *order* of applies, not just the applied set.
    apply_order: Vec<Vec<UpdateId>>,
    trace: Trace,
}

impl State {
    /// Structural fingerprint for visited-state deduplication.
    fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for (i, r) in self.replicas.iter().enumerate() {
            (i, r.applied_count(), r.pending_count()).hash(&mut h);
        }
        let mut fl: Vec<(u32, u32, u64)> = self
            .in_flight
            .iter()
            .map(|(d, m)| (d.raw(), m.issuer.raw(), m.seq))
            .collect();
        fl.sort_unstable();
        fl.hash(&mut h);
        for f in &self.fired {
            f.is_some().hash(&mut h);
        }
        for order in &self.apply_order {
            for u in order {
                (u.issuer.raw(), u.seq).hash(&mut h);
            }
            u64::MAX.hash(&mut h); // per-replica separator
        }
        h.finish()
    }
}

struct Explorer<'a> {
    scenario: &'a Scenario,
    visited: HashSet<u64>,
    states: usize,
    executions: usize,
    violations: usize,
    counterexample: Option<String>,
    truncated: bool,
}

impl<'a> Explorer<'a> {
    fn new(scenario: &'a Scenario) -> Self {
        Explorer {
            scenario,
            visited: HashSet::new(),
            states: 0,
            executions: 0,
            violations: 0,
            counterexample: None,
            truncated: false,
        }
    }

    fn initial_state(&self) -> State {
        let g = &self.scenario.graph;
        let n = g.num_replicas();
        let (_, replicas) =
            self.scenario
                .tracker
                .build_replicas(g, g.placement(), &self.scenario.dropped_edges);
        State {
            replicas,
            in_flight: Vec::new(),
            fired: vec![None; self.scenario.writes.len()],
            applied: vec![vec![false; self.scenario.writes.len()]; n],
            apply_order: vec![Vec::new(); n],
            trace: Trace::new(),
        }
    }

    fn run(mut self) -> ExplorationResult {
        let mut init = self.initial_state();
        self.fire_enabled_writes(&mut init);
        self.dfs(init);
        ExplorationResult {
            states: self.states,
            executions: self.executions,
            violations: self.violations,
            counterexample: self.counterexample.take(),
            truncated: self.truncated,
        }
    }

    /// Fires every script write whose preconditions hold, in script order,
    /// repeating until a fixpoint (a write may enable another on the same
    /// replica).
    fn fire_enabled_writes(&self, st: &mut State) {
        let g = &self.scenario.graph;
        loop {
            let mut fired_any = false;
            for (idx, w) in self.scenario.writes.iter().enumerate() {
                if st.fired[idx].is_some() {
                    continue;
                }
                let ok = w
                    .after_applied
                    .iter()
                    .all(|&pre| st.fired[pre].is_some() && st.applied[w.replica.index()][pre]);
                if !ok {
                    continue;
                }
                let recipients: Vec<ReplicaId> = match self.scenario.tracker {
                    TrackerKind::EdgeIndexed(_) | TrackerKind::FullDeps => g
                        .placement()
                        .holders(w.register)
                        .iter()
                        .copied()
                        .filter(|&h| h != w.replica)
                        .collect(),
                    TrackerKind::VectorClock => g.replicas().filter(|&h| h != w.replica).collect(),
                };
                let data_holders: Vec<ReplicaId> = g
                    .placement()
                    .holders(w.register)
                    .iter()
                    .copied()
                    .filter(|&h| h != w.replica)
                    .collect();
                let (msg, recipients) = st.replicas[w.replica.index()]
                    .write(w.register, Value::from(idx as u64), recipients)
                    .expect("scripted write valid");
                let uid = UpdateId {
                    issuer: w.replica,
                    seq: msg.seq,
                };
                st.trace.record_issue_with_id(uid, w.register);
                st.fired[idx] = Some(uid);
                st.applied[w.replica.index()][idx] = true;
                for dst in recipients {
                    let mut m = msg.clone();
                    if !data_holders.contains(&dst) {
                        m.value = None;
                    }
                    st.in_flight.push((dst, m));
                }
                fired_any = true;
            }
            if !fired_any {
                return;
            }
        }
    }

    fn dfs(&mut self, st: State) {
        if self.states >= self.scenario.max_states {
            self.truncated = true;
            return;
        }
        let fp = st.fingerprint();
        if !self.visited.insert(fp) {
            return;
        }
        self.states += 1;
        if st.in_flight.is_empty() {
            self.executions += 1;
            // Terminal: check the trace. (Liveness: stuck pending shows up
            // as missing applies.)
            let rep = check(&st.trace, self.scenario.graph.placement());
            let unfired = st.fired.iter().any(Option::is_none);
            if !rep.is_consistent() || unfired {
                self.violations += 1;
                if self.counterexample.is_none() {
                    self.counterexample = Some(if unfired {
                        "some scripted writes never became enabled".to_owned()
                    } else {
                        rep.violations[0].to_string()
                    });
                }
            }
            return;
        }
        // Branch over every deliverable message.
        for k in 0..st.in_flight.len() {
            let mut next = st.clone();
            let (dst, msg) = next.in_flight.swap_remove(k);
            let applied = next.replicas[dst.index()].receive(msg);
            for a in &applied {
                let uid = UpdateId {
                    issuer: a.msg.issuer,
                    seq: a.msg.seq,
                };
                next.trace.record_apply(uid, dst);
                next.apply_order[dst.index()].push(uid);
                // Mark script progress.
                if let Some(idx) = next.fired.iter().position(|f| *f == Some(uid)) {
                    next.applied[dst.index()][idx] = true;
                }
            }
            self.fire_enabled_writes(&mut next);
            self.dfs(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{edge, topology};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn fifo_pair_verified_exhaustively() {
        let mut s = Scenario::new(topology::path(2));
        s.write(r(0), x(0));
        s.write(r(0), x(0));
        s.write(r(0), x(0));
        let res = s.explore();
        assert!(res.verified(), "{res}");
        // 3 messages to one destination: 3! = 6 orders, but dedup merges.
        assert!(res.executions >= 1);
    }

    #[test]
    fn triangle_causal_chain_verified() {
        // r0 → u0; r1 writes after applying u0; r2 must always see them in
        // order — over ALL interleavings.
        let g = prcc_sharegraph::ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .build(),
        );
        let mut s = Scenario::new(g);
        let u0 = s.write(r(0), x(0));
        s.write_after(r(1), x(0), [u0]);
        let res = s.explore();
        assert!(res.verified(), "{res}");
        assert!(res.states > 3);
    }

    #[test]
    fn ring4_chain_verified() {
        let mut s = Scenario::new(topology::ring(4));
        let u0 = s.write(r(0), x(0));
        let u1 = s.write_after(r(1), x(1), [u0]);
        let u2 = s.write_after(r(2), x(2), [u1]);
        s.write_after(r(3), x(3), [u2]);
        let res = s.explore();
        assert!(res.verified(), "{res}");
    }

    #[test]
    fn oblivious_receiver_found_by_search() {
        // Drop e_01 at the receiver: the explorer finds the violating
        // interleaving automatically (no hand-built schedule).
        let mut s = Scenario::new(topology::path(2)).drop_edge(r(1), edge(0, 1));
        s.write(r(0), x(0));
        s.write(r(0), x(0));
        let res = s.explore();
        assert!(!res.verified());
        assert!(res.violations > 0);
        assert!(res.counterexample.is_some());
    }

    #[test]
    fn truncated_tracker_counterexample_found() {
        // Ring of 4 with 3-edge loop cap: drops every far edge. The chain
        // scenario has an interleaving where the last update beats the
        // first — found automatically.
        let mut s = Scenario::new(topology::ring(4)).tracker(TrackerKind::EdgeIndexed(
            prcc_sharegraph::LoopConfig::bounded(3),
        ));
        let u0 = s.write(r(1), x(0)); // shared with r0
        let u1 = s.write_after(r(1), x(1), [u0]);
        let u2 = s.write_after(r(2), x(2), [u1]);
        s.write_after(r(3), x(3), [u2]); // shared with r0
        let res = s.explore();
        assert!(res.violations > 0, "{res}");
        // The exact tracker verifies the same scenario.
        let mut s2 = Scenario::new(topology::ring(4));
        let v0 = s2.write(r(1), x(0));
        let v1 = s2.write_after(r(1), x(1), [v0]);
        let v2 = s2.write_after(r(2), x(2), [v1]);
        s2.write_after(r(3), x(3), [v2]);
        let res2 = s2.explore();
        assert!(res2.verified(), "{res2}");
    }

    #[test]
    fn vector_clock_scenario_verified() {
        let mut s = Scenario::new(topology::path(3)).tracker(TrackerKind::VectorClock);
        let u0 = s.write(r(0), x(0));
        s.write_after(r(1), x(1), [u0]);
        let res = s.explore();
        assert!(res.verified(), "{res}");
    }

    #[test]
    fn state_cap_reports_truncation() {
        let mut s = Scenario::new(topology::ring(4)).max_states(3);
        for i in 0..4u32 {
            s.write(r(i), x(i));
        }
        let res = s.explore();
        assert!(res.truncated);
        assert!(!res.verified());
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn scripted_write_validated() {
        let mut s = Scenario::new(topology::path(2));
        s.write(r(0), x(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn precondition_validated() {
        let mut s = Scenario::new(topology::path(2));
        s.write_after(r(0), x(0), [3]);
    }
}
