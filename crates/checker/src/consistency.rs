//! Replica-centric causal consistency checking (Definition 2).
//!
//! * **Safety**: when replica `i` applies `u1` (register in `X_i`), every
//!   `u2 ↪ u1` writing some register of `X_i` must already be applied at
//!   `i`.
//! * **Liveness**: by the end of the (quiescent) execution, every update
//!   on register `x` has been applied at every replica storing `x`.
//!
//! The checker replays a [`Trace`] against the exact happened-before
//! relation ([`HbGraph`]) — it is oblivious to how the protocol tracked
//! causality, so it catches both under-tracking (safety violations) and
//! lost updates (liveness violations).

use crate::hb::HbGraph;
use crate::trace::{Event, Trace, UpdateId};
use prcc_sharegraph::{Placement, RegisterId, ReplicaId};
use std::collections::HashSet;
use std::fmt;

/// A consistency violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `update` was applied at `at` before its causal predecessor
    /// `missing` (whose register `at` also stores).
    Safety {
        /// The update that was applied too early.
        update: UpdateId,
        /// The replica that applied it.
        at: ReplicaId,
        /// The causally preceding update not yet applied there.
        missing: UpdateId,
    },
    /// `update` (on a register stored at `at`) was never applied at `at`.
    Liveness {
        /// The update that never arrived.
        update: UpdateId,
        /// The replica that should have applied it.
        at: ReplicaId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Safety {
                update,
                at,
                missing,
            } => write!(
                f,
                "safety: {update} applied at {at} before its dependency {missing}"
            ),
            Violation::Liveness { update, at } => {
                write!(f, "liveness: {update} never applied at {at}")
            }
        }
    }
}

/// The outcome of checking a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// Number of apply events checked.
    pub applies_checked: usize,
}

impl CheckReport {
    /// True if the trace is causally consistent (and live).
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Safety violations only.
    pub fn safety_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::Safety { .. }))
    }

    /// Liveness violations only.
    pub fn liveness_violations(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::Liveness { .. }))
    }
}

/// Checks a complete (quiescent) execution for replica-centric causal
/// consistency under `placement`.
///
/// # Examples
///
/// ```
/// use prcc_checker::{Trace, check};
/// use prcc_sharegraph::{Placement, RegisterId, ReplicaId};
///
/// let p = Placement::builder(2).share(0, [0, 1]).build();
/// let mut t = Trace::new();
/// let u = t.record_issue(ReplicaId::new(0), RegisterId::new(0));
/// t.record_apply(u, ReplicaId::new(1));
/// assert!(check(&t, &p).is_consistent());
/// ```
pub fn check(trace: &Trace, placement: &Placement) -> CheckReport {
    let hb = HbGraph::build(trace);
    check_with_hb(trace, placement, &hb)
}

/// Like [`check`] but reuses a prebuilt happened-before graph.
pub fn check_with_hb(trace: &Trace, placement: &Placement, hb: &HbGraph) -> CheckReport {
    let n = placement.num_replicas();
    let mut report = CheckReport::default();
    // Per replica: which updates (by issue-order index) are applied.
    let mut applied = vec![vec![false; hb.updates().len()]; n];
    // Per issuer: its updates so far, in its issue order, and their registers.
    let mut issued: Vec<Vec<(usize, RegisterId)>> = vec![Vec::new(); n];
    // Per (replica, issuer): how many of the issuer's updates, from the
    // first, are applied at the replica or not stored there.
    let mut covered = vec![vec![0; n]; n];

    for ev in trace.events() {
        match *ev {
            Event::Issue { update, register } => {
                let i = hb.index[&update];
                issued[update.issuer.index()].push((i, register));
                applied[update.issuer.index()][i] = true;
            }
            Event::Apply { update, at } => {
                report.applies_checked += 1;
                let i = hb.index[&update];
                applied[at.index()][i] = true;
                // Safety: the update's past is a prefix of each issuer's
                // updates, and `at` must cover the part it stores. Only
                // a prefix that falls short lists what is missing.
                let done = &applied[at.index()];
                let missed = |&(k, x): &(usize, RegisterId)| !done[k] && placement.stores(at, x);
                let mut missing = Vec::new();
                for ((c, mine), &p) in covered[at.index()].iter_mut().zip(&issued).zip(hb.past(i)) {
                    while mine.get(*c).is_some_and(|e| !missed(e)) {
                        *c += 1;
                    }
                    let short = &mine[(*c).min(p as usize)..p as usize];
                    missing.extend(short.iter().filter(|e| missed(e)).map(|e| e.0));
                }
                missing.sort_unstable();
                let safety = |k: usize| Violation::Safety {
                    update,
                    at,
                    missing: hb.updates()[k],
                };
                report.violations.extend(missing.into_iter().map(safety));
            }
        }
    }

    // Liveness: every update reached every holder of its register.
    for (i, &update) in hb.updates().iter().enumerate() {
        let reg = trace.register_of(update).expect("register metadata");
        let unreached = placement
            .holders(reg)
            .iter()
            .filter(|h| !applied[h.index()][i]);
        report
            .violations
            .extend(unreached.map(|&at| Violation::Liveness { update, at }));
    }
    report
}

/// The causal past of `replica` at the end of the trace (Definition 6's
/// vertex set `S`): all updates applied there plus their hb-predecessors,
/// read off the replica's vector in `hb`, which `trace` built.
pub fn causal_past(trace: &Trace, replica: ReplicaId, hb: &HbGraph) -> HashSet<UpdateId> {
    debug_assert_eq!(trace.num_updates(), hb.updates().len());
    let Some(reached) = hb.reached.get(&replica) else {
        return HashSet::new();
    };
    let within = |(i, u): &(usize, &UpdateId)| {
        let j = u.issuer.index();
        hb.past(*i)[j] <= reached[j]
    };
    hb.updates()
        .iter()
        .enumerate()
        .filter(within)
        .map(|(_, &u)| u)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::RegisterId;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    /// Three replicas all sharing register 0.
    fn full3() -> Placement {
        Placement::builder(3).share(0, [0, 1, 2]).build()
    }

    #[test]
    fn consistent_broadcast_passes() {
        let p = full3();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        t.record_apply(u1, r(2));
        let u2 = t.record_issue(r(1), x(0));
        t.record_apply(u2, r(0));
        t.record_apply(u2, r(2));
        let rep = check(&t, &p);
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        assert_eq!(rep.applies_checked, 4);
    }

    #[test]
    fn causal_order_violation_detected() {
        // u1 ↪ u2 (r1 applied u1 before issuing u2), but r2 applies u2
        // first.
        let p = full3();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        let u2 = t.record_issue(r(1), x(0));
        t.record_apply(u2, r(2)); // violation: u1 not yet at r2
        t.record_apply(u1, r(2));
        t.record_apply(u2, r(0));
        let rep = check(&t, &p);
        assert_eq!(rep.safety_violations().count(), 1, "{:?}", rep.violations);
        match &rep.violations[0] {
            Violation::Safety {
                update,
                at,
                missing,
            } => {
                assert_eq!(*update, u2);
                assert_eq!(*at, r(2));
                assert_eq!(*missing, u1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_delivery_is_liveness_violation() {
        let p = full3();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        // never applied at r2
        let rep = check(&t, &p);
        assert_eq!(rep.liveness_violations().count(), 1);
        assert_eq!(
            rep.violations[0],
            Violation::Liveness {
                update: u1,
                at: r(2)
            }
        );
    }

    #[test]
    fn partial_replication_ignores_unstored_registers() {
        // r0, r1 share reg 0; r2 stores only reg 1. An update to reg 0
        // need not reach r2, and dependencies on reg-0 updates don't gate
        // r2's applies.
        let p = Placement::builder(3)
            .share(0, [0, 1])
            .share(1, [1, 2])
            .build();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        let u2 = t.record_issue(r(1), x(1)); // depends on u1
        t.record_apply(u2, r(2)); // fine: r2 doesn't store reg 0
        let rep = check(&t, &p);
        assert!(rep.is_consistent(), "{:?}", rep.violations);
    }

    #[test]
    fn dependency_through_unshared_register_still_gates() {
        // Ring-like: r2 stores regs 0 and 1. u1 (reg 0) ↪ u2 (reg 1); r2
        // must apply u1 before u2.
        let p = Placement::builder(3)
            .share(0, [0, 1, 2])
            .share(1, [1, 2])
            .build();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        let u2 = t.record_issue(r(1), x(1));
        t.record_apply(u2, r(2)); // u1 missing at r2 and r2 stores reg 0
        t.record_apply(u1, r(2));
        let rep = check(&t, &p);
        assert_eq!(rep.safety_violations().count(), 1);
    }

    #[test]
    fn causal_past_collects_transitive_deps() {
        let p = full3();
        let _ = p;
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        let u2 = t.record_issue(r(1), x(0));
        t.record_apply(u2, r(2));
        let hb = HbGraph::build(&t);
        let past = causal_past(&t, r(2), &hb);
        // r2 applied u2, whose past includes u1.
        assert!(past.contains(&u1));
        assert!(past.contains(&u2));
        assert_eq!(past.len(), 2);
        // r0's past: only its own issue.
        let past0 = causal_past(&t, r(0), &hb);
        assert_eq!(past0.len(), 1);
    }

    #[test]
    fn empty_trace_is_consistent() {
        let rep = check(&Trace::new(), &full3());
        assert!(rep.is_consistent());
        assert_eq!(rep.applies_checked, 0);
    }
}
