//! The happened-before relation `↪` between updates (Definition 1).
//!
//! `u1 ↪ u2` iff `u1` was applied at some replica before that replica
//! issued `u2`, or transitively so. The relation is computed exactly from
//! a [`Trace`]: when replica `r` issues `u2`, every update currently
//! applied at `r` — together with *its* happened-before set, which is
//! already final — precedes `u2`.
//!
//! Sets are bitsets indexed by issue order, so queries are O(1) after an
//! O(events · updates / 64) build.

use crate::trace::{Event, Trace, UpdateId};
use std::collections::HashMap;

/// A bitset over updates (indexed by issue order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateSet {
    words: Vec<u64>,
}

impl UpdateSet {
    fn with_capacity(n: usize) -> Self {
        UpdateSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, idx: usize) {
        if idx / 64 >= self.words.len() {
            self.words.resize(idx / 64 + 1, 0);
        }
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    fn contains(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1 << (idx % 64)) != 0)
    }

    fn union_with(&mut self, other: &UpdateSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of updates in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn iter_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

/// The happened-before relation of a trace.
///
/// # Examples
///
/// ```
/// use prcc_checker::{Trace, HbGraph};
/// use prcc_sharegraph::{RegisterId, ReplicaId};
///
/// let mut t = Trace::new();
/// let u1 = t.record_issue(ReplicaId::new(0), RegisterId::new(0));
/// t.record_apply(u1, ReplicaId::new(1));
/// let u2 = t.record_issue(ReplicaId::new(1), RegisterId::new(1));
///
/// let hb = HbGraph::build(&t);
/// assert!(hb.happened_before(u1, u2));
/// assert!(!hb.happened_before(u2, u1));
/// ```
#[derive(Debug, Clone)]
pub struct HbGraph {
    /// Issue-order index of each update.
    index: HashMap<UpdateId, usize>,
    /// Update of each index.
    updates: Vec<UpdateId>,
    /// `preds[i]` = set of updates that happened before update `i`
    /// (transitively closed).
    preds: Vec<UpdateSet>,
}

impl HbGraph {
    /// Builds the relation from a trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace applies an update that was never issued.
    pub fn build(trace: &Trace) -> Self {
        let n = trace.num_updates();
        let mut index: HashMap<UpdateId, usize> = HashMap::with_capacity(n);
        let mut updates = Vec::with_capacity(n);
        let mut preds: Vec<UpdateSet> = Vec::with_capacity(n);
        // Per replica, the hb-*closure* of its state: all updates applied
        // there plus everything that happened before them. An update's hb
        // set is final by the time anyone applies it, so the closure can be
        // maintained incrementally — O(n/64) per event.
        let mut closure: HashMap<prcc_sharegraph::ReplicaId, UpdateSet> = HashMap::new();

        for ev in trace.events() {
            match *ev {
                Event::Issue { update, .. } => {
                    let idx = updates.len();
                    index.insert(update, idx);
                    updates.push(update);
                    let c = closure.entry(update.issuer).or_default();
                    // hb(update) = the issuer's current closure.
                    let mut hb = UpdateSet::with_capacity(n);
                    hb.union_with(c);
                    preds.push(hb);
                    // Issuing applies locally.
                    c.insert(idx);
                }
                Event::Apply { update, at } => {
                    let idx = *index
                        .get(&update)
                        .unwrap_or_else(|| panic!("{update} applied before issue"));
                    let hb = preds[idx].clone();
                    let c = closure.entry(at).or_default();
                    c.union_with(&hb);
                    c.insert(idx);
                }
            }
        }
        HbGraph {
            index,
            updates,
            preds,
        }
    }

    /// True iff `u1 ↪ u2`.
    pub fn happened_before(&self, u1: UpdateId, u2: UpdateId) -> bool {
        match (self.index.get(&u1), self.index.get(&u2)) {
            (Some(&i1), Some(&i2)) => self.preds[i2].contains(i1),
            _ => false,
        }
    }

    /// True iff the updates are concurrent (neither precedes the other,
    /// and they are distinct).
    pub fn concurrent(&self, u1: UpdateId, u2: UpdateId) -> bool {
        u1 != u2 && !self.happened_before(u1, u2) && !self.happened_before(u2, u1)
    }

    /// The updates that happened before `u`, in issue order.
    pub fn predecessors(&self, u: UpdateId) -> Vec<UpdateId> {
        match self.index.get(&u) {
            Some(&i) => self.preds[i]
                .iter_indices()
                .map(|p| self.updates[p])
                .collect(),
            None => Vec::new(),
        }
    }

    /// All updates in issue order.
    pub fn updates(&self) -> &[UpdateId] {
        &self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{RegisterId, ReplicaId};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    /// The paper's Figure 2 example: u1, u2 by r1; u3 by r2; u4 by r3.
    /// u2 applied at r2; u3 applied at r3 (and r2 locally); u4 by r3.
    #[test]
    fn figure2_relations() {
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        let u2 = t.record_issue(r(0), x(1));
        t.record_apply(u2, r(1));
        let u3 = t.record_issue(r(1), x(2));
        t.record_apply(u3, r(2));
        let u4 = t.record_issue(r(2), x(3));
        // Reorder: u4 in the paper is concurrent with u1/u2 — issue it
        // *before* r2's u3 arrives... we already applied u3 at r2 before
        // issuing u4, which creates u3 ↪ u4. Build a second trace below
        // for the concurrency claims.
        let hb = HbGraph::build(&t);
        assert!(hb.happened_before(u1, u2)); // condition (i)
        assert!(hb.happened_before(u2, u3)); // condition (i)
        assert!(hb.happened_before(u1, u3)); // condition (ii), transitivity
        assert!(hb.happened_before(u3, u4));

        // Independent r3 issue:
        let mut t2 = Trace::new();
        let v1 = t2.record_issue(r(0), x(0));
        let v2 = t2.record_issue(r(0), x(1));
        t2.record_apply(v2, r(1));
        let v4 = t2.record_issue(r(2), x(3)); // r3 issues before seeing anything
        let hb2 = HbGraph::build(&t2);
        assert!(hb2.concurrent(v1, v4));
        assert!(hb2.concurrent(v2, v4));
    }

    #[test]
    fn same_replica_updates_are_ordered() {
        let mut t = Trace::new();
        let a = t.record_issue(r(0), x(0));
        let b = t.record_issue(r(0), x(0));
        let c = t.record_issue(r(0), x(0));
        let hb = HbGraph::build(&t);
        assert!(hb.happened_before(a, b));
        assert!(hb.happened_before(b, c));
        assert!(hb.happened_before(a, c));
        assert!(!hb.happened_before(c, a));
        assert_eq!(hb.predecessors(c), vec![a, b]);
    }

    #[test]
    fn apply_order_not_issue_order_matters() {
        // r0 issues a; r1 issues b without seeing a — concurrent even
        // though a was issued (globally) earlier.
        let mut t = Trace::new();
        let a = t.record_issue(r(0), x(0));
        let b = t.record_issue(r(1), x(0));
        t.record_apply(a, r(1));
        t.record_apply(b, r(0));
        let hb = HbGraph::build(&t);
        assert!(hb.concurrent(a, b));
    }

    #[test]
    fn transitive_chain_across_replicas() {
        let mut t = Trace::new();
        let mut prev: Option<UpdateId> = None;
        let mut all = Vec::new();
        for i in 0..5u32 {
            if let Some(p) = prev {
                t.record_apply(p, r(i));
            }
            let u = t.record_issue(r(i), x(i));
            all.push(u);
            prev = Some(u);
        }
        let hb = HbGraph::build(&t);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(hb.happened_before(all[i], all[j]), "{i} -> {j}");
            }
        }
    }

    #[test]
    fn unknown_updates() {
        let t = Trace::new();
        let hb = HbGraph::build(&t);
        let ghost = UpdateId {
            issuer: r(9),
            seq: 9,
        };
        assert!(!hb.happened_before(ghost, ghost));
        assert!(hb.predecessors(ghost).is_empty());
    }

    #[test]
    #[should_panic(expected = "applied before issue")]
    fn apply_before_issue_panics() {
        let mut t = Trace::new();
        t.record_apply(
            UpdateId {
                issuer: r(0),
                seq: 0,
            },
            r(1),
        );
        let _ = HbGraph::build(&t);
    }

    #[test]
    fn update_set_basics() {
        let mut s = UpdateSet::default();
        assert!(s.is_empty());
        s.insert(70);
        s.insert(3);
        assert_eq!(s.len(), 2);
        assert!(s.contains(70));
        assert!(!s.contains(71));
        assert_eq!(s.iter_indices().collect::<Vec<_>>(), vec![3, 70]);
    }
}
