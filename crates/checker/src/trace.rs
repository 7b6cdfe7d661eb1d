//! Execution traces: the raw material the checker works on.
//!
//! Protocol implementations (simulated or threaded) record two kinds of
//! events, in the global order they occurred:
//!
//! * **Issue** — a replica performs a client write (step 2 of the
//!   prototype). Issuing includes applying the update locally.
//! * **Apply** — a replica applies a remote update from its pending set
//!   (step 4 of the prototype).

use prcc_sharegraph::{RegisterId, ReplicaId};
use std::collections::HashMap;
use std::fmt;

/// Globally unique update identifier: the issuer plus a per-issuer
/// sequence number (starting at 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UpdateId {
    /// The replica that issued the update.
    pub issuer: ReplicaId,
    /// Per-issuer sequence number.
    pub seq: u64,
}

impl fmt::Display for UpdateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u({}#{})", self.issuer, self.seq)
    }
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `update` was issued (and locally applied) by its issuer, writing
    /// `register`.
    Issue {
        /// The update.
        update: UpdateId,
        /// The register written.
        register: RegisterId,
    },
    /// `update` was applied at replica `at` (a remote replica).
    Apply {
        /// The update.
        update: UpdateId,
        /// The applying replica.
        at: ReplicaId,
    },
}

/// An execution trace: events in global order plus per-update metadata.
///
/// # Examples
///
/// ```
/// use prcc_checker::{Trace, UpdateId};
/// use prcc_sharegraph::{RegisterId, ReplicaId};
///
/// let mut t = Trace::new();
/// let u = t.record_issue(ReplicaId::new(0), RegisterId::new(3));
/// t.record_apply(u, ReplicaId::new(1));
/// assert_eq!(t.events().len(), 2);
/// assert_eq!(t.register_of(u), Some(RegisterId::new(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    registers: HashMap<UpdateId, RegisterId>,
    next_seq: HashMap<ReplicaId, u64>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records an issue by `issuer` writing `register`, allocating the
    /// next sequence number. Returns the new update's id.
    pub fn record_issue(&mut self, issuer: ReplicaId, register: RegisterId) -> UpdateId {
        let seq = self.next_seq.entry(issuer).or_insert(0);
        let update = UpdateId { issuer, seq: *seq };
        *seq += 1;
        self.registers.insert(update, register);
        self.events.push(Event::Issue { update, register });
        update
    }

    /// Records an issue with a caller-chosen id (useful when replaying a
    /// trace produced elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if the id was already recorded.
    pub fn record_issue_with_id(&mut self, update: UpdateId, register: RegisterId) {
        assert!(
            self.registers.insert(update, register).is_none(),
            "duplicate issue of {update}"
        );
        let seq = self.next_seq.entry(update.issuer).or_insert(0);
        *seq = (*seq).max(update.seq + 1);
        self.events.push(Event::Issue { update, register });
    }

    /// Records that `update` was applied at replica `at`.
    pub fn record_apply(&mut self, update: UpdateId, at: ReplicaId) {
        self.events.push(Event::Apply { update, at });
    }

    /// All events in global order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The register written by `update`, if known.
    pub fn register_of(&self, update: UpdateId) -> Option<RegisterId> {
        self.registers.get(&update).copied()
    }

    /// All update ids, in issue order.
    pub fn updates(&self) -> Vec<UpdateId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Issue { update, .. } => Some(*update),
                Event::Apply { .. } => None,
            })
            .collect()
    }

    /// Number of issued updates.
    pub fn num_updates(&self) -> usize {
        self.registers.len()
    }

    /// One past the highest issuer index: every issuer is below it.
    pub(crate) fn issuers(&self) -> usize {
        self.next_seq.keys().fold(0, |w, r| w.max(r.index() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn sequence_numbers_per_issuer() {
        let mut t = Trace::new();
        let a = t.record_issue(r(0), x(0));
        let b = t.record_issue(r(0), x(1));
        let c = t.record_issue(r(1), x(0));
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(c.seq, 0);
        assert_eq!(t.num_updates(), 3);
        assert_eq!(t.updates(), vec![a, b, c]);
    }

    #[test]
    fn register_lookup() {
        let mut t = Trace::new();
        let u = t.record_issue(r(2), x(9));
        assert_eq!(t.register_of(u), Some(x(9)));
        assert_eq!(
            t.register_of(UpdateId {
                issuer: r(0),
                seq: 5
            }),
            None
        );
    }

    #[test]
    fn explicit_ids_respected() {
        let mut t = Trace::new();
        let u = UpdateId {
            issuer: r(1),
            seq: 7,
        };
        t.record_issue_with_id(u, x(0));
        // Fresh issues continue after the explicit seq.
        let v = t.record_issue(r(1), x(0));
        assert_eq!(v.seq, 8);
    }

    #[test]
    #[should_panic(expected = "duplicate issue")]
    fn duplicate_explicit_id_panics() {
        let mut t = Trace::new();
        let u = UpdateId {
            issuer: r(0),
            seq: 0,
        };
        t.record_issue_with_id(u, x(0));
        t.record_issue_with_id(u, x(1));
    }

    #[test]
    fn display_format() {
        let u = UpdateId {
            issuer: r(3),
            seq: 14,
        };
        assert_eq!(u.to_string(), "u(r3#14)");
    }
}
