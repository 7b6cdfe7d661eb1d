//! The reference checker: happened-before as a transitively closed
//! bitset per update, and a safety check that walks every predecessor
//! of every apply.
//!
//! This is the representation `prcc-checker` used before it kept one
//! prefix length per issuer. It assumes nothing about the shape of a
//! causal past, so the production checker is compared against it.
//! Building it costs O(events · updates / 64), so it suits small traces
//! only.

use prcc_checker::{CheckReport, Event, SessionEvent, Trace, UpdateId, Violation};
use prcc_sharegraph::{ClientId, Placement, RegisterId, ReplicaId};
use std::collections::{HashMap, HashSet};

/// A bitset over updates (indexed by issue order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct UpdateSet {
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

/// The happened-before relation of a trace, as one closed set of
/// predecessors per update.
#[derive(Debug, Clone)]
pub struct ClosureHb {
    /// Issue-order index of each update.
    index: HashMap<UpdateId, usize>,
    /// Update of each index.
    updates: Vec<UpdateId>,
    /// `preds[i]` = set of updates that happened before update `i`
    /// (transitively closed).
    preds: Vec<UpdateSet>,
}

impl ClosureHb {
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
        let mut closure: HashMap<ReplicaId, UpdateSet> = HashMap::new();

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
        ClosureHb {
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

/// Safety and liveness of `trace` under `placement` (Definition 2): every
/// apply checks each of the update's predecessors in turn.
pub fn check(trace: &Trace, placement: &Placement, hb: &ClosureHb) -> CheckReport {
    let mut report = CheckReport::default();
    // Per replica: applied set.
    let mut applied: Vec<HashSet<UpdateId>> = vec![HashSet::new(); placement.num_replicas()];

    for ev in trace.events() {
        match *ev {
            Event::Issue { update, .. } => {
                applied[update.issuer.index()].insert(update);
            }
            Event::Apply { update, at } => {
                report.applies_checked += 1;
                // Safety: all hb-predecessors writing registers of X_at
                // must already be there.
                for pred in hb.predecessors(update) {
                    let reg = trace
                        .register_of(pred)
                        .expect("trace metadata for predecessor");
                    if placement.stores(at, reg) && !applied[at.index()].contains(&pred) {
                        report.violations.push(Violation::Safety {
                            update,
                            at,
                            missing: pred,
                        });
                    }
                }
                applied[at.index()].insert(update);
            }
        }
    }

    // Liveness: every update reached every holder of its register.
    for u in trace.updates() {
        let reg = trace.register_of(u).expect("register metadata");
        for &holder in placement.holders(reg) {
            if !applied[holder.index()].contains(&u) {
                report.violations.push(Violation::Liveness {
                    update: u,
                    at: holder,
                });
            }
        }
    }
    report
}

/// The causal past of `replica` at the end of the trace: all updates
/// applied there plus their predecessors.
pub fn causal_past(trace: &Trace, replica: ReplicaId, hb: &ClosureHb) -> HashSet<UpdateId> {
    let mut past = HashSet::new();
    for ev in trace.events() {
        let u = match *ev {
            Event::Issue { update, .. } if update.issuer == replica => update,
            Event::Apply { update, at } if at == replica => update,
            _ => continue,
        };
        past.insert(u);
        past.extend(hb.predecessors(u));
    }
    past
}

/// Read-your-writes and monotonic reads over `events`, in the words of
/// `prcc_checker::check_sessions`, against the closure.
pub fn check_sessions(hb: &ClosureHb, events: &[SessionEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    // Per (client, register): last write update; last read observation.
    let mut last_write: HashMap<(ClientId, RegisterId), UpdateId> = HashMap::new();
    let mut last_read: HashMap<(ClientId, RegisterId), UpdateId> = HashMap::new();
    for ev in events {
        match *ev {
            SessionEvent::Write {
                client,
                update,
                register,
            } => {
                last_write.insert((client, register), update);
                last_read.insert((client, register), update);
            }
            SessionEvent::Read {
                client,
                register,
                observed,
            } => {
                let Some(obs) = observed else {
                    if last_write.contains_key(&(client, register)) {
                        violations.push(format!(
                            "read-your-writes: {client} read unwritten {register} after writing it"
                        ));
                    }
                    continue;
                };
                if let Some(&w) = last_write.get(&(client, register)) {
                    if hb.happened_before(obs, w) {
                        violations.push(format!(
                            "read-your-writes: {client} observed {obs} older than own write {w} on {register}"
                        ));
                    }
                }
                if let Some(&prev) = last_read.get(&(client, register)) {
                    if hb.happened_before(obs, prev) {
                        violations.push(format!(
                            "monotonic-reads: {client} observed {obs} older than previous {prev} on {register}"
                        ));
                    }
                }
                last_read.insert((client, register), obs);
            }
        }
    }
    violations
}
