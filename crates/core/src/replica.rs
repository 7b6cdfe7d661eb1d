//! The replica state machine — the algorithm prototype of Section 2.1.
//!
//! A [`Replica`] owns the local copies of its registers, a pluggable
//! [`CausalityTracker`], and the `pending` buffer of undeliverable
//! updates. It is transport-agnostic: `write` returns the update messages
//! to send, `receive` ingests one and returns every update that became
//! applicable (step 4 loops until the predicate admits nothing more).
//!
//! # Pending-delivery scheduling
//!
//! The specification is *repeatedly apply the earliest-arrived pending
//! update whose predicate `J` holds*. The obvious implementation
//! re-evaluates `J` over the whole buffer after every apply — quadratic
//! on a reversed burst; it lives on as the reference model in the
//! `prcc-spec` crate, which the differential tests compare against.
//! The replica instead evaluates `J` once on arrival and, if the update
//! is blocked, parks it under the first unsatisfied `(counter slot,
//! needed value)` requirement its tracker reports. A parked update is
//! woken — re-evaluated — iff one of its blocking counters advanced
//! during a merge, so a reversed burst of `n` updates costs `O(n)`
//! predicate evaluations instead of `O(n²)`.
//!
//! [`Replica::predicate_evals`] counts evaluations; the `pending` bench
//! in `prcc-bench` measures the gap to the reference's scan.

use crate::message::UpdateMsg;
use crate::store_cow::CowStore;
use crate::tracker::{CausalityTracker, ReadyCheck};
use crate::value::Value;
use prcc_checker::UpdateId;
use prcc_sharegraph::{RegisterId, ReplicaId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Errors returned by replica operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The register is not stored at this replica.
    NotStored {
        /// The offending register.
        register: RegisterId,
        /// This replica.
        replica: ReplicaId,
    },
    /// The replica is crashed (between a scripted crash and its
    /// restart) and cannot serve operations.
    Crashed {
        /// This replica.
        replica: ReplicaId,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::NotStored { register, replica } => {
                write!(f, "register {register} is not stored at replica {replica}")
            }
            ReplicaError::Crashed { replica } => {
                write!(f, "replica {replica} is crashed")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// An update that was applied during [`Replica::receive`], with the
/// number of pending-queue passes it waited (0 = applied immediately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// The applied update.
    pub msg: UpdateMsg,
}

/// One buffered update plus its arrival order.
#[derive(Debug, Clone)]
struct Parked {
    arrival: u64,
    msg: UpdateMsg,
}

/// The wakeup index over parked updates. All maps key messages by their
/// arrival sequence number; `msgs` owns the messages themselves.
///
/// Invariant: a parked message is woken (re-evaluated) iff one of its
/// blocking counters advanced. Each parked message is in exactly one
/// place: `waiting[slot]` (tracker reported `BlockedOn{slot, ..}`),
/// `unknown` (tracker cannot localize the block; re-woken after every
/// apply), or `dead` (never deliverable; kept only for accounting, like
/// the perpetually-unready messages of a scanned buffer).
#[derive(Debug, Clone, Default)]
struct WakeupIndex {
    msgs: HashMap<u64, Parked>,
    /// Per counter slot: `(needed value, arrival)` of blocked messages.
    waiting: HashMap<usize, Vec<(u64, u64)>>,
    /// Arrivals blocked for non-localizable reasons.
    unknown: Vec<u64>,
    /// Arrivals that can never become deliverable.
    dead: Vec<u64>,
}

/// The replica prototype: local store + tracker + pending buffer.
///
/// # Examples
///
/// ```
/// use prcc_core::{Replica, EdgeTracker, Value};
/// use prcc_sharegraph::{topology, LoopConfig, TimestampGraphs, ReplicaId, RegisterId};
/// use prcc_timestamp::TsRegistry;
/// use std::sync::Arc;
///
/// let g = topology::path(2);
/// let reg = Arc::new(TsRegistry::new(&g, TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE)));
/// let r0 = ReplicaId::new(0);
/// let mut replica = Replica::new(
///     r0,
///     g.placement().registers_of(r0).clone(),
///     Box::new(EdgeTracker::new(reg.clone(), r0)),
/// );
/// let (msg, recipients) = replica
///     .write(RegisterId::new(0), Value::from(7u64), vec![ReplicaId::new(1)])
///     .unwrap();
/// assert_eq!(recipients, vec![ReplicaId::new(1)]);
/// assert_eq!(msg.seq, 0);
/// assert_eq!(replica.read(RegisterId::new(0)), Some(&Value::from(7u64)));
/// ```
#[derive(Clone)]
pub struct Replica {
    id: ReplicaId,
    /// Registers actually stored here (data, not dummies).
    stores: prcc_sharegraph::RegSet,
    tracker: Box<dyn CausalityTracker>,
    /// Value + provenance, sharded for O(Δ) copy-on-write publishes
    /// (the provenance is what the serving tier's session-guarantee
    /// fast path reads from published snapshots).
    store: CowStore,
    /// The dependency-counting index over parked updates.
    wakeup: WakeupIndex,
    /// Monotone arrival stamp.
    next_arrival: u64,
    /// Predicate-`J` evaluations performed so far.
    predicate_evals: u64,
    next_seq: u64,
    applied_count: u64,
    /// Updates admitted through the once-per-batch fast path.
    batch_fast_applies: u64,
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("pending", &self.pending_count())
            .field("applied", &self.applied_count)
            .field("tracker", &self.tracker)
            .finish()
    }
}

impl Replica {
    /// Creates a replica storing `stores`, tracking causality with
    /// `tracker`.
    pub fn new(
        id: ReplicaId,
        stores: prcc_sharegraph::RegSet,
        tracker: Box<dyn CausalityTracker>,
    ) -> Self {
        Replica {
            id,
            store: CowStore::new(stores.len()),
            stores,
            tracker,
            wakeup: WakeupIndex::default(),
            next_arrival: 0,
            predicate_evals: 0,
            next_seq: 0,
            applied_count: 0,
            batch_fast_applies: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Step 1: serve a local read.
    pub fn read(&self, x: RegisterId) -> Option<&Value> {
        self.store.get(x)
    }

    /// The sharded copy-on-write store itself — the threaded runtime
    /// publishes O(Δ) snapshots from it via [`CowStore::share`].
    pub fn store_cow(&self) -> &CowStore {
        &self.store
    }

    /// True if this replica stores `x` (as data).
    pub fn stores(&self, x: RegisterId) -> bool {
        self.stores.contains(x)
    }

    /// Step 2: serve a local write. Writes the local copy, advances the
    /// timestamp, and returns the update message to distribute to
    /// `recipients` (the caller decides who those are — plain holders, or
    /// holders plus dummy-register subscribers).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotStored`] if `x ∉ X_i`.
    pub fn write(
        &mut self,
        x: RegisterId,
        v: Value,
        recipients: Vec<ReplicaId>,
    ) -> Result<(UpdateMsg, Vec<ReplicaId>), ReplicaError> {
        if !self.stores.contains(x) {
            return Err(ReplicaError::NotStored {
                register: x,
                replica: self.id,
            });
        }
        self.store.insert(
            x,
            v.clone(),
            Some(UpdateId {
                issuer: self.id,
                seq: self.next_seq,
            }),
        );
        let meta = std::sync::Arc::new(self.tracker.on_local_write(x));
        let msg = UpdateMsg {
            issuer: self.id,
            seq: self.next_seq,
            register: x,
            value: Some(v),
            meta,
            transit: None,
        };
        self.next_seq += 1;
        Ok((msg, recipients))
    }

    /// Like [`write`](Self::write) but for issuing a metadata-carrying
    /// update the replica does not store data for (virtual registers in
    /// the routed protocol, Appendix D). The register must still be part
    /// of the tracker's share graph.
    pub fn issue_virtual(&mut self, x: RegisterId, v: Option<Value>) -> UpdateMsg {
        let meta = std::sync::Arc::new(self.tracker.on_local_write(x));
        let msg = UpdateMsg {
            issuer: self.id,
            seq: self.next_seq,
            register: x,
            value: v,
            meta,
            transit: None,
        };
        self.next_seq += 1;
        msg
    }

    /// Steps 3–4: ingest one update message, then drain the pending buffer
    /// until the predicate admits nothing further. Returns all updates
    /// applied by this call, in application order: the earliest-arrived
    /// ready update first, re-deciding after every apply.
    ///
    /// `J` is evaluated once per wake, and blocked updates are parked
    /// under their first unsatisfied counter requirement. An apply's merge
    /// reports which counters advanced; only their waiters (plus the
    /// non-localizable `unknown` bucket) are woken. Woken candidates are
    /// processed in arrival order via a min-heap, which reproduces the
    /// scan order exactly: every ready update is always in the heap, so
    /// the earliest-arrived ready update is applied first.
    pub fn receive(&mut self, msg: UpdateMsg) -> Vec<Applied> {
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let mut candidates: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        candidates.push(Reverse(arrival));
        self.wakeup.msgs.insert(arrival, Parked { arrival, msg });
        let mut applied = Vec::new();
        let mut advanced: Vec<(usize, u64)> = Vec::new();
        while let Some(Reverse(arrival)) = candidates.pop() {
            let p = &self.wakeup.msgs[&arrival];
            self.predicate_evals += 1;
            match self.tracker.ready_check(&p.msg) {
                ReadyCheck::Ready => {
                    let p = self.wakeup.msgs.remove(&arrival).expect("candidate parked");
                    advanced.clear();
                    self.apply_report(&p.msg, &mut advanced);
                    applied.push(Applied { msg: p.msg });
                    // Wake the waiters of every advanced counter…
                    for &(slot, new_value) in &advanced {
                        if let Some(waiters) = self.wakeup.waiting.get_mut(&slot) {
                            waiters.retain(|&(needs, a)| {
                                if needs <= new_value {
                                    candidates.push(Reverse(a));
                                    false
                                } else {
                                    true
                                }
                            });
                        }
                    }
                    // …and everything blocked for unlocalized reasons.
                    for a in self.wakeup.unknown.drain(..) {
                        candidates.push(Reverse(a));
                    }
                }
                ReadyCheck::BlockedOn { slot, needs } => {
                    self.wakeup
                        .waiting
                        .entry(slot)
                        .or_default()
                        .push((needs, arrival));
                }
                ReadyCheck::BlockedUnknown => self.wakeup.unknown.push(arrival),
                ReadyCheck::Dead => self.wakeup.dead.push(arrival),
            }
        }
        applied
    }

    /// Batched steps 3–4: ingest a run of consecutive updates from one
    /// issuer (one pair stream, send order) as a unit.
    ///
    /// **Fast path** — taken when nothing parked could still become
    /// deliverable (no `waiting`/`unknown` entries; dead-parked
    /// duplicates don't count) *and* the tracker's batched predicate
    /// ([`CausalityTracker::batch_ready`]) admits the whole run: every
    /// update's store write is applied in order, the frontier is merged
    /// **once** (the last update's metadata — equal to `k` sequential
    /// merges because sender stamps are pointwise monotone along the
    /// stream), and no wakeup pass runs at all (nothing is parked that an
    /// advance could wake). The resulting replica state and apply order
    /// are byte-identical to calling [`Replica::receive`] per message;
    /// only `predicate_evals` differs (one batched evaluation).
    ///
    /// **Fallback** — any other situation (blocked batch, live parked
    /// updates, trackers without batch evaluation): per-message
    /// [`Replica::receive`], i.e. exactly the unbatched oracle.
    pub fn receive_batch(&mut self, msgs: Vec<UpdateMsg>) -> Vec<Applied> {
        let nothing_live_parked =
            self.wakeup.unknown.is_empty() && self.wakeup.waiting.values().all(Vec::is_empty);
        if msgs.len() > 1 && nothing_live_parked && self.tracker.batch_ready(&msgs) == Some(true) {
            self.predicate_evals += 1;
            self.batch_fast_applies += msgs.len() as u64;
            let last = msgs.len() - 1;
            let mut applied = Vec::with_capacity(msgs.len());
            for (i, m) in msgs.into_iter().enumerate() {
                self.next_arrival += 1;
                self.apply_store(&m);
                if i == last {
                    self.tracker.on_apply(&m);
                }
                self.applied_count += 1;
                applied.push(Applied { msg: m });
            }
            applied
        } else {
            let mut applied = Vec::new();
            for m in msgs {
                applied.extend(self.receive(m));
            }
            applied
        }
    }

    fn apply_report(&mut self, m: &UpdateMsg, advanced: &mut Vec<(usize, u64)>) {
        self.apply_store(m);
        self.tracker.on_apply_report(m, advanced);
        self.applied_count += 1;
    }

    fn apply_store(&mut self, m: &UpdateMsg) {
        if let Some(v) = &m.value {
            if self.stores.contains(m.register) {
                self.store.insert(
                    m.register,
                    v.clone(),
                    Some(UpdateId {
                        issuer: m.issuer,
                        seq: m.seq,
                    }),
                );
            }
        }
    }

    /// Writes `v` into the local copy of `x` without protocol actions —
    /// used by the routed protocol when a transit payload reaches its
    /// final holder (the timestamp work happened on the virtual-register
    /// updates). Clears the provenance entry: the producing update is
    /// unknown on this path.
    pub(crate) fn store_local(&mut self, x: RegisterId, v: Value) {
        self.store.insert(x, v, None);
    }

    /// Number of updates applied from remote replicas.
    pub fn applied_count(&self) -> u64 {
        self.applied_count
    }

    /// Number of predicate-`J` evaluations performed so far (the
    /// `pending_drain` bench compares it with the reference's scan).
    pub fn predicate_evals(&self) -> u64 {
        self.predicate_evals
    }

    /// Updates admitted through [`Replica::receive_batch`]'s once-per-
    /// batch fast path (vs falling back to per-message evaluation).
    pub fn batch_fast_applies(&self) -> u64 {
        self.batch_fast_applies
    }

    /// Updates currently buffered (predicate not yet satisfied).
    pub fn pending_count(&self) -> usize {
        self.wakeup.msgs.len()
    }

    /// The pending messages in arrival order (for diagnostics).
    pub fn pending(&self) -> Vec<&UpdateMsg> {
        let mut parked: Vec<&Parked> = self.wakeup.msgs.values().collect();
        parked.sort_by_key(|p| p.arrival);
        parked.into_iter().map(|p| &p.msg).collect()
    }

    /// The tracker (for size accounting and inspection).
    pub fn tracker(&self) -> &dyn CausalityTracker {
        self.tracker.as_ref()
    }

    /// Current metadata of this replica as attached to a hypothetical next
    /// message (without advancing) — unavailable generically; use
    /// [`Self::tracker`] sizes instead. Provided for symmetry in tests.
    pub fn timestamp_bytes(&self) -> usize {
        self.tracker.timestamp_bytes()
    }
}

/// What a successful write produces: the update message and its
/// recipients.
pub type WriteOutput = (UpdateMsg, Vec<ReplicaId>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::EdgeTracker;
    use prcc_sharegraph::{topology, LoopConfig, RegSet, TimestampGraphs};
    use prcc_timestamp::TsRegistry;
    use std::sync::Arc;

    fn pair() -> (Replica, Replica) {
        let g = topology::path(2);
        let reg = Arc::new(TsRegistry::new(
            &g,
            TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
        ));
        let mk = |i: u32| {
            let id = ReplicaId::new(i);
            Replica::new(
                id,
                g.placement().registers_of(id).clone(),
                Box::new(EdgeTracker::new(reg.clone(), id)) as Box<dyn CausalityTracker>,
            )
        };
        (mk(0), mk(1))
    }

    #[test]
    fn write_then_deliver() {
        let (mut a, mut b) = pair();
        let (msg, _) = a
            .write(RegisterId::new(0), Value::from(5u64), vec![b.id()])
            .unwrap();
        let applied = b.receive(msg);
        assert_eq!(applied.len(), 1);
        assert_eq!(b.read(RegisterId::new(0)), Some(&Value::from(5u64)));
        assert_eq!(b.applied_count(), 1);
        assert_eq!(b.pending_count(), 0);
    }

    #[test]
    fn out_of_order_buffered_then_drained() {
        let (mut a, mut b) = pair();
        let (m1, _) = a
            .write(RegisterId::new(0), Value::from(1u64), vec![b.id()])
            .unwrap();
        let (m2, _) = a
            .write(RegisterId::new(0), Value::from(2u64), vec![b.id()])
            .unwrap();
        // Deliver out of order.
        assert!(b.receive(m2).is_empty());
        assert_eq!(b.pending_count(), 1);
        let applied = b.receive(m1);
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].msg.seq, 0);
        assert_eq!(applied[1].msg.seq, 1);
        // Final value is the later write.
        assert_eq!(b.read(RegisterId::new(0)), Some(&Value::from(2u64)));
    }

    #[test]
    fn write_unstored_register_rejected() {
        let (mut a, _) = pair();
        let err = a
            .write(RegisterId::new(9), Value::from(0u64), vec![])
            .unwrap_err();
        assert!(matches!(err, ReplicaError::NotStored { .. }));
        assert!(err.to_string().contains("not stored"));
    }

    #[test]
    fn metadata_only_update_skips_store() {
        let (mut a, mut b) = pair();
        let (mut msg, _) = a
            .write(RegisterId::new(0), Value::from(1u64), vec![b.id()])
            .unwrap();
        msg.value = None; // simulate a dummy-register delivery
        let applied = b.receive(msg);
        assert_eq!(applied.len(), 1);
        assert_eq!(b.read(RegisterId::new(0)), None);
    }

    #[test]
    fn value_for_unstored_register_not_written() {
        let (mut a, _) = pair();
        // Build a replica that doesn't store register 0.
        let g = topology::path(2);
        let reg = Arc::new(TsRegistry::new(
            &g,
            TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
        ));
        let mut stranger = Replica::new(
            ReplicaId::new(1),
            RegSet::new(), // stores nothing
            Box::new(EdgeTracker::new(reg, ReplicaId::new(1))),
        );
        let (msg, _) = a
            .write(RegisterId::new(0), Value::from(1u64), vec![])
            .unwrap();
        stranger.receive(msg);
        assert_eq!(stranger.read(RegisterId::new(0)), None);
    }

    #[test]
    fn seq_numbers_increase() {
        let (mut a, _) = pair();
        for i in 0..3 {
            let (m, _) = a.write(RegisterId::new(0), Value::from(i), vec![]).unwrap();
            assert_eq!(m.seq, i);
        }
        let virt = a.issue_virtual(RegisterId::new(0), None);
        assert_eq!(virt.seq, 3);
    }

    #[test]
    fn debug_output_nonempty() {
        let (a, _) = pair();
        let s = format!("{a:?}");
        assert!(s.contains("Replica"));
    }

    /// Builds replicas over one register shared by all 5 replicas.
    fn all_shared_five() -> Vec<Replica> {
        let g = prcc_sharegraph::ShareGraph::new(
            prcc_sharegraph::Placement::builder(5)
                .share(0, [0, 1, 2, 3, 4])
                .build(),
        );
        let reg = Arc::new(TsRegistry::new(
            &g,
            TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
        ));
        (0..5u32)
            .map(|i| {
                let id = ReplicaId::new(i);
                Replica::new(
                    id,
                    g.placement().registers_of(id).clone(),
                    Box::new(EdgeTracker::new(reg.clone(), id)) as Box<dyn CausalityTracker>,
                )
            })
            .collect()
    }

    /// Three updates `p`, `a`, `b` from distinct senders, all blocked on
    /// one update `y`, delivered before `y`: the drain must apply them in
    /// arrival order (`y`, `p`, `a`, `b`). (A `swap_remove`-based scan
    /// once applied `b` before `a` here.)
    #[test]
    fn apply_order_is_earliest_arrival_first() {
        let x0 = RegisterId::new(0);
        let mut rs = all_shared_five();
        let (y, _) = rs[0].write(x0, Value::from(0u64), vec![]).unwrap();
        let mut deps = Vec::new();
        for (i, r) in rs.iter_mut().enumerate().take(4).skip(1) {
            assert_eq!(r.receive(y.clone()).len(), 1);
            let (m, _) = r.write(x0, Value::from(i as u64), vec![]).unwrap();
            deps.push(m);
        }
        // Receiver 4: the three dependents first, then y.
        for m in &deps {
            assert!(rs[4].receive(m.clone()).is_empty());
        }
        assert_eq!(rs[4].pending_count(), 3);
        let applied = rs[4].receive(y);
        let order: Vec<ReplicaId> = applied.iter().map(|a| a.msg.issuer).collect();
        assert_eq!(order, (0..4).map(ReplicaId::new).collect::<Vec<_>>());
        assert_eq!(rs[4].pending_count(), 0);
    }

    /// A reversed FIFO burst of n updates: the reference model's scan
    /// re-evaluates the whole buffer after every apply (Θ(n²) predicate
    /// evaluations) while the wakeup index evaluates each message O(1)
    /// times amortized.
    #[test]
    fn wakeup_slashes_predicate_evaluations_on_reversed_burst() {
        let n = 64u64;
        let g = topology::path(2);
        let (r0, r1, x0) = (ReplicaId::new(0), ReplicaId::new(1), RegisterId::new(0));
        let (mut w, mut b) = pair();
        let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        let mut spec = prcc_spec::Spec::new(&g, prcc_spec::EdgeClock::all(&g, &graphs));
        let mut msgs = Vec::new();
        for i in 0..n {
            let (m, _) = w.write(x0, Value::from(i), vec![]).unwrap();
            msgs.push((m, spec.write(r0, x0, i).0));
        }
        let mut applied = Vec::new();
        for (m, id) in msgs.into_iter().rev() {
            let got = b.receive(m);
            assert_eq!(got.len(), spec.deliver(r1, id).len());
            applied.extend(got);
        }
        assert_eq!(applied.len(), n as usize);
        // FIFO order restored.
        assert!(applied.windows(2).all(|w| w[0].msg.seq + 1 == w[1].msg.seq));
        assert_eq!((b.pending_count(), spec.pending_count(r1)), (0, 0));
        let (scan, wakeup) = (spec.evals(r1), b.predicate_evals());
        assert!(
            wakeup * 5 <= scan,
            "expected ≥5× fewer evaluations (scan={scan}, wakeup={wakeup})"
        );
        // Wakeup is linear: at most a small constant per message.
        assert!(wakeup <= 3 * n, "wakeup evals not linear: {wakeup}");
    }

    /// The batched fast path must leave the replica byte-identical to
    /// per-message delivery: same store, same tracker, same counters.
    #[test]
    fn receive_batch_fast_path_equals_sequential_oracle() {
        let (mut a, b) = pair();
        let mut batch = Vec::new();
        for i in 0..5u64 {
            let (m, _) = a
                .write(RegisterId::new(0), Value::from(i), vec![b.id()])
                .unwrap();
            batch.push(m);
        }
        let mut oracle = b.clone();
        let mut fast = b;
        let seq_applied: Vec<Applied> = batch
            .iter()
            .flat_map(|m| oracle.receive(m.clone()))
            .collect();
        let batch_applied = fast.receive_batch(batch);
        assert_eq!(batch_applied, seq_applied);
        assert_eq!(fast.batch_fast_applies(), 5, "fast path must engage");
        assert_eq!(
            fast.read(RegisterId::new(0)),
            oracle.read(RegisterId::new(0))
        );
        assert_eq!(fast.applied_count(), oracle.applied_count());
        assert_eq!(fast.pending_count(), oracle.pending_count());
        // Tracker frontiers agree: the next local write carries identical
        // metadata on both.
        let (fm, _) = fast
            .write(RegisterId::new(0), Value::from(9u64), vec![])
            .unwrap();
        let (om, _) = oracle
            .write(RegisterId::new(0), Value::from(9u64), vec![])
            .unwrap();
        assert_eq!(fm.meta, om.meta);
        assert!(fast.predicate_evals() < oracle.predicate_evals());
    }

    /// A batch that starts beyond the receiver's frontier falls back to
    /// per-message delivery and parks exactly like the oracle.
    #[test]
    fn receive_batch_blocked_run_falls_back_and_parks() {
        let (mut a, mut b) = pair();
        let (m1, _) = a
            .write(RegisterId::new(0), Value::from(1u64), vec![b.id()])
            .unwrap();
        let mut tail = Vec::new();
        for i in 2..4u64 {
            let (m, _) = a
                .write(RegisterId::new(0), Value::from(i), vec![b.id()])
                .unwrap();
            tail.push(m);
        }
        // The tail arrives first: not deliverable as a unit.
        assert!(b.receive_batch(tail).is_empty());
        assert_eq!(b.batch_fast_applies(), 0);
        assert_eq!(b.pending_count(), 2);
        // The gap-filling update releases everything in order.
        let applied = b.receive_batch(vec![m1]);
        assert_eq!(applied.len(), 3);
        assert!(applied.windows(2).all(|w| w[0].msg.seq + 1 == w[1].msg.seq));
        assert_eq!(b.read(RegisterId::new(0)), Some(&Value::from(3u64)));
    }

    /// With a live parked update from another writer, the fast path must
    /// stand down: the parked update may wake mid-batch, and applying it
    /// at the wrong point could reorder conflicting writes.
    #[test]
    fn receive_batch_defers_to_oracle_when_parked_updates_are_live() {
        let x0 = RegisterId::new(0);
        let mut rs = all_shared_five();
        let (y, _) = rs[0].write(x0, Value::from(100u64), vec![]).unwrap();
        // Replica 1 applies y, then issues two updates depending on it.
        assert_eq!(rs[1].receive(y.clone()).len(), 1);
        let mut batch = Vec::new();
        for i in 0..2u64 {
            let (m, _) = rs[1].write(x0, Value::from(i), vec![]).unwrap();
            batch.push(m);
        }
        // Receiver 4 holds the dependent batch first (parks), then y.
        let mut oracle = rs[4].clone();
        assert!(rs[4].receive_batch(batch.clone()).is_empty());
        assert_eq!(rs[4].batch_fast_applies(), 0, "blocked batch parks");
        let applied = rs[4].receive(y.clone());
        assert_eq!(applied.len(), 3, "y wakes the parked batch");
        // Oracle path: same messages, one at a time.
        for m in &batch {
            assert!(oracle.receive(m.clone()).is_empty());
        }
        assert_eq!(oracle.receive(y).len(), 3);
        assert_eq!(rs[4].read(x0), oracle.read(x0));
        assert_eq!(rs[4].read(x0), Some(&Value::from(1u64)));
    }

    /// Messages that can never become deliverable (duplicates) stay
    /// parked and never block fresh traffic.
    #[test]
    fn duplicates_stay_pending() {
        let (mut a, mut b) = pair();
        let (m1, _) = a
            .write(RegisterId::new(0), Value::from(1u64), vec![])
            .unwrap();
        let (m2, _) = a
            .write(RegisterId::new(0), Value::from(2u64), vec![])
            .unwrap();
        assert_eq!(b.receive(m1.clone()).len(), 1);
        // Duplicate of m1: parked forever.
        assert!(b.receive(m1).is_empty());
        assert_eq!(b.pending_count(), 1);
        // Fresh traffic still flows.
        assert_eq!(b.receive(m2).len(), 1);
        assert_eq!(b.pending_count(), 1);
        assert_eq!(b.read(RegisterId::new(0)), Some(&Value::from(2u64)));
    }
}
