//! Causality trackers: the pluggable timestamp machinery of the replica
//! prototype (Section 2.1).
//!
//! The prototype leaves three things unspecified — the timestamp
//! structure, how `advance`/`merge` update it, and the delivery predicate
//! `J`. A [`CausalityTracker`] bundles exactly those three, so one replica
//! implementation hosts:
//!
//! * [`EdgeTracker`] — the paper's edge-indexed algorithm (Section 3.3),
//!   including truncated variants (Appendix D) via bounded loop configs;
//! * [`VcTracker`] — the vector-clock baseline (full replication /
//!   dummy-register emulation, Appendix D).

use crate::message::{Metadata, UpdateMsg};
use prcc_sharegraph::{RegisterId, ReplicaId};
use prcc_timestamp::{EdgeTimestamp, JVerdict, Stamp, TsRegistry, VectorClock};
use std::fmt;
use std::sync::Arc;

/// Outcome of [`CausalityTracker::ready_check`]: the boolean predicate
/// `J`, enriched — when the tracker supports it — with the cause of a
/// block, so the replica's pending index can park the message under a
/// counter slot instead of re-scanning it after every apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyCheck {
    /// The update may be applied now.
    Ready,
    /// Blocked until local counter `slot` (a tracker-defined index)
    /// reaches `needs`; the tracker guarantees the predicate cannot turn
    /// true before that counter advances to at least `needs`.
    BlockedOn {
        /// Tracker-defined counter index that must advance.
        slot: usize,
        /// Value the counter must reach before re-evaluating.
        needs: u64,
    },
    /// Blocked for a reason the tracker cannot localize to one counter —
    /// the caller must re-evaluate after every apply (scan semantics).
    BlockedUnknown,
    /// Never deliverable (duplicate / foreign metadata); parking it
    /// forever is safe and matches the scan path, where `ready` stays
    /// false for such messages.
    Dead,
}

/// The timestamp side of a replica: `advance`, `merge`, and predicate `J`.
pub trait CausalityTracker: Send + fmt::Debug {
    /// Step 2(ii): the local replica wrote register `x`; advance the
    /// timestamp and return the metadata to attach to the update message.
    fn on_local_write(&mut self, x: RegisterId) -> Metadata;

    /// Predicate `J`: may the update carried by `msg` be applied now?
    fn ready(&self, msg: &UpdateMsg) -> bool;

    /// Predicate `J` with blocking diagnosis, for the wakeup pending
    /// index. The default delegates to [`CausalityTracker::ready`] and
    /// reports [`ReadyCheck::BlockedUnknown`] on failure, which keeps
    /// every existing tracker correct (blocked-unknown messages are
    /// re-scanned after each apply, exactly the old behavior).
    fn ready_check(&self, msg: &UpdateMsg) -> ReadyCheck {
        if self.ready(msg) {
            ReadyCheck::Ready
        } else {
            ReadyCheck::BlockedUnknown
        }
    }

    /// Batched predicate `J` over a run of consecutive updates from one
    /// issuer on a single pair stream, in send order: `Some(true)` iff the
    /// whole run is deliverable now as an in-order unit *and* merging only
    /// the last update's metadata reproduces the state of merging each in
    /// turn — the once-per-batch evaluation of
    /// [`TsRegistry::batch_ready`](prcc_timestamp::TsRegistry::batch_ready).
    /// `Some(false)` or `None` (the default: tracker has no batch
    /// evaluation) sends the caller down the per-message path.
    fn batch_ready(&self, msgs: &[UpdateMsg]) -> Option<bool> {
        let _ = msgs;
        None
    }

    /// Step 4(ii): merge the applied update's metadata into the local
    /// timestamp.
    fn on_apply(&mut self, msg: &UpdateMsg);

    /// [`CausalityTracker::on_apply`] that additionally appends
    /// `(slot, new_value)` for every local counter the merge advanced —
    /// the wakeup signal. The default performs the apply and reports
    /// nothing, which pairs with the `BlockedUnknown` default above.
    fn on_apply_report(&mut self, msg: &UpdateMsg, advanced: &mut Vec<(usize, u64)>) {
        let _ = &*advanced;
        self.on_apply(msg);
    }

    /// The edge timestamp `τ_i`, for a tracker that keeps one — the hook
    /// through which an App E server reads `τ_i` for `J₁`/`J₂` and folds a
    /// client's `μ` into it before a write.
    fn edge_timestamp(&mut self) -> Option<&mut EdgeTimestamp> {
        None
    }

    /// Current size of the local timestamp in bytes.
    fn timestamp_bytes(&self) -> usize;

    /// Number of counters in the local timestamp.
    fn num_counters(&self) -> usize;

    /// Clones the tracker behind its trait object — required by the
    /// state-space explorer, which snapshots whole replicas.
    fn clone_box(&self) -> Box<dyn CausalityTracker>;
}

impl Clone for Box<dyn CausalityTracker> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The paper's algorithm: edge-indexed vector timestamps.
#[derive(Clone)]
pub struct EdgeTracker {
    registry: Arc<TsRegistry>,
    ts: prcc_timestamp::EdgeTimestamp,
}

impl EdgeTracker {
    /// Creates the tracker for replica `i` over a shared registry.
    pub fn new(registry: Arc<TsRegistry>, i: ReplicaId) -> Self {
        let ts = registry.new_timestamp(i);
        EdgeTracker { registry, ts }
    }

    /// The current timestamp (for inspection / tests).
    pub fn timestamp(&self) -> &prcc_timestamp::EdgeTimestamp {
        &self.ts
    }
}

impl fmt::Debug for EdgeTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeTracker").field("ts", &self.ts).finish()
    }
}

/// The incoming timestamp `msg` carries, in the form the wire delivered
/// it; `None` for metadata of another tracker.
fn stamp(msg: &UpdateMsg) -> Option<Stamp<'_>> {
    match &*msg.meta {
        Metadata::Edge(t) => Some(Stamp::Full(t)),
        Metadata::Projected { values, .. } => Some(Stamp::Projected(values)),
        _ => None,
    }
}

impl CausalityTracker for EdgeTracker {
    fn on_local_write(&mut self, x: RegisterId) -> Metadata {
        self.registry.advance(&mut self.ts, x);
        Metadata::Edge(self.ts.clone())
    }

    fn ready(&self, msg: &UpdateMsg) -> bool {
        self.ready_check(msg) == ReadyCheck::Ready
    }

    fn ready_check(&self, msg: &UpdateMsg) -> ReadyCheck {
        // Foreign metadata can never become deliverable here.
        match stamp(msg).map(|s| self.registry.ready_check(&self.ts, msg.issuer, s)) {
            Some(JVerdict::Ready) => ReadyCheck::Ready,
            Some(JVerdict::Blocked { slot, needs }) => ReadyCheck::BlockedOn { slot, needs },
            Some(JVerdict::Dead) | None => ReadyCheck::Dead,
        }
    }

    fn batch_ready(&self, msgs: &[UpdateMsg]) -> Option<bool> {
        let (first, rest) = msgs.split_first()?;
        if rest.iter().any(|m| m.issuer != first.issuer) {
            return Some(false);
        }
        let stamps: Option<Vec<Stamp<'_>>> = msgs.iter().map(stamp).collect();
        Some(stamps.is_some_and(|s| self.registry.batch_ready(&self.ts, first.issuer, &s)))
    }

    fn on_apply(&mut self, msg: &UpdateMsg) {
        if let Some(s) = stamp(msg) {
            self.registry.merge(&mut self.ts, msg.issuer, s);
        }
    }

    fn on_apply_report(&mut self, msg: &UpdateMsg, advanced: &mut Vec<(usize, u64)>) {
        if let Some(s) = stamp(msg) {
            self.registry
                .merge_report(&mut self.ts, msg.issuer, s, advanced);
        }
    }

    fn edge_timestamp(&mut self) -> Option<&mut EdgeTimestamp> {
        Some(&mut self.ts)
    }

    fn timestamp_bytes(&self) -> usize {
        self.ts.wire_size_bytes()
    }

    fn num_counters(&self) -> usize {
        self.ts.num_counters()
    }

    fn clone_box(&self) -> Box<dyn CausalityTracker> {
        Box::new(self.clone())
    }
}

/// The vector-clock baseline. Correct only when every replica sees the
/// metadata of every update (full replication, or partial replication with
/// dummy registers everywhere — Appendix D), which is exactly how the
/// [`System`](crate::System) wires it.
#[derive(Debug, Clone)]
pub struct VcTracker {
    me: ReplicaId,
    vc: VectorClock,
}

impl VcTracker {
    /// Creates the tracker for replica `me` in a system of `replicas`.
    pub fn new(me: ReplicaId, replicas: usize) -> Self {
        VcTracker {
            me,
            vc: VectorClock::new(replicas),
        }
    }

    /// The current clock (for inspection / tests).
    pub fn clock(&self) -> &VectorClock {
        &self.vc
    }
}

impl CausalityTracker for VcTracker {
    fn on_local_write(&mut self, _x: RegisterId) -> Metadata {
        self.vc.increment(self.me);
        Metadata::Vector(self.vc.clone())
    }

    fn ready(&self, msg: &UpdateMsg) -> bool {
        match &*msg.meta {
            Metadata::Vector(v) => self.vc.deliverable(msg.issuer, v),
            _ => false,
        }
    }

    fn on_apply(&mut self, msg: &UpdateMsg) {
        if let Metadata::Vector(v) = &*msg.meta {
            self.vc.merge(v);
        }
    }

    fn timestamp_bytes(&self) -> usize {
        self.vc.wire_size_bytes()
    }

    fn num_counters(&self) -> usize {
        self.vc.len()
    }

    fn clone_box(&self) -> Box<dyn CausalityTracker> {
        Box::new(self.clone())
    }
}

/// Explicit dependency tracking: every update carries its **entire
/// transitive causal past** as a list of `(issuer, seq, register)`
/// entries — the Full-Track-style baseline from the paper's related work
/// (Shen et al.). Correct under partial replication because a recipient
/// gates only on dependencies whose register it stores (the full closure
/// is present, so transitivity never leaks); hopeless in metadata cost,
/// which is exactly the point the paper's fixed-size timestamps make.
#[derive(Clone)]
pub struct FullDepsTracker {
    me: ReplicaId,
    stores: prcc_sharegraph::RegSet,
    next_seq: u64,
    /// Everything in this replica's causal past (applied or issued).
    past: std::collections::BTreeSet<crate::message::DepEntry>,
    /// Fast membership: (issuer, seq) pairs applied/issued here.
    applied: std::collections::HashSet<(ReplicaId, u64)>,
}

impl FullDepsTracker {
    /// Creates the tracker for replica `me`, which stores `stores`.
    pub fn new(me: ReplicaId, stores: prcc_sharegraph::RegSet) -> Self {
        FullDepsTracker {
            me,
            stores,
            next_seq: 0,
            past: std::collections::BTreeSet::new(),
            applied: std::collections::HashSet::new(),
        }
    }

    /// Records the identity of an applied update (called by the replica
    /// layer, which knows the update's id and register — `on_apply` only
    /// sees the metadata).
    pub fn note_applied(&mut self, entry: crate::message::DepEntry) {
        self.past.insert(entry);
        self.applied.insert((entry.issuer, entry.seq));
    }
}

impl fmt::Debug for FullDepsTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FullDepsTracker")
            .field("me", &self.me)
            .field("past", &self.past.len())
            .finish()
    }
}

impl CausalityTracker for FullDepsTracker {
    fn on_local_write(&mut self, x: RegisterId) -> Metadata {
        // The attached metadata is the past *before* this write (its
        // dependencies); then the write joins the past.
        let deps: Vec<crate::message::DepEntry> = self.past.iter().copied().collect();
        let entry = crate::message::DepEntry {
            issuer: self.me,
            seq: self.next_seq,
            register: x,
        };
        self.next_seq += 1;
        self.note_applied(entry);
        Metadata::Deps(deps)
    }

    fn ready(&self, msg: &UpdateMsg) -> bool {
        match &*msg.meta {
            Metadata::Deps(deps) => deps.iter().all(|d| {
                !self.stores.contains(d.register) || self.applied.contains(&(d.issuer, d.seq))
            }),
            _ => false,
        }
    }

    fn on_apply(&mut self, msg: &UpdateMsg) {
        if let Metadata::Deps(deps) = &*msg.meta {
            for &d in deps {
                self.past.insert(d);
            }
            self.note_applied(crate::message::DepEntry {
                issuer: msg.issuer,
                seq: msg.seq,
                register: msg.register,
            });
        }
    }

    fn timestamp_bytes(&self) -> usize {
        self.past.len() * 16
    }

    fn num_counters(&self) -> usize {
        self.past.len()
    }

    fn clone_box(&self) -> Box<dyn CausalityTracker> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, LoopConfig, TimestampGraphs};

    /// Wraps metadata in a message envelope for predicate calls.
    fn msg(issuer: u32, seq: u64, reg: u32, meta: Metadata) -> UpdateMsg {
        UpdateMsg {
            issuer: ReplicaId::new(issuer),
            seq,
            register: RegisterId::new(reg),
            value: Some(crate::value::Value::from(0u64)),
            meta: Arc::new(meta),
            transit: None,
        }
    }

    fn edge_tracker_pair() -> (EdgeTracker, EdgeTracker) {
        let g = topology::path(2);
        let reg = Arc::new(TsRegistry::new(
            &g,
            TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
        ));
        (
            EdgeTracker::new(reg.clone(), ReplicaId::new(0)),
            EdgeTracker::new(reg, ReplicaId::new(1)),
        )
    }

    #[test]
    fn edge_tracker_round_trip() {
        let (mut a, mut b) = edge_tracker_pair();
        let m1 = msg(0, 0, 0, a.on_local_write(RegisterId::new(0)));
        let m2 = msg(0, 1, 0, a.on_local_write(RegisterId::new(0)));
        assert!(!b.ready(&m2));
        assert!(b.ready(&m1));
        b.on_apply(&m1);
        assert!(b.ready(&m2));
        assert_eq!(a.num_counters(), 2);
        assert_eq!(a.timestamp_bytes(), 16);
    }

    #[test]
    fn edge_tracker_rejects_foreign_metadata() {
        let (a, _) = edge_tracker_pair();
        let vc_meta = msg(1, 0, 0, Metadata::Vector(VectorClock::new(2)));
        assert!(!a.ready(&vc_meta));
    }

    #[test]
    fn vc_tracker_round_trip() {
        let mut a = VcTracker::new(ReplicaId::new(0), 3);
        let mut b = VcTracker::new(ReplicaId::new(1), 3);
        let m1 = msg(0, 0, 0, a.on_local_write(RegisterId::new(0)));
        let m2 = msg(0, 1, 5, a.on_local_write(RegisterId::new(5)));
        assert!(!b.ready(&m2));
        assert!(b.ready(&m1));
        b.on_apply(&m1);
        assert!(b.ready(&m2));
        assert_eq!(b.num_counters(), 3);
    }

    #[test]
    fn vc_tracker_rejects_foreign_metadata() {
        let edge_meta = {
            let (mut src, _) = edge_tracker_pair();
            src.on_local_write(RegisterId::new(0))
        };
        let vc = VcTracker::new(ReplicaId::new(1), 2);
        assert!(!vc.ready(&msg(0, 0, 0, edge_meta)));
    }

    #[test]
    fn full_deps_tracker_round_trip() {
        let g = topology::path(2);
        let mut a = FullDepsTracker::new(
            ReplicaId::new(0),
            g.placement().registers_of(ReplicaId::new(0)).clone(),
        );
        let mut b = FullDepsTracker::new(
            ReplicaId::new(1),
            g.placement().registers_of(ReplicaId::new(1)).clone(),
        );
        let m1 = msg(0, 0, 0, a.on_local_write(RegisterId::new(0)));
        let m2 = msg(0, 1, 0, a.on_local_write(RegisterId::new(0)));
        // m2's deps include m1 (register 0, stored at b): blocked.
        assert!(!b.ready(&m2));
        assert!(b.ready(&m1)); // no deps
        b.on_apply(&m1);
        assert!(b.ready(&m2));
        b.on_apply(&m2);
        // Metadata grows with history — the Full-Track cost.
        assert_eq!(m1.meta.num_counters(), 0);
        assert_eq!(m2.meta.num_counters(), 1);
        assert_eq!(b.num_counters(), 2);
        assert!(format!("{b:?}").contains("FullDepsTracker"));
    }

    #[test]
    fn full_deps_ignores_unstored_registers() {
        // Receiver does not store register 9: a dep on it never gates.
        let mut issuer = FullDepsTracker::new(
            ReplicaId::new(0),
            prcc_sharegraph::RegSet::from_indices([0, 9]),
        );
        let receiver = FullDepsTracker::new(
            ReplicaId::new(1),
            prcc_sharegraph::RegSet::from_indices([0]),
        );
        issuer.on_local_write(RegisterId::new(9)); // dep on reg 9
        let m = msg(0, 1, 0, issuer.on_local_write(RegisterId::new(0)));
        assert!(receiver.ready(&m));
    }

    #[test]
    fn edge_tracker_ready_check_localizes_blocks() {
        let (mut a, mut b) = edge_tracker_pair();
        let m1 = msg(0, 0, 0, a.on_local_write(RegisterId::new(0)));
        let m2 = msg(0, 1, 0, a.on_local_write(RegisterId::new(0)));
        assert_eq!(b.ready_check(&m1), ReadyCheck::Ready);
        let ReadyCheck::BlockedOn { slot, needs } = b.ready_check(&m2) else {
            panic!("expected BlockedOn, got {:?}", b.ready_check(&m2));
        };
        assert_eq!(needs, 1);
        // Applying m1 must advance exactly the blocking slot to `needs`.
        let mut advanced = Vec::new();
        b.on_apply_report(&m1, &mut advanced);
        assert!(advanced.contains(&(slot, needs)), "advanced: {advanced:?}");
        assert_eq!(b.ready_check(&m2), ReadyCheck::Ready);
        // Duplicate delivery of m1 is Dead, as is foreign metadata.
        assert_eq!(b.ready_check(&m1), ReadyCheck::Dead);
        let foreign = msg(0, 7, 0, Metadata::Vector(VectorClock::new(2)));
        assert_eq!(b.ready_check(&foreign), ReadyCheck::Dead);
    }

    #[test]
    fn default_ready_check_reports_unknown() {
        // VcTracker uses the trait defaults: blocked ⇒ BlockedUnknown,
        // on_apply_report ⇒ no slot info.
        let mut a = VcTracker::new(ReplicaId::new(0), 2);
        let b = VcTracker::new(ReplicaId::new(1), 2);
        let m1 = msg(0, 0, 0, a.on_local_write(RegisterId::new(0)));
        let m2 = msg(0, 1, 0, a.on_local_write(RegisterId::new(0)));
        assert_eq!(b.ready_check(&m1), ReadyCheck::Ready);
        assert_eq!(b.ready_check(&m2), ReadyCheck::BlockedUnknown);
        let mut advanced = Vec::new();
        let mut b2 = b.clone();
        b2.on_apply_report(&m1, &mut advanced);
        assert!(advanced.is_empty());
        assert_eq!(b2.ready_check(&m2), ReadyCheck::Ready);
    }

    #[test]
    fn trackers_are_debuggable() {
        let (a, _) = edge_tracker_pair();
        assert!(format!("{a:?}").contains("EdgeTracker"));
        let v = VcTracker::new(ReplicaId::new(0), 2);
        assert!(format!("{v:?}").contains("VcTracker"));
    }
}
