//! Crash/recovery for replicas: a durable recovery log with write-ahead
//! entries, snapshot compaction, and deterministic replay.
//!
//! The paper's replicas never fail; the fault schedule's scripted crashes
//! break that assumption, and this module repairs it. Each replica keeps
//! a [`RecoveryLog`] modelling its durable storage:
//!
//! * **WAL** — every local event, in execution order: own writes
//!   ([`WalEntry::OwnWrite`]) and session-delivered remote updates
//!   ([`WalEntry::Delivered`]).
//! * **Outbox** — every update message handed to the session layer, per
//!   peer, in send order. This is exactly the sender-stream history
//!   [`SessionEndpoint::restart`](prcc_net::SessionEndpoint::restart)
//!   rebuilds from (sequence `k` on the wire is `outbox[dst][k-1]`).
//! * **Snapshot** — a full [`Replica`] clone (store, tracker timestamp,
//!   and parked pending set) plus the per-peer durable delivery points,
//!   taken every [`snapshot_every`](RecoveryLog::new) WAL entries. A
//!   snapshot truncates the WAL — classic compaction.
//!
//! # Why replay is exact
//!
//! [`recover_with_frontier`](RecoveryLog::recover_with_frontier) clones
//! the snapshot and re-executes the WAL: `OwnWrite` re-runs
//! [`Replica::write`] (with no recipients), `Delivered` re-runs
//! [`Replica::receive`]. Both operations are
//! deterministic functions of replica state and input, and the WAL
//! preserves their original interleaving, so the recovered replica is
//! *identical* to the crashed one at its last durable event — same
//! store, same tracker counters, same parked pending updates, same
//! next sequence number. (Replaying writes through the tracker rather
//! than restoring a bare store is what keeps an own write's metadata —
//! which may depend on remote updates applied just before it —
//! byte-for-byte right.)
//!
//! # The ack-after-durable discipline
//!
//! The engine records a [`WalEntry::Delivered`] *before* the session
//! ack for that frame reaches the network. A peer's cumulative-acked
//! point therefore never runs ahead of this log, which is what makes
//! the session layer's post-restart `CatchUp{recv_cum}` sound: the
//! recovered `recv_cum` ([`RecoveryLog::recv_cums`]) only ever asks the
//! peer to rewind *un-acked* suffix, never acked history.

use crate::message::BatchMsg;
use crate::replica::Replica;
use crate::value::Value;
use prcc_sharegraph::{RegisterId, ReplicaId};
use std::collections::HashMap;
use std::fmt;

/// One durable event in the write-ahead log.
#[derive(Debug, Clone)]
pub enum WalEntry {
    /// A local client write (recipients are reconstructed from the
    /// outbox, not replayed — replay never re-sends).
    OwnWrite {
        /// The register written.
        register: RegisterId,
        /// The written value.
        value: Value,
    },
    /// A remote batch the session layer delivered in order. One entry
    /// per session frame — a batch is the session stream's unit, so
    /// counting `Delivered` entries per peer yields the durable
    /// `recv_cum` directly.
    Delivered {
        /// The sending peer (stream owner).
        src: ReplicaId,
        /// The delivered batch, exactly as received.
        msg: BatchMsg,
    },
}

/// Durable per-replica recovery state: WAL + outbox + snapshot. See the
/// module docs for the protocol.
pub struct RecoveryLog {
    outbox: HashMap<ReplicaId, Vec<BatchMsg>>,
    wal: Vec<WalEntry>,
    snapshot: Replica,
    /// Per-peer in-order delivery count folded into the snapshot.
    snapshot_cums: HashMap<ReplicaId, u64>,
    /// Per-issuer applied frontier (`frontier[i]` = next expected seq of
    /// issuer `i`) folded into the snapshot — the serving tier's
    /// `ReplicaView` coverage vector, made durable alongside the store.
    snapshot_frontier: Vec<u64>,
    snapshot_every: usize,
    snapshots_taken: usize,
}

impl fmt::Debug for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryLog")
            .field("wal", &self.wal.len())
            .field("outbox", &self.outbox.values().map(Vec::len).sum::<usize>())
            .field("snapshots_taken", &self.snapshots_taken)
            .finish()
    }
}

impl RecoveryLog {
    /// Creates the log for a replica whose initial (empty) state is
    /// `initial` — the time-zero snapshot. `snapshot_every` bounds the
    /// WAL length between compactions (0 disables snapshotting).
    pub fn new(initial: Replica, snapshot_every: usize) -> Self {
        RecoveryLog {
            outbox: HashMap::new(),
            wal: Vec::new(),
            snapshot: initial,
            snapshot_cums: HashMap::new(),
            snapshot_frontier: Vec::new(),
            snapshot_every,
            snapshots_taken: 0,
        }
    }

    /// Records a local write, in execution order.
    pub fn record_own_write(&mut self, register: RegisterId, value: Value) {
        self.wal.push(WalEntry::OwnWrite { register, value });
    }

    /// Records a session-delivered remote batch, in execution order.
    /// Must be called **before** the delivery's ack is transmitted
    /// (ack-after-durable).
    pub fn record_delivery(&mut self, src: ReplicaId, msg: BatchMsg) {
        self.wal.push(WalEntry::Delivered { src, msg });
    }

    /// Records a batch handed to the session layer for `dst` (send
    /// order = session sequence order).
    pub fn record_send(&mut self, dst: ReplicaId, msg: BatchMsg) {
        self.outbox.entry(dst).or_default().push(msg);
    }

    /// Compacts the WAL into a snapshot of the live replica and its
    /// applied frontier, if the WAL has reached the configured length.
    /// `live` and `frontier` must reflect every logged event (the engine
    /// calls this right after logging), so
    /// [`recover_with_frontier`](RecoveryLog::recover_with_frontier) can
    /// rebuild the serving tier's coverage vector without replaying the
    /// compacted history.
    pub fn maybe_snapshot_with_frontier(&mut self, live: &Replica, frontier: &[u64]) {
        if self.snapshot_every == 0 || self.wal.len() < self.snapshot_every {
            return;
        }
        for e in &self.wal {
            if let WalEntry::Delivered { src, .. } = e {
                *self.snapshot_cums.entry(*src).or_insert(0) += 1;
            }
        }
        self.snapshot = live.clone();
        self.snapshot_frontier = frontier.to_vec();
        self.wal.clear();
        self.snapshots_taken += 1;
    }

    /// The per-peer durable in-order delivery points (session
    /// `recv_cum`s): snapshot counts plus WAL deliveries.
    pub fn recv_cums(&self) -> HashMap<ReplicaId, u64> {
        let mut cums = self.snapshot_cums.clone();
        for e in &self.wal {
            if let WalEntry::Delivered { src, .. } = e {
                *cums.entry(*src).or_insert(0) += 1;
            }
        }
        cums
    }

    /// The per-peer send history (session sender-stream payloads).
    pub fn outbox(&self) -> &HashMap<ReplicaId, Vec<BatchMsg>> {
        &self.outbox
    }

    /// Rebuilds the replica as of its last durable event — snapshot
    /// clone plus WAL replay (see the module docs for why this is exact)
    /// — *and* its applied frontier (the per-issuer next-expected-seq
    /// vector published as the serving tier's `ReplicaView` coverage). The frontier starts from the snapshot's
    /// persisted copy (resized to `num_replicas`) and is advanced by the
    /// WAL replay: an own write moves the replica's own slot, and every
    /// update the replay *applies* (parked pending updates stay parked,
    /// exactly like the live run) moves its issuer's slot.
    pub fn recover_with_frontier(&self, num_replicas: usize) -> (Replica, Vec<u64>) {
        let mut replica = self.snapshot.clone();
        let mut frontier = self.snapshot_frontier.clone();
        if frontier.len() < num_replicas {
            frontier.resize(num_replicas, 0);
        }
        let bump = |frontier: &mut Vec<u64>, issuer: ReplicaId, seq: u64| {
            if issuer.index() >= frontier.len() {
                frontier.resize(issuer.index() + 1, 0);
            }
            let slot = &mut frontier[issuer.index()];
            *slot = (*slot).max(seq + 1);
        };
        for e in &self.wal {
            match e {
                WalEntry::OwnWrite { register, value } => {
                    let (msg, _) = replica
                        .write(*register, value.clone(), Vec::new())
                        .expect("replayed write targets a stored register");
                    bump(&mut frontier, msg.issuer, msg.seq);
                }
                WalEntry::Delivered { msg, .. } => {
                    // `receive_batch` is state-identical to a per-update
                    // `receive` loop (its fallback IS that loop, and the
                    // fast path is proven equivalent), so replay stays
                    // exact at batch granularity.
                    for applied in replica.receive_batch(msg.updates.clone()) {
                        bump(&mut frontier, applied.msg.issuer, applied.msg.seq);
                    }
                }
            }
        }
        (replica, frontier)
    }

    /// Current WAL length (entries since the last snapshot).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Snapshots taken (WAL compactions).
    pub fn snapshots_taken(&self) -> usize {
        self.snapshots_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CausalityTracker, EdgeTracker};
    use prcc_sharegraph::{topology, LoopConfig, TimestampGraphs};
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

    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }
    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// Drives a replica and its log through interleaved own writes and
    /// deliveries, then checks the recovered clone matches the live one.
    #[test]
    fn replay_reproduces_interleaved_state() {
        let (mut a, mut b) = pair();
        let mut log = RecoveryLog::new(b.clone(), 0);
        // a writes 1, b applies it, b writes 2 (whose metadata now
        // depends on a's update), a writes 3, b applies it.
        let (m1, _) = a.write(x(0), Value::from(1u64), vec![r(1)]).unwrap();
        b.receive(m1.clone());
        log.record_delivery(r(0), BatchMsg::singleton(m1));
        b.write(x(0), Value::from(2u64), vec![r(0)]).unwrap();
        log.record_own_write(x(0), Value::from(2u64));
        let (m3, _) = a.write(x(0), Value::from(3u64), vec![r(1)]).unwrap();
        b.receive(m3.clone());
        log.record_delivery(r(0), BatchMsg::singleton(m3));

        let (recovered, _) = log.recover_with_frontier(2);
        assert_eq!(recovered.read(x(0)), b.read(x(0)));
        assert_eq!(recovered.applied_count(), b.applied_count());
        assert_eq!(recovered.pending_count(), b.pending_count());
        assert_eq!(
            recovered.tracker().timestamp_bytes(),
            b.tracker().timestamp_bytes()
        );
        // The next local write carries identical metadata on both.
        let mut live = b.clone();
        let mut rec = recovered;
        let (lm, _) = live.write(x(0), Value::from(9u64), vec![]).unwrap();
        let (rm, _) = rec.write(x(0), Value::from(9u64), vec![]).unwrap();
        assert_eq!(lm.meta, rm.meta, "replayed tracker must match exactly");
        assert_eq!(lm.seq, rm.seq);
    }

    #[test]
    fn pending_updates_survive_recovery() {
        let (mut a, mut b) = pair();
        let mut log = RecoveryLog::new(b.clone(), 0);
        let (m1, _) = a.write(x(0), Value::from(1u64), vec![r(1)]).unwrap();
        let (m2, _) = a.write(x(0), Value::from(2u64), vec![r(1)]).unwrap();
        // Out of order: m2 parks in pending.
        b.receive(m2.clone());
        log.record_delivery(r(0), BatchMsg::singleton(m2));
        assert_eq!(b.pending_count(), 1);
        let (recovered, _) = log.recover_with_frontier(2);
        assert_eq!(recovered.pending_count(), 1, "parked update preserved");
        // Recovery then unblocks exactly like the live replica would.
        let mut rec = recovered;
        assert_eq!(rec.receive(m1).len(), 2);
        assert_eq!(rec.read(x(0)), Some(&Value::from(2u64)));
    }

    #[test]
    fn snapshot_compacts_and_preserves_cums() {
        let (mut a, mut b) = pair();
        let mut log = RecoveryLog::new(b.clone(), 2);
        for i in 0..5u64 {
            let (m, _) = a.write(x(0), Value::from(i), vec![r(1)]).unwrap();
            let seq = m.seq;
            b.receive(m.clone());
            log.record_delivery(r(0), BatchMsg::singleton(m));
            log.maybe_snapshot_with_frontier(&b, &[seq + 1, 0]);
        }
        assert!(log.snapshots_taken() >= 2);
        assert!(log.wal_len() < 2);
        assert_eq!(log.recv_cums().get(&r(0)), Some(&5));
        let (recovered, _) = log.recover_with_frontier(2);
        assert_eq!(recovered.read(x(0)), Some(&Value::from(4u64)));
        assert_eq!(recovered.applied_count(), 5);
    }

    #[test]
    fn recovered_frontier_tracks_applies_across_snapshots() {
        let (mut a, mut b) = pair();
        let mut log = RecoveryLog::new(b.clone(), 2);
        let mut frontier = vec![0u64; 2];
        for i in 0..5u64 {
            let (m, _) = a.write(x(0), Value::from(i), vec![r(1)]).unwrap();
            b.receive(m.clone());
            frontier[0] = m.seq + 1;
            log.record_delivery(r(0), BatchMsg::singleton(m));
            log.maybe_snapshot_with_frontier(&b, &frontier);
        }
        b.write(x(0), Value::from(99u64), vec![]).unwrap();
        log.record_own_write(x(0), Value::from(99u64));
        frontier[1] = 1;
        let (rec, rec_frontier) = log.recover_with_frontier(2);
        assert_eq!(rec_frontier, frontier, "frontier survives compaction");
        assert_eq!(rec.read(x(0)), b.read(x(0)));
    }

    #[test]
    fn recovered_frontier_ignores_parked_pending() {
        let (mut a, mut b) = pair();
        let mut log = RecoveryLog::new(b.clone(), 0);
        let (_m1, _) = a.write(x(0), Value::from(1u64), vec![r(1)]).unwrap();
        let (m2, _) = a.write(x(0), Value::from(2u64), vec![r(1)]).unwrap();
        // m2 parks (m1 missing): it must NOT advance the frontier, or a
        // restarted holder would claim coverage it cannot serve.
        b.receive(m2.clone());
        log.record_delivery(r(0), BatchMsg::singleton(m2));
        let (rec, frontier) = log.recover_with_frontier(2);
        assert_eq!(frontier, vec![0, 0]);
        assert_eq!(rec.pending_count(), 1);
    }

    #[test]
    fn outbox_accumulates_in_send_order() {
        let (mut a, _) = pair();
        let mut log = RecoveryLog::new(a.clone(), 0);
        for i in 0..3u64 {
            let (m, _) = a.write(x(0), Value::from(i), vec![r(1)]).unwrap();
            log.record_send(r(1), BatchMsg::singleton(m));
        }
        let ob = log.outbox();
        assert_eq!(ob[&r(1)].len(), 3);
        assert!(ob[&r(1)]
            .windows(2)
            .all(|w| w[0].updates[0].seq + 1 == w[1].updates[0].seq));
    }
}
