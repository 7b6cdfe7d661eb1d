//! The replica engine: one replica's protocol stack as a sans-I/O state
//! machine, driven by both [`System`](crate::System) and the threaded
//! runtime (DESIGN §15).
//!
//! An [`Engine`] owns one [`Replica`], its [`WireCodec`], a
//! per-destination coalescer under a [`BatchPolicy`], an optional
//! [`SessionEndpoint`], an optional [`RecoveryLog`], the applied frontier
//! and the crashed flag. It holds no threads, channels, doorbells or
//! clocks. Each input is one method — [`write`](Engine::write),
//! [`on_frame`](Engine::on_frame), [`flush`](Engine::flush),
//! [`tick`](Engine::tick), [`crash`](Engine::crash),
//! [`restart`](Engine::restart) — taking the time as a `now: u64` in the
//! driver's unit (simulated ticks, or µs since the cluster epoch with
//! [`SessionConfig`] scaled once in the [`EngineConfig`]). Every frame to
//! transmit is pushed onto a driver-owned `out` buffer, performed after
//! the call.
//!
//! Batches are self-clocking: no timer closes one. A batch ships when it
//! reaches a [`BatchPolicy`] cap, or when the driver ends the pass that
//! filled it with [`flush`](Engine::flush) or [`crash`](Engine::crash) —
//! so at low load a write ships at once, and under load passes lengthen
//! and batches grow. Durable engines batch like every other.
//!
//! The engine, and only the engine, enforces the two orderings the
//! stack promises: a batch enters the durable outbox before its frame is
//! emitted, and a delivered batch enters the WAL before its ack is.

use crate::codec::{CodecStats, WireCodec, WireMode};
use crate::message::{BatchMsg, UpdateMsg};
use crate::recovery::RecoveryLog;
use crate::replica::{Applied, Replica, ReplicaError};
use crate::value::Value;
use prcc_net::{SessionConfig, SessionEndpoint, SessionFrame, SessionStats};
use prcc_sharegraph::{Placement, RegisterId, ReplicaId, ShareGraph};
use prcc_timestamp::TsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the sender-side pipeline coalesces queued updates into
/// [`BatchMsg`] frames, per ordered `(sender, receiver)` pair.
///
/// A pending batch is flushed to the network when it reaches
/// `batch_count` updates or `batch_bytes` payload bytes, or at the end of
/// the driver pass that opened it — whichever comes first. A crash ends
/// the pass too: it ships every open batch before the replica goes
/// down, so the durable outbox is complete at every crash instant
/// whatever the policy. `batch_count <= 1` closes every batch on its
/// first update (singleton batches, byte-identical to the unbatched
/// wire: see [`BatchMsg::size_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Max updates per batch (flush trigger). `<= 1` ships singletons.
    pub batch_count: usize,
    /// Max accumulated payload bytes per batch (flush trigger).
    pub batch_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            batch_count: 16,
            batch_bytes: 4096,
        }
    }
}

impl BatchPolicy {
    /// The differential oracle: every update ships immediately as a
    /// singleton batch — the exact unbatched wire behavior.
    pub fn unbatched() -> Self {
        BatchPolicy {
            batch_count: 1,
            batch_bytes: 0,
        }
    }
}

/// One frame the engine asks its driver to transmit.
pub(crate) type Outgoing = (ReplicaId, SessionFrame<BatchMsg>);

/// The recipients of a write of `register` at `from`: the register's
/// other holders in `graph`, or every other replica under `broadcast`
/// (the vector-clock baseline). The callers ship the value only to those
/// that store `register`; the rest get metadata only.
pub(crate) fn recipients(
    graph: &ShareGraph,
    broadcast: bool,
    from: ReplicaId,
    register: RegisterId,
) -> Vec<ReplicaId> {
    if broadcast {
        graph.replicas().filter(|&h| h != from).collect()
    } else {
        let holders = graph.placement().holders(register);
        holders.iter().copied().filter(|&h| h != from).collect()
    }
}

/// What every engine of one deployment shares. Times are in the
/// driver's clock unit.
pub(crate) struct EngineConfig {
    /// The effective share graph: metadata recipients and the neighbours
    /// a restart announces itself to.
    pub graph: Arc<ShareGraph>,
    /// The data placement: which recipients receive the value.
    pub data: Placement,
    /// Send metadata to every replica (the vector-clock baseline).
    pub broadcast: bool,
    /// Layouts for the compressed wire; `None` passes metadata through.
    pub registry: Option<Arc<TsRegistry>>,
    pub wire: WireMode,
    pub batch: BatchPolicy,
    pub session: Option<SessionConfig>,
    /// Arms a [`RecoveryLog`] with this WAL length between snapshots.
    pub snapshot_every: Option<usize>,
}

/// A per-destination batch waiting for a cap or the pass's flush.
#[derive(Default)]
struct Pending {
    msgs: Vec<UpdateMsg>,
    bytes: usize,
}

/// The result of one [`Engine::write`].
pub(crate) struct Issued {
    /// The update as issued, carrying the full timestamp.
    pub msg: UpdateMsg,
    /// Recipients it was fanned out to.
    pub fanout: usize,
    /// `Σ meta.size_bytes()` over the per-recipient frames.
    pub wire_bytes: usize,
}

/// One replica's protocol stack. See the module docs.
pub(crate) struct Engine {
    config: Arc<EngineConfig>,
    replica: Replica,
    codec: WireCodec,
    /// Codec counters of the codecs that restarts discarded.
    codec_retired: CodecStats,
    outq: BTreeMap<ReplicaId, Pending>,
    session: Option<SessionEndpoint<BatchMsg>>,
    log: Option<RecoveryLog>,
    /// `frontier[i]` = updates from issuer `i` issued or applied here.
    frontier: Vec<u64>,
    crashed: bool,
    /// Session responses held until the deliveries they ack are logged.
    acks: Vec<Outgoing>,
}

impl Engine {
    pub fn new(replica: Replica, config: Arc<EngineConfig>) -> Self {
        let id = replica.id();
        Engine {
            codec: WireCodec::new(config.wire, config.registry.clone()),
            codec_retired: CodecStats::default(),
            outq: BTreeMap::new(),
            session: config.session.map(|cfg| SessionEndpoint::new(id, cfg)),
            log: config
                .snapshot_every
                .map(|every| RecoveryLog::new(replica.clone(), every)),
            frontier: vec![0; config.graph.num_replicas()],
            crashed: false,
            acks: Vec::new(),
            replica,
            config,
        }
    }

    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    pub fn frontier(&self) -> &[u64] {
        &self.frontier
    }

    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    pub fn session_stats(&self) -> Option<SessionStats> {
        self.session.as_ref().map(SessionEndpoint::stats)
    }

    /// Codec counters across restarts.
    pub fn codec_stats(&self) -> CodecStats {
        add_codec_stats(self.codec_retired, self.codec.stats())
    }

    /// No open batch and every session stream acked.
    pub fn is_quiet(&self) -> bool {
        self.outq.is_empty() && self.session.as_ref().is_none_or(SessionEndpoint::is_idle)
    }

    /// Issues a client write: WAL entry, `advance`, encode-once fan-out
    /// to the register's other holders (everyone under `broadcast`), then
    /// coalescing. `on_send` sees each per-recipient update as it is
    /// queued.
    pub fn write(
        &mut self,
        register: RegisterId,
        value: Value,
        now: u64,
        out: &mut Vec<Outgoing>,
        mut on_send: impl FnMut(ReplicaId, &UpdateMsg),
    ) -> Result<Issued, ReplicaError> {
        let id = self.replica.id();
        if self.crashed {
            return Err(ReplicaError::Crashed { replica: id });
        }
        let recipients = recipients(&self.config.graph, self.config.broadcast, id, register);
        let (msg, recipients) = self.replica.write(register, value, recipients)?;
        self.frontier[id.index()] = msg.seq + 1;
        if let Some(log) = &mut self.log {
            // Crashes land between inputs, so the entry and the state
            // change are atomic, and it is durable before any effect.
            log.record_own_write(register, msg.value.clone().expect("writes carry a value"));
            log.maybe_snapshot_with_frontier(&self.replica, &self.frontier);
        }
        // Encode-once fan-out: recipients share the issuer's metadata
        // `Arc` (raw) or a per-pair projected frame, and recipients whose
        // pair streams are identical share one varint pass.
        let metas = self.codec.encode_fanout(id, &recipients, &msg.meta);
        let mut wire_bytes = 0;
        for (&dst, meta) in recipients.iter().zip(metas) {
            wire_bytes += meta.size_bytes();
            let m = UpdateMsg {
                issuer: msg.issuer,
                seq: msg.seq,
                register,
                value: if self.config.data.stores(dst, register) {
                    msg.value.clone()
                } else {
                    None // metadata-only recipient
                },
                meta,
                transit: msg.transit.clone(),
            };
            on_send(dst, &m);
            self.enqueue(dst, m, now, out);
        }
        Ok(Issued {
            msg,
            fanout: recipients.len(),
            wire_bytes,
        })
    }

    fn enqueue(&mut self, dst: ReplicaId, m: UpdateMsg, now: u64, out: &mut Vec<Outgoing>) {
        let q = self.outq.entry(dst).or_default();
        q.bytes += m.size_bytes();
        q.msgs.push(m);
        let policy = self.config.batch;
        if q.msgs.len() >= policy.batch_count || q.bytes >= policy.batch_bytes {
            let q = self.outq.remove(&dst).expect("slot just filled");
            let batch = BatchMsg { updates: q.msgs };
            ship(&mut self.session, &mut self.log, dst, batch, now, out);
        }
    }

    /// Handles one arriving frame: session dedup / reorder / ack, WAL,
    /// then [`Replica::receive_batch`] per released batch (`on_release`
    /// sees each batch first). Returns the updates applied. A crashed
    /// engine discards the frame.
    pub fn on_frame(
        &mut self,
        src: ReplicaId,
        frame: SessionFrame<BatchMsg>,
        now: u64,
        out: &mut Vec<Outgoing>,
        mut on_release: impl FnMut(&BatchMsg),
    ) -> Vec<Applied> {
        if self.crashed {
            return Vec::new();
        }
        let payloads = match (&mut self.session, frame) {
            (Some(ep), frame) => ep.on_frame(src, frame, now, &mut self.acks),
            (None, SessionFrame::Bare(b)) => vec![b],
            // Both ends of a link share one configuration.
            (None, _) => Vec::new(),
        };
        if let Some(log) = &mut self.log {
            for b in &payloads {
                log.record_delivery(src, b.clone());
            }
        }
        let mut applied = Vec::new();
        for batch in payloads {
            on_release(&batch);
            let got = self.replica.receive_batch(batch.updates);
            for a in &got {
                let f = &mut self.frontier[a.msg.issuer.index()];
                *f = (*f).max(a.msg.seq + 1);
            }
            if applied.is_empty() {
                applied = got;
            } else {
                applied.extend(got);
            }
        }
        if let Some(log) = &mut self.log {
            log.maybe_snapshot_with_frontier(&self.replica, &self.frontier);
        }
        // Ack-after-durable: the acks leave only now.
        out.append(&mut self.acks);
        applied
    }

    /// The timer input: due retransmissions and delayed acks.
    pub fn tick(&mut self, now: u64, out: &mut Vec<Outgoing>) {
        match &mut self.session {
            Some(ep) if !self.crashed && ep.next_deadline().is_some_and(|d| d <= now) => {
                ep.poll(now, out);
            }
            _ => {}
        }
    }

    /// True while a batch is open: the driver owes a [`flush`](Self::flush).
    pub fn has_open_batch(&self) -> bool {
        !self.outq.is_empty()
    }

    /// Ships every open batch, in destination order: the end of a driver
    /// pass (and shutdown).
    pub fn flush(&mut self, now: u64, out: &mut Vec<Outgoing>) {
        for (dst, q) in std::mem::take(&mut self.outq) {
            let batch = BatchMsg { updates: q.msgs };
            ship(&mut self.session, &mut self.log, dst, batch, now, out);
        }
    }

    /// Crashes the engine at the end of a pass: every open batch ships
    /// first (outbox entry, then frame), as [`flush`](Self::flush) would,
    /// so nothing the outbox omits was ever acked. Returns `false` (and
    /// does nothing) when already down or when no log is armed — a crash
    /// without one would be permanent loss, which no driver models.
    pub fn crash(&mut self, now: u64, out: &mut Vec<Outgoing>) -> bool {
        if self.crashed || self.log.is_none() {
            return false;
        }
        self.flush(now, out);
        self.crashed = true;
        true
    }

    /// Recovers a crashed engine from its log: replica and frontier by
    /// snapshot + WAL replay, a fresh codec (delta streams are volatile;
    /// frames carry decoded values, so only byte counts change), and the
    /// session endpoint rebuilt from the outbox with a `CatchUp` to every
    /// share-graph neighbour — at cum 0 for one never heard from, so a
    /// peer whose frames all died re-feeds at once instead of waiting
    /// out its backed-off RTO. Returns `false` if not crashed.
    pub fn restart(&mut self, now: u64, out: &mut Vec<Outgoing>) -> bool {
        if !self.crashed {
            return false;
        }
        let log = self.log.as_ref().expect("only a logged engine crashes");
        let id = self.replica.id();
        (self.replica, self.frontier) = log.recover_with_frontier(self.config.graph.num_replicas());
        self.codec_retired = add_codec_stats(self.codec_retired, self.codec.stats());
        self.codec = WireCodec::new(self.config.wire, self.config.registry.clone());
        if let Some(ep) = &mut self.session {
            let mut cums = log.recv_cums();
            for &peer in self.config.graph.neighbors(id) {
                cums.entry(peer).or_insert(0);
            }
            ep.restart(log.outbox(), &cums, now, out);
        }
        self.crashed = false;
        true
    }

    /// The next instant [`tick`](Self::tick) has work: a session timer.
    /// `None` when crashed or no timer is armed.
    pub fn next_deadline(&self) -> Option<u64> {
        match &self.session {
            Some(ep) if !self.crashed => ep.next_deadline(),
            _ => None,
        }
    }
}

/// Field-wise sum of two codec counter sets.
pub(crate) fn add_codec_stats(a: CodecStats, b: CodecStats) -> CodecStats {
    CodecStats {
        frames: a.frames + b.frames,
        shared_frames: a.shared_frames + b.shared_frames,
        demotions: a.demotions + b.demotions,
    }
}

/// Hands one batch to the session layer (or ships it bare). With both a
/// log and a session, the batch enters the durable outbox first — the
/// history a session restart rebuilds its sender streams from.
fn ship(
    session: &mut Option<SessionEndpoint<BatchMsg>>,
    log: &mut Option<RecoveryLog>,
    dst: ReplicaId,
    batch: BatchMsg,
    now: u64,
    out: &mut Vec<Outgoing>,
) {
    let frame = match session {
        Some(ep) => {
            if let Some(log) = log {
                log.record_send(dst, batch.clone());
            }
            ep.send(dst, batch, now)
        }
        None => SessionFrame::Bare(batch),
    };
    out.push((dst, frame));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CausalityTracker, EdgeTracker};
    use prcc_sharegraph::{topology, LoopConfig, TimestampGraphs};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    /// Engines for every replica of ring(4) on the raw wire (fixed
    /// message sizes), with the given stack settings.
    fn ring(
        batch: BatchPolicy,
        session: Option<SessionConfig>,
        snapshot_every: Option<usize>,
    ) -> Vec<Engine> {
        let graph = Arc::new(topology::ring(4));
        let graphs = TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE);
        let registry = Arc::new(TsRegistry::new(&graph, graphs));
        let config = Arc::new(EngineConfig {
            data: graph.placement().clone(),
            graph: Arc::clone(&graph),
            broadcast: false,
            registry: Some(Arc::clone(&registry)),
            wire: WireMode::Raw,
            batch,
            session,
            snapshot_every,
        });
        graph
            .replicas()
            .map(|i| {
                let tracker = Box::new(EdgeTracker::new(registry.clone(), i));
                let stores = graph.placement().registers_of(i).clone();
                let replica = Replica::new(i, stores, tracker as Box<dyn CausalityTracker>);
                Engine::new(replica, Arc::clone(&config))
            })
            .collect()
    }

    fn batching(count: usize, bytes: usize) -> BatchPolicy {
        BatchPolicy {
            batch_count: count,
            batch_bytes: bytes,
        }
    }

    fn session() -> Option<SessionConfig> {
        Some(SessionConfig {
            rto_base: 100,
            rto_max: 800,
            jitter: 0,
            ack_delay: 0,
        })
    }

    /// Writes register 0 at replica 0; on ring(4) its one other holder
    /// is replica 1.
    fn write(e: &mut Engine, v: u64, now: u64, out: &mut Vec<Outgoing>) {
        e.write(x(0), Value::from(v), now, out, |_, _| {}).unwrap();
    }

    fn batch_len(frame: &SessionFrame<BatchMsg>) -> usize {
        frame.payload().map_or(0, BatchMsg::len)
    }

    #[test]
    fn a_batch_closes_on_its_count() {
        let mut e = ring(batching(3, usize::MAX), None, None).remove(0);
        let mut out = Vec::new();
        write(&mut e, 1, 0, &mut out);
        write(&mut e, 2, 1, &mut out);
        assert!(out.is_empty());
        write(&mut e, 3, 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].0, batch_len(&out[0].1)), (r(1), 3));
        assert_eq!(e.next_deadline(), None, "nothing left open");
    }

    #[test]
    fn a_batch_closes_on_its_bytes() {
        // One update's size, read off an unbatched engine's singleton.
        let mut probe = ring(BatchPolicy::unbatched(), None, None).remove(0);
        let mut out = Vec::new();
        write(&mut probe, 1, 0, &mut out);
        let size = out[0].1.payload().unwrap().size_bytes();

        let mut e = ring(batching(16, 2 * size - 1), None, None).remove(0);
        out.clear();
        write(&mut e, 1, 0, &mut out);
        assert!(out.is_empty(), "one update is under the byte cap");
        write(&mut e, 2, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(batch_len(&out[0].1), 2);
    }

    #[test]
    fn an_open_batch_ships_at_the_pass_flush() {
        let mut e = ring(batching(16, usize::MAX), None, None).remove(0);
        let mut out = Vec::new();
        write(&mut e, 1, 5, &mut out);
        write(&mut e, 2, 7, &mut out);
        assert!(e.has_open_batch());
        assert_eq!(e.next_deadline(), None, "no timer closes a batch");
        e.tick(1_000_000, &mut out);
        assert!(out.is_empty(), "time alone ships nothing");
        e.flush(8, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].0, batch_len(&out[0].1)), (r(1), 2));
        assert!(!e.has_open_batch());
    }

    #[test]
    fn unbatched_engines_ship_singletons() {
        // A one-update batch hits its count cap: every update ships at
        // once, alone.
        let mut e = ring(BatchPolicy::unbatched(), None, Some(64)).remove(0);
        let mut out = Vec::new();
        for v in 0..3 {
            write(&mut e, v, 0, &mut out);
            assert_eq!(out.len(), v as usize + 1);
        }
        assert!(out.iter().all(|(dst, f)| *dst == r(1) && batch_len(f) == 1));
        assert!(!e.has_open_batch());
    }

    #[test]
    fn a_durable_engine_batches_and_its_crash_ships_the_open_batch() {
        let mut e = ring(BatchPolicy::default(), session(), Some(64)).remove(0);
        let mut out = Vec::new();
        write(&mut e, 1, 0, &mut out);
        write(&mut e, 2, 0, &mut out);
        assert!(out.is_empty(), "a durable engine coalesces");
        assert!(e.has_open_batch());
        assert!(e.crash(3, &mut out));
        assert!(!e.has_open_batch());
        let [(dst, frame @ SessionFrame::Data { seq: 1, .. })] = out.as_slice() else {
            panic!("expected one data frame, got {out:?}");
        };
        let batch = frame.payload().unwrap().clone();
        assert_eq!((*dst, batch.len()), (r(1), 2));
        // The crash landed after the batch's outbox entry: restart
        // re-sends it.
        assert_eq!(e.log.as_ref().unwrap().outbox()[&r(1)], vec![batch.clone()]);
        out.clear();
        assert!(e.restart(50, &mut out));
        assert!(out.iter().any(|(dst, f)| *dst == r(1)
            && matches!(f, SessionFrame::Data { seq: 1, payload, .. } if *payload == batch)));
    }

    #[test]
    fn an_outbox_entry_precedes_its_frame() {
        let mut e = ring(BatchPolicy::unbatched(), session(), Some(64)).remove(0);
        let mut out = Vec::new();
        write(&mut e, 7, 0, &mut out);
        let [(dst, SessionFrame::Data { seq, payload, .. })] = out.as_slice() else {
            panic!("expected one data frame, got {out:?}");
        };
        // Session sequence k is outbox entry k-1: restart re-sends it.
        let outbox = e.log.as_ref().unwrap().outbox();
        assert_eq!(outbox[dst][*seq as usize - 1], *payload);

        // Without a session nothing ever reads the outbox: none is kept.
        let mut bare = ring(BatchPolicy::unbatched(), None, Some(64)).remove(0);
        write(&mut bare, 7, 0, &mut out);
        assert!(bare.log.as_ref().unwrap().outbox().is_empty());
    }

    #[test]
    fn a_wal_delivery_record_precedes_its_ack() {
        let mut es = ring(BatchPolicy::unbatched(), session(), Some(64));
        let mut out = Vec::new();
        write(&mut es[0], 7, 0, &mut out);
        let (_, frame) = out.pop().unwrap();
        let applied = es[1].on_frame(r(0), frame, 3, &mut out, |_| {});
        assert_eq!(applied.len(), 1);
        assert!(
            matches!(out.as_slice(), [(dst, SessionFrame::Ack { cum: 1, .. })] if *dst == r(0))
        );
        let log = es[1].log.as_ref().unwrap();
        assert_eq!(log.recv_cums().get(&r(0)), Some(&1), "delivery logged");
        assert_eq!(es[1].frontier()[0], 1);
    }

    #[test]
    fn restart_sends_one_catch_up_per_neighbour() {
        let mut e = ring(BatchPolicy::unbatched(), session(), Some(64)).remove(1);
        let mut out = Vec::new();
        // Replica 1 stores registers 0 and 1; a write to 1 reaches 2.
        e.write(x(1), Value::from(9u64), 0, &mut out, |_, _| {})
            .unwrap();
        out.clear();
        assert!(e.crash(0, &mut out));
        assert!(e.restart(50, &mut out));
        let mut catch_ups: Vec<(ReplicaId, u64)> = out
            .iter()
            .filter_map(|(dst, f)| match f {
                SessionFrame::CatchUp { recv_cum } => Some((*dst, *recv_cum)),
                _ => None,
            })
            .collect();
        catch_ups.sort();
        // Both ring neighbours, at cum 0: neither was ever heard from.
        assert_eq!(catch_ups, vec![(r(0), 0), (r(2), 0)]);
        // Plus the outbox probe toward the one peer written to.
        assert_eq!(out.len(), 3);
        assert_eq!(e.replica().read(x(1)), Some(&Value::from(9u64)));
    }

    #[test]
    fn a_crashed_engine_emits_nothing_and_has_no_deadline() {
        let mut es = ring(batching(16, usize::MAX), session(), Some(64));
        let mut out = Vec::new();
        write(&mut es[0], 1, 0, &mut out);
        es[0].flush(0, &mut out);
        let (_, frame) = out.pop().unwrap();
        assert!(es[0].next_deadline().is_some(), "retransmit timer armed");
        assert!(es[1].crash(0, &mut out));
        assert!(!es[1].crash(0, &mut out), "already down");
        assert!(es[0].crash(0, &mut out));
        assert!(out.is_empty(), "no batch was open");
        assert_eq!(es[0].next_deadline(), None);
        assert!(es[1].on_frame(r(0), frame, 1, &mut out, |_| {}).is_empty());
        es[0].tick(10_000, &mut out);
        es[0].flush(10_000, &mut out);
        assert!(matches!(
            es[0].write(x(0), Value::from(2u64), 10_000, &mut out, |_, _| {}),
            Err(ReplicaError::Crashed { .. })
        ));
        assert!(out.is_empty());
        // No log, no crash: that would be permanent loss.
        let mut volatile = ring(BatchPolicy::unbatched(), None, None).remove(0);
        assert!(!volatile.crash(0, &mut out));
    }
}
