//! A reliable-delivery session layer: per-ordered-pair sequenced streams
//! with cumulative acks, selective-gap feedback, timeout-driven
//! retransmission, and duplicate suppression.
//!
//! The paper assumes reliable, exactly-once (non-FIFO) channels; the
//! fault plan breaks that assumption on purpose. [`SessionEndpoint`]
//! restores it: every payload handed to [`send`](SessionEndpoint::send)
//! is delivered to the peer's endpoint **exactly once and in send
//! order**, for any loss/duplication/reordering/partition pattern that
//! eventually heals. In-order delivery is stronger than the paper needs,
//! but it is exactly what keeps the wire codec's per-pair FIFO delta
//! framing sound under faults, and the causal layer above is indifferent
//! to the extra ordering.
//!
//! # Design
//!
//! The endpoint is a pure state machine — no I/O, no clock, no RNG.
//! Callers feed it the current time (`now`, in whatever unit the caller's
//! clock uses: simulated ticks for [`SimNetwork`](crate::SimNetwork),
//! elapsed [`TICK`](crate::TICK)s for the threaded runtime) and ship the
//! frames it emits. All timing decisions are deterministic:
//! retransmission backoff is exponential with a *hash-derived* jitter (no
//! randomness), so a simulated run is reproducible from its seed alone.
//!
//! * Sender side: each payload gets the next sequence number on the
//!   `(local, dst)` stream and is retained until cumulatively acked.
//!   Unacked frames retransmit when their deadline passes, with deadline
//!   `rto_base << attempts` (capped at `rto_max`) plus jitter.
//! * Receiver side: frames at or below the cumulative point are
//!   duplicates (suppressed, but re-acked — the ack may have been the
//!   lost message); frames beyond it are buffered; every data frame
//!   triggers an [`Ack`](SessionFrame::Ack) carrying the cumulative
//!   point plus the buffered sequence numbers above it (selective gaps).
//! * Selective acks do **not** remove frames from the sender — the
//!   receiver's out-of-order buffer is volatile and dies with a crash.
//!   A sacked frame merely has its retransmission pushed out to
//!   `rto_max`, so a crashed receiver is re-fed within one long timeout
//!   even if its recovery [`CatchUp`](SessionFrame::CatchUp) is lost.
//! * Crash recovery: [`restart`](SessionEndpoint::restart) rebuilds the
//!   endpoint from the caller's durable state — the per-peer outbox of
//!   payloads ever sent and the per-peer durably-delivered cumulative
//!   points — then emits a `CatchUp` to each peer (clamping the peer's
//!   sender stream back to what actually survived) and a single probe
//!   retransmission per stream (the peer's cumulative ack prunes
//!   everything it already has, so only genuine gaps retransmit).
//!
//! # Durability contract
//!
//! Exactly-once across crashes requires **ack-after-durable**: the caller
//! must durably record the payloads returned by
//! [`on_frame`](SessionEndpoint::on_frame) *before* transmitting the
//! frames that call pushed into `out`. Then a peer's cumulative-acked
//! point never exceeds the receiver's durable point, and `restart`'s
//! `CatchUp{recv_cum}` can only move the peer's sender *forward*.

use prcc_sharegraph::ReplicaId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// What travels on the wire when a session is active.
///
/// `Bare` is the session-disabled passthrough: systems that keep the
/// paper's reliable-channel assumption send `Bare` frames and never
/// instantiate an endpoint, so both configurations share one message
/// type (and one network).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFrame<M> {
    /// Unsessioned payload — the reliable-channel fast path.
    Bare(M),
    /// Sequenced payload on the `(src, dst)` stream. Sequence numbers
    /// start at 1.
    Data {
        /// Position in the sender's stream to this destination.
        seq: u64,
        /// The payload.
        payload: M,
        /// Piggybacked cumulative ack for the *reverse* stream (the
        /// sender's in-order delivery point for the receiver's data),
        /// attached when an ack was pending toward this destination —
        /// bidirectional traffic then needs no standalone `Ack` frame.
        ack: Option<u64>,
    },
    /// Receiver feedback: everything `<= cum` has been delivered
    /// in-order; `sacks` are sequence numbers buffered above the gap.
    Ack {
        /// Cumulative in-order delivery point.
        cum: u64,
        /// Out-of-order sequence numbers held in the receive buffer.
        sacks: Vec<u64>,
    },
    /// Post-restart anti-entropy: "my durable delivery point for your
    /// stream is `recv_cum` — clamp to it and re-feed me the rest."
    CatchUp {
        /// The restarted receiver's durable cumulative point.
        recv_cum: u64,
    },
}

impl<M> SessionFrame<M> {
    /// Wire overhead of the session framing itself, on top of the
    /// payload's own size (0 for `Bare` — the passthrough adds nothing).
    pub fn overhead_bytes(&self) -> usize {
        match self {
            SessionFrame::Bare(_) => 0,
            SessionFrame::Data { ack, .. } => 8 + if ack.is_some() { 8 } else { 0 },
            SessionFrame::Ack { sacks, .. } => 8 + 8 * sacks.len(),
            SessionFrame::CatchUp { .. } => 8,
        }
    }

    /// The payload, if this frame carries one.
    pub fn payload(&self) -> Option<&M> {
        match self {
            SessionFrame::Bare(m) | SessionFrame::Data { payload: m, .. } => Some(m),
            _ => None,
        }
    }
}

/// Timing knobs for the session layer. All values are in the caller's
/// clock unit (simulated ticks / real tick quanta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Base retransmission timeout: a frame unacked this long after
    /// (re)transmission is sent again. Should exceed the worst-case
    /// round trip, or fault-free runs will spuriously retransmit.
    pub rto_base: u64,
    /// Backoff cap: `rto_base << attempts` never exceeds this. Also the
    /// re-feed interval for sacked frames (see module docs).
    pub rto_max: u64,
    /// Maximum extra jitter added to each deadline (hash-derived,
    /// deterministic). 0 disables jitter.
    pub jitter: u64,
    /// How long an in-order delivery's ack may wait for a reverse-stream
    /// data frame to piggyback on before a standalone `Ack` is emitted.
    /// 0 (the default) acks every data frame immediately — the original
    /// behavior. Should stay well below `rto_base`, or delayed acks will
    /// trigger spurious retransmissions at the peer.
    pub ack_delay: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        // Tests and scenarios use delays up to Uniform{1,200}: worst
        // round trip ≈ 400 ticks, so 600 keeps fault-free runs
        // retransmit-free.
        SessionConfig {
            rto_base: 600,
            rto_max: 4800,
            jitter: 64,
            ack_delay: 0,
        }
    }
}

impl SessionConfig {
    fn rto(&self, attempts: u32) -> u64 {
        let shifted = self
            .rto_base
            .saturating_mul(1u64.checked_shl(attempts).unwrap_or(u64::MAX));
        shifted.min(self.rto_max)
    }
}

/// Counters kept by a [`SessionEndpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// First transmissions of data frames.
    pub data_sent: usize,
    /// Timeout- or catch-up-driven retransmissions.
    pub retransmits: usize,
    /// Ack frames emitted.
    pub acks_sent: usize,
    /// Data frames suppressed as duplicates (already delivered or
    /// already buffered).
    pub dup_suppressed: usize,
    /// Data frames buffered out of order (delivered later).
    pub out_of_order: usize,
    /// Payloads released to the caller in order (exactly-once count).
    pub delivered: usize,
    /// `CatchUp` frames emitted at restart.
    pub catch_up_sent: usize,
    /// `CatchUp` frames received from restarting peers.
    pub catch_up_served: usize,
    /// Standalone `Ack` frames suppressed because the cumulative point
    /// rode out on an outgoing data frame instead.
    pub acks_piggybacked: usize,
}

impl SessionStats {
    /// Accumulates another endpoint's counters (fleet-wide totals).
    pub fn merge(&mut self, other: &SessionStats) {
        self.data_sent += other.data_sent;
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.dup_suppressed += other.dup_suppressed;
        self.out_of_order += other.out_of_order;
        self.delivered += other.delivered;
        self.catch_up_sent += other.catch_up_sent;
        self.catch_up_served += other.catch_up_served;
        self.acks_piggybacked += other.acks_piggybacked;
    }
}

struct OutFrame<M> {
    payload: M,
    attempts: u32,
    next_due: u64,
}

struct SenderStream<M> {
    next_seq: u64,
    cum_acked: u64,
    outstanding: BTreeMap<u64, OutFrame<M>>,
}

impl<M> Default for SenderStream<M> {
    fn default() -> Self {
        SenderStream {
            next_seq: 1,
            cum_acked: 0,
            outstanding: BTreeMap::new(),
        }
    }
}

struct ReceiverStream<M> {
    cum: u64,
    buffer: BTreeMap<u64, M>,
}

impl<M> Default for ReceiverStream<M> {
    fn default() -> Self {
        ReceiverStream {
            cum: 0,
            buffer: BTreeMap::new(),
        }
    }
}

/// One replica's half of every session it participates in (one sender
/// and one receiver stream per peer). See the module docs for the
/// protocol and the durability contract.
pub struct SessionEndpoint<M> {
    local: ReplicaId,
    config: SessionConfig,
    // BTreeMaps so every bulk emission (`poll`, `restart`) walks peers
    // in replica order: frame emission order decides which delay each
    // frame draws from the shared seeded stream, so map iteration order
    // must not vary between process runs.
    senders: BTreeMap<ReplicaId, SenderStream<M>>,
    receivers: BTreeMap<ReplicaId, ReceiverStream<M>>,
    /// Peers owed an ack for in-order deliveries, with the deadline by
    /// which a standalone `Ack` must go out if no data frame toward them
    /// carries it first (`ack_delay` piggybacking).
    ack_pending: BTreeMap<ReplicaId, u64>,
    stats: SessionStats,
}

impl<M> fmt::Debug for SessionEndpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionEndpoint")
            .field("local", &self.local)
            .field("senders", &self.senders.len())
            .field("receivers", &self.receivers.len())
            .field("outstanding", &self.outstanding())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Deterministic per-(endpoint, peer, seq, attempt) jitter — FNV-1a, no
/// RNG, so simulated runs replay exactly.
fn jitter_hash(local: ReplicaId, peer: ReplicaId, seq: u64, attempts: u32, max: u64) -> u64 {
    if max == 0 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in local
        .raw()
        .to_le_bytes()
        .into_iter()
        .chain(peer.raw().to_le_bytes())
        .chain(seq.to_le_bytes())
        .chain(attempts.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % max
}

impl<M> SessionEndpoint<M> {
    /// Creates the endpoint for replica `local`.
    pub fn new(local: ReplicaId, config: SessionConfig) -> Self {
        SessionEndpoint {
            local,
            config,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            ack_pending: BTreeMap::new(),
            stats: SessionStats::default(),
        }
    }

    /// Endpoint counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Total unacked frames across all sender streams.
    pub fn outstanding(&self) -> usize {
        self.senders.values().map(|s| s.outstanding.len()).sum()
    }

    /// True when every sent frame has been cumulatively acked and no
    /// delayed ack is still owed — nothing left to transmit.
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0 && self.ack_pending.is_empty()
    }

    /// The receiver's cumulative in-order point for `src`'s stream.
    /// This is what the caller persists for [`restart`](Self::restart).
    pub fn recv_cum(&self, src: ReplicaId) -> u64 {
        self.receivers.get(&src).map_or(0, |r| r.cum)
    }

    /// The earliest retransmission or delayed-ack deadline, or `None`
    /// when idle.
    pub fn next_deadline(&self) -> Option<u64> {
        self.senders
            .values()
            .flat_map(|s| s.outstanding.values().map(|f| f.next_due))
            .chain(self.ack_pending.values().copied())
            .min()
    }
}

impl<M: Clone> SessionEndpoint<M> {
    /// Sequences `payload` for `dst` and returns the data frame to
    /// transmit. The payload is retained for retransmission until acked.
    /// A pending delayed ack toward `dst` rides out on the frame instead
    /// of costing a standalone `Ack`.
    pub fn send(&mut self, dst: ReplicaId, payload: M, now: u64) -> SessionFrame<M> {
        let cfg = self.config;
        let local = self.local;
        let ack = if self.ack_pending.remove(&dst).is_some() {
            self.stats.acks_piggybacked += 1;
            Some(self.receivers.get(&dst).map_or(0, |r| r.cum))
        } else {
            None
        };
        let stream = self.senders.entry(dst).or_default();
        let seq = stream.next_seq;
        stream.next_seq += 1;
        stream.outstanding.insert(
            seq,
            OutFrame {
                payload: payload.clone(),
                attempts: 1,
                next_due: now + cfg.rto(0) + jitter_hash(local, dst, seq, 0, cfg.jitter),
            },
        );
        self.stats.data_sent += 1;
        SessionFrame::Data { seq, payload, ack }
    }

    /// Applies a cumulative ack (with optional selective gaps) from `src`
    /// to the sender stream — shared by standalone `Ack` frames and acks
    /// piggybacked on data frames.
    fn apply_ack(&mut self, src: ReplicaId, cum: u64, sacks: &[u64], now: u64) {
        let cfg = self.config;
        if let Some(stream) = self.senders.get_mut(&src) {
            stream.cum_acked = stream.cum_acked.max(cum);
            stream.outstanding.retain(|&seq, _| seq > cum);
            for &seq in sacks {
                // Received but volatile at the peer: defer (not
                // cancel) retransmission — see module docs.
                if let Some(f) = stream.outstanding.get_mut(&seq) {
                    f.next_due = f.next_due.max(now + cfg.rto_max);
                }
            }
        }
    }

    /// Processes one incoming frame from `src`. In-order payloads are
    /// returned (the exactly-once stream); any frames to transmit in
    /// response are pushed onto `out` as `(destination, frame)`.
    ///
    /// **Durability contract:** persist the returned payloads before
    /// transmitting the frames pushed to `out` (they include the ack).
    pub fn on_frame(
        &mut self,
        src: ReplicaId,
        frame: SessionFrame<M>,
        now: u64,
        out: &mut Vec<(ReplicaId, SessionFrame<M>)>,
    ) -> Vec<M> {
        match frame {
            SessionFrame::Bare(m) => vec![m],
            SessionFrame::Data { seq, payload, ack } => {
                if let Some(cum) = ack {
                    self.apply_ack(src, cum, &[], now);
                }
                let ack_delay = self.config.ack_delay;
                let stream = self.receivers.entry(src).or_default();
                let mut delivered = Vec::new();
                let mut clean = false;
                if seq <= stream.cum || stream.buffer.contains_key(&seq) {
                    self.stats.dup_suppressed += 1;
                } else if seq == stream.cum + 1 {
                    stream.cum = seq;
                    delivered.push(payload);
                    while let Some(m) = stream.buffer.remove(&(stream.cum + 1)) {
                        stream.cum += 1;
                        delivered.push(m);
                    }
                    clean = stream.buffer.is_empty();
                } else {
                    stream.buffer.insert(seq, payload);
                    self.stats.out_of_order += 1;
                }
                self.stats.delivered += delivered.len();
                if ack_delay > 0 && clean {
                    // Clean in-order progress: wait for a reverse data
                    // frame to piggyback the cumulative point; a
                    // standalone ack goes out at the deadline otherwise.
                    self.ack_pending.entry(src).or_insert(now + ack_delay);
                } else {
                    // Duplicates (our previous ack may be the lost
                    // message) and gaps (the peer needs the sacks) are
                    // acked standalone immediately.
                    let ack = SessionFrame::Ack {
                        cum: stream.cum,
                        sacks: stream.buffer.keys().copied().collect(),
                    };
                    self.stats.acks_sent += 1;
                    self.ack_pending.remove(&src);
                    out.push((src, ack));
                }
                delivered
            }
            SessionFrame::Ack { cum, sacks } => {
                self.apply_ack(src, cum, &sacks, now);
                Vec::new()
            }
            SessionFrame::CatchUp { recv_cum } => {
                self.stats.catch_up_served += 1;
                if let Some(stream) = self.senders.get_mut(&src) {
                    // Ack-after-durable guarantees recv_cum >= our
                    // cum_acked; everything above it must be re-fed
                    // because the peer's reorder buffer died with it.
                    stream.cum_acked = stream.cum_acked.max(recv_cum);
                    stream.outstanding.retain(|&seq, _| seq > recv_cum);
                    for (_, f) in stream.outstanding.iter_mut() {
                        f.attempts = 1;
                        f.next_due = now;
                    }
                }
                // The peer also lost what we had acked it... no: our
                // *receiver* state is intact; the peer rebuilt its sender
                // from its durable outbox and will re-probe us itself.
                Vec::new()
            }
        }
    }

    /// Retransmits every frame whose deadline has passed and flushes
    /// overdue delayed acks as standalone `Ack` frames, pushing the
    /// frames onto `out`. Call whenever the clock reaches
    /// [`next_deadline`](Self::next_deadline).
    pub fn poll(&mut self, now: u64, out: &mut Vec<(ReplicaId, SessionFrame<M>)>) {
        let cfg = self.config;
        let local = self.local;
        let mut retransmits = 0;
        for (&dst, stream) in self.senders.iter_mut() {
            for (&seq, f) in stream.outstanding.iter_mut() {
                if f.next_due <= now {
                    f.attempts = f.attempts.saturating_add(1);
                    f.next_due = now
                        + cfg.rto(f.attempts - 1)
                        + jitter_hash(local, dst, seq, f.attempts - 1, cfg.jitter);
                    retransmits += 1;
                    out.push((
                        dst,
                        SessionFrame::Data {
                            seq,
                            payload: f.payload.clone(),
                            ack: None,
                        },
                    ));
                }
            }
        }
        self.stats.retransmits += retransmits;
        let overdue: Vec<ReplicaId> = self
            .ack_pending
            .iter()
            .filter(|(_, &due)| due <= now)
            .map(|(&src, _)| src)
            .collect();
        for src in overdue {
            self.ack_pending.remove(&src);
            let stream = self.receivers.entry(src).or_default();
            let ack = SessionFrame::Ack {
                cum: stream.cum,
                sacks: stream.buffer.keys().copied().collect(),
            };
            self.stats.acks_sent += 1;
            out.push((src, ack));
        }
    }

    /// Rebuilds the endpoint after a crash, from durable state only:
    /// `outbox` is every payload ever sent per peer (in send order,
    /// sequences `1..=len`), `recv_cums` the durable in-order delivery
    /// point per peer. Emits one `CatchUp` per `recv_cums` entry and one
    /// probe retransmission (the newest frame) per sender stream; older
    /// unacked frames wait one RTO so the peer's cumulative ack can
    /// prune them before they hit the wire.
    pub fn restart(
        &mut self,
        outbox: &HashMap<ReplicaId, Vec<M>>,
        recv_cums: &HashMap<ReplicaId, u64>,
        now: u64,
        out: &mut Vec<(ReplicaId, SessionFrame<M>)>,
    ) {
        let cfg = self.config;
        let local = self.local;
        self.senders.clear();
        self.receivers.clear();
        self.ack_pending.clear();
        // Walk the durable maps in replica order: emission order decides
        // which network delay each frame samples, and must not depend on
        // HashMap iteration order.
        let mut outbox: Vec<_> = outbox.iter().collect();
        outbox.sort_by_key(|(dst, _)| **dst);
        for (&dst, payloads) in outbox {
            let mut stream = SenderStream {
                next_seq: payloads.len() as u64 + 1,
                ..Default::default()
            };
            let last = payloads.len() as u64;
            for (i, p) in payloads.iter().enumerate() {
                let seq = i as u64 + 1;
                if seq == last {
                    // Probe: retransmit the newest frame immediately.
                    self.stats.retransmits += 1;
                    out.push((
                        dst,
                        SessionFrame::Data {
                            seq,
                            payload: p.clone(),
                            ack: None,
                        },
                    ));
                }
                stream.outstanding.insert(
                    seq,
                    OutFrame {
                        payload: p.clone(),
                        attempts: 1,
                        next_due: now + cfg.rto(0) + jitter_hash(local, dst, seq, 0, cfg.jitter),
                    },
                );
            }
            self.senders.insert(dst, stream);
        }
        let mut recv_cums: Vec<_> = recv_cums.iter().collect();
        recv_cums.sort_by_key(|(src, _)| **src);
        for (&src, &cum) in recv_cums {
            self.receivers.insert(
                src,
                ReceiverStream {
                    cum,
                    buffer: BTreeMap::new(),
                },
            );
            self.stats.catch_up_sent += 1;
            out.push((src, SessionFrame::CatchUp { recv_cum: cum }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn cfg() -> SessionConfig {
        SessionConfig {
            rto_base: 100,
            rto_max: 800,
            jitter: 0,
            ack_delay: 0,
        }
    }

    #[test]
    fn in_order_delivery_and_ack() {
        let mut a: SessionEndpoint<&str> = SessionEndpoint::new(r(0), cfg());
        let mut b: SessionEndpoint<&str> = SessionEndpoint::new(r(1), cfg());
        let f1 = a.send(r(1), "x", 0);
        let f2 = a.send(r(1), "y", 0);
        let mut out = Vec::new();
        assert_eq!(b.on_frame(r(0), f1, 10, &mut out), vec!["x"]);
        assert_eq!(b.on_frame(r(0), f2, 11, &mut out), vec!["y"]);
        assert_eq!(out.len(), 2);
        for (dst, ack) in out {
            assert_eq!(dst, r(0));
            let mut sink = Vec::new();
            a.on_frame(r(1), ack, 12, &mut sink);
        }
        assert!(a.is_idle());
        assert_eq!(b.stats().delivered, 2);
    }

    #[test]
    fn reordered_frames_are_buffered_then_released_in_order() {
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), cfg());
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), cfg());
        let f1 = a.send(r(1), 1, 0);
        let f2 = a.send(r(1), 2, 0);
        let f3 = a.send(r(1), 3, 0);
        let mut out = Vec::new();
        assert!(b.on_frame(r(0), f3, 5, &mut out).is_empty());
        assert!(b.on_frame(r(0), f2, 6, &mut out).is_empty());
        assert_eq!(b.on_frame(r(0), f1, 7, &mut out), vec![1, 2, 3]);
        assert_eq!(b.stats().out_of_order, 2);
        // The out-of-order acks carried sacks.
        let SessionFrame::Ack { cum, sacks } = &out[0].1 else {
            panic!("expected ack");
        };
        assert_eq!((*cum, sacks.as_slice()), (0, &[3][..]));
    }

    #[test]
    fn duplicates_suppressed_but_reacked() {
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), cfg());
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), cfg());
        let f1 = a.send(r(1), 7, 0);
        let mut out = Vec::new();
        assert_eq!(b.on_frame(r(0), f1.clone(), 5, &mut out), vec![7]);
        assert!(b.on_frame(r(0), f1, 6, &mut out).is_empty());
        assert_eq!(b.stats().dup_suppressed, 1);
        assert_eq!(b.stats().delivered, 1);
        assert_eq!(out.len(), 2, "both copies acked");
    }

    #[test]
    fn timeout_retransmits_with_backoff() {
        let c = cfg();
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), c);
        a.send(r(1), 1, 0);
        let mut out = Vec::new();
        a.poll(99, &mut out);
        assert!(out.is_empty(), "before the deadline");
        a.poll(100, &mut out);
        assert_eq!(out.len(), 1, "first retransmit at rto_base");
        assert_eq!(a.stats().retransmits, 1);
        // Second deadline is rto_base<<1 later.
        let d = a.next_deadline().unwrap();
        assert_eq!(d, 100 + 200);
        out.clear();
        a.poll(d, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(a.next_deadline().unwrap(), d + 400);
    }

    #[test]
    fn backoff_caps_at_rto_max() {
        let c = cfg();
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), c);
        a.send(r(1), 1, 0);
        let mut now = 0;
        let mut out = Vec::new();
        for _ in 0..10 {
            now = a.next_deadline().unwrap();
            a.poll(now, &mut out);
        }
        assert_eq!(a.next_deadline().unwrap() - now, c.rto_max);
    }

    #[test]
    fn ack_prunes_and_sack_defers() {
        let c = cfg();
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), c);
        a.send(r(1), 1, 0);
        a.send(r(1), 2, 0);
        a.send(r(1), 3, 0);
        let mut out = Vec::new();
        // Peer has 1 in order and 3 buffered; 2 was lost.
        a.on_frame(
            r(1),
            SessionFrame::Ack {
                cum: 1,
                sacks: vec![3],
            },
            50,
            &mut out,
        );
        assert_eq!(a.outstanding(), 2);
        // Frame 2 still due at its original deadline; frame 3 deferred.
        a.poll(100, &mut out);
        assert_eq!(out.len(), 1);
        let SessionFrame::Data { seq, .. } = out[0].1 else {
            panic!()
        };
        assert_eq!(seq, 2);
        // Sacked frame 3 does eventually retransmit (crash insurance).
        out.clear();
        a.poll(50 + c.rto_max, &mut out);
        assert!(out
            .iter()
            .any(|(_, f)| matches!(f, SessionFrame::Data { seq, .. } if *seq == 3)));
    }

    #[test]
    fn restart_rebuilds_from_durable_state() {
        let c = cfg();
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), c);
        let mut outbox = HashMap::new();
        outbox.insert(r(0), vec![10, 20, 30]);
        let mut recv = HashMap::new();
        recv.insert(r(0), 5);
        let mut out = Vec::new();
        b.restart(&outbox, &recv, 1000, &mut out);
        // One probe (newest frame) + one catch-up.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(
            |(_, f)| matches!(f, SessionFrame::Data { seq, payload, .. } if *seq == 3 && *payload == 30)
        ));
        assert!(out
            .iter()
            .any(|(_, f)| matches!(f, SessionFrame::CatchUp { recv_cum: 5 })));
        assert_eq!(b.outstanding(), 3);
        assert_eq!(b.recv_cum(r(0)), 5);
        // A fresh send continues the sequence after the outbox.
        let SessionFrame::Data { seq, .. } = b.send(r(0), 40, 1000) else {
            panic!()
        };
        assert_eq!(seq, 4);
        // The peer's cumulative ack prunes the un-probed backlog before
        // its deadline.
        let mut sink = Vec::new();
        b.on_frame(
            r(0),
            SessionFrame::Ack {
                cum: 3,
                sacks: vec![],
            },
            1001,
            &mut sink,
        );
        assert_eq!(b.outstanding(), 1);
    }

    #[test]
    fn catch_up_rewinds_sender_to_durable_point() {
        let c = cfg();
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), c);
        a.send(r(1), 1, 0);
        a.send(r(1), 2, 0);
        a.send(r(1), 3, 0);
        let mut out = Vec::new();
        // Peer acked everything (2,3 only buffered — sacked variant not
        // modelled here: suppose cum reached 3, then it crashed having
        // durably logged only 1).
        a.on_frame(
            r(1),
            SessionFrame::Ack {
                cum: 3,
                sacks: vec![],
            },
            10,
            &mut out,
        );
        assert!(a.is_idle());
        // Exactly-once across crashes relies on ack-after-durable: a
        // peer never acks 3 without logging 3. CatchUp therefore only
        // moves forward; a stale/replayed CatchUp below cum_acked is a
        // no-op.
        a.on_frame(r(1), SessionFrame::CatchUp { recv_cum: 1 }, 20, &mut out);
        assert!(a.is_idle(), "acked frames are durable at the peer");
        // But frames still outstanding are re-fed immediately.
        a.send(r(1), 4, 30);
        a.send(r(1), 5, 30);
        out.clear();
        a.on_frame(r(1), SessionFrame::CatchUp { recv_cum: 3 }, 40, &mut out);
        a.poll(40, &mut out);
        let seqs: Vec<u64> = out
            .iter()
            .filter_map(|(_, f)| match f {
                SessionFrame::Data { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(a.stats().catch_up_served, 2);
    }

    #[test]
    fn bare_frames_pass_through() {
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), cfg());
        let mut out = Vec::new();
        assert_eq!(
            b.on_frame(r(0), SessionFrame::Bare(9), 0, &mut out),
            vec![9]
        );
        assert!(out.is_empty(), "no ack for bare frames");
        assert_eq!(b.stats().acks_sent, 0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for seq in 0..50 {
            let j1 = jitter_hash(r(0), r(1), seq, 2, 64);
            let j2 = jitter_hash(r(0), r(1), seq, 2, 64);
            assert_eq!(j1, j2);
            assert!(j1 < 64);
        }
        assert_eq!(jitter_hash(r(0), r(1), 3, 0, 0), 0);
        // Different attempts give different jitter (usually).
        let distinct: std::collections::HashSet<u64> = (0..8)
            .map(|a| jitter_hash(r(0), r(1), 1, a, 1 << 30))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn frame_overhead_accounting() {
        let f: SessionFrame<u32> = SessionFrame::Bare(1);
        assert_eq!(f.overhead_bytes(), 0);
        let f: SessionFrame<u32> = SessionFrame::Data {
            seq: 1,
            payload: 1,
            ack: None,
        };
        assert_eq!(f.overhead_bytes(), 8);
        let f: SessionFrame<u32> = SessionFrame::Data {
            seq: 1,
            payload: 1,
            ack: Some(7),
        };
        assert_eq!(f.overhead_bytes(), 16);
        let f: SessionFrame<u32> = SessionFrame::Ack {
            cum: 1,
            sacks: vec![3, 4],
        };
        assert_eq!(f.overhead_bytes(), 24);
    }

    #[test]
    fn bidirectional_traffic_piggybacks_acks() {
        let delayed = SessionConfig {
            ack_delay: 20,
            ..cfg()
        };
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), delayed);
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), delayed);
        let f1 = a.send(r(1), 10, 0);
        let mut out = Vec::new();
        assert_eq!(b.on_frame(r(0), f1, 5, &mut out), vec![10]);
        // No standalone ack: deferred, waiting to piggyback.
        assert!(out.is_empty());
        assert!(!b.is_idle());
        assert_eq!(b.next_deadline(), Some(25));
        // A reverse send carries the cumulative point…
        let f2 = b.send(r(0), 20, 10);
        assert!(matches!(f2, SessionFrame::Data { ack: Some(1), .. }));
        assert_eq!(b.stats().acks_piggybacked, 1);
        assert_eq!(b.stats().acks_sent, 0);
        // …and the piggybacked ack prunes a's outstanding frame.
        assert_eq!(a.outstanding(), 1);
        assert_eq!(a.on_frame(r(1), f2, 12, &mut out), vec![20]);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn delayed_ack_flushes_standalone_at_deadline() {
        let delayed = SessionConfig {
            ack_delay: 20,
            ..cfg()
        };
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), cfg());
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), delayed);
        let f1 = a.send(r(1), 10, 0);
        let mut out = Vec::new();
        b.on_frame(r(0), f1, 5, &mut out);
        assert!(out.is_empty());
        // No reverse traffic: the deadline emits a standalone ack.
        b.poll(24, &mut out);
        assert!(out.is_empty(), "before the ack deadline");
        b.poll(25, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, SessionFrame::Ack { cum: 1, .. }));
        assert_eq!(b.stats().acks_sent, 1);
        assert!(b.is_idle());
        // The flushed ack settles the sender.
        let (dst, ack) = out.pop().unwrap();
        assert_eq!(dst, r(0));
        let mut sink = Vec::new();
        a.on_frame(r(1), ack, 30, &mut sink);
        assert!(a.is_idle());
    }

    #[test]
    fn delayed_ack_gaps_and_duplicates_still_ack_immediately() {
        let delayed = SessionConfig {
            ack_delay: 20,
            ..cfg()
        };
        let mut a: SessionEndpoint<u32> = SessionEndpoint::new(r(0), cfg());
        let mut b: SessionEndpoint<u32> = SessionEndpoint::new(r(1), delayed);
        let f1 = a.send(r(1), 1, 0);
        let f2 = a.send(r(1), 2, 0);
        let f3 = a.send(r(1), 3, 0);
        let mut out = Vec::new();
        // Gap (3 before 1): standalone ack with sacks, immediately.
        b.on_frame(r(0), f3, 5, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0].1, SessionFrame::Ack { cum: 0, sacks } if sacks == &vec![3]));
        out.clear();
        // In-order but the gap remains buffered: still standalone.
        b.on_frame(r(0), f1.clone(), 6, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // Gap filler drains the buffer — clean progress, ack deferred.
        b.on_frame(r(0), f2, 7, &mut out);
        assert!(out.is_empty(), "clean in-order progress defers");
        assert!(!b.is_idle());
        // Duplicate: standalone re-ack even while a delayed ack pends.
        b.on_frame(r(0), f1, 8, &mut out);
        assert_eq!(out.len(), 1, "duplicate re-acked immediately");
        assert!(b.is_idle(), "standalone ack clears the pending delay");
    }
}
