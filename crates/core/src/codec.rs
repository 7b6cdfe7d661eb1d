//! The wire codec: what an update's metadata looks like on the way to
//! each recipient.
//!
//! The lockstep [`System`](crate::System) and the threaded
//! [`ThreadedCluster`](crate::ThreadedCluster) both run every outgoing
//! edge-timestamp through a [`WireCodec`] keyed by the ordered pair
//! `(sender, receiver)`:
//!
//! * [`WireMode::Raw`] — ship the full timestamp, fixed 8 bytes per
//!   counter. The differential-testing oracle for the compressed mode.
//! * [`WireMode::Compressed`] (default) — project to the common-edge
//!   slice `E_i ∩ E_k` the receiver's `merge`/`J` read, drop the linearly
//!   derived counters of the sender's own outgoing edges (Section 5), and
//!   frame the rest as zig-zag varint deltas against the previous frame
//!   on the same pair stream.
//!
//! Delta coding needs FIFO framing, which the protocol's delivery layer
//! deliberately is not. The codec therefore models a per-pair FIFO byte
//! stream *underneath* the non-FIFO delivery (exactly what a TCP
//! connection per pair provides): each frame is framed against the
//! previous frame on the same pair stream, the projected slice travels in
//! the simulated message as [`Metadata::Projected`], and only the frame's
//! byte count is charged to the wire. Delivery reordering then affects
//! message order, never stream state — the same split a real deployment
//! gets from framing on an ordered transport.
//!
//! # Encode-once fan-out
//!
//! A write on a dense share graph fans out to many recipients whose
//! layouts — and therefore whose delta streams — are frequently
//! *identical* (on a full-replication clique, all of them are: every
//! receiver shares the same common slice in the same order, and every
//! stream has seen the same frame sequence). [`WireCodec::encode_fanout`]
//! exploits this: per-pair stream state lives behind an `Arc`, streams
//! with the same layout start from one shared zero state, and within one
//! fan-out every group of pairs with pointer-equal `(layout, state)`
//! encodes **once** — the followers reuse the leader's frame, metadata
//! `Arc`, and new state. A clique write thus pays one varint pass plus k
//! cheap pointer compares instead of k full encodes, which is what takes
//! clique(24) compressed sends from ~130 µs back into raw's ballpark.
//!
//! The sender-side self-decode of the old path is replaced by
//! [`PairLayout::verify_derived`]: the projection is computed directly
//! (it is what a correct receiver reconstructs) and each derived-row
//! relation is checked against it. A relation that fails — only possible
//! with a corrupted or hand-built layout, since registry layouts are
//! verified symbolically at construction — demotes the pair to explicit
//! rows instead of panicking, and the demotion is counted in
//! [`CodecStats::demotions`].

use crate::message::Metadata;
use prcc_sharegraph::ReplicaId;
use prcc_timestamp::wire::PairLayout;
use prcc_timestamp::TsRegistry;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// How update metadata is encoded for the wire (builder knob; see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireMode {
    /// Full timestamp, fixed layout — the differential-testing oracle.
    Raw,
    /// Projection + derived-row compression + delta/varint framing.
    #[default]
    Compressed,
}

impl WireMode {
    const ALL: [WireMode; 2] = [WireMode::Raw, WireMode::Compressed];

    /// The mode's name on command lines, in config files and in report
    /// rows; [`FromStr`] parses it back.
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Raw => "raw",
            WireMode::Compressed => "compressed",
        }
    }
}

impl FromStr for WireMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|m| m.name()).collect();
                format!("unknown wire mode `{s}` (expected {})", valid.join(" or "))
            })
    }
}

/// Counters kept by the codec (surfaced through
/// [`System::net_stats`](crate::System::net_stats) and the cluster
/// runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Frames shipped (one per recipient per update).
    pub frames: usize,
    /// Frames served from a fan-out group leader's single encode instead
    /// of a fresh varint pass.
    pub shared_frames: usize,
    /// Pairs demoted to explicit rows after a derived-row verification
    /// failure (a malformed layout; never the registry's own).
    pub demotions: usize,
}

/// Per-pair stream state. `state` holds the previous frame's explicit
/// values behind an `Arc`: pairs whose streams have seen identical frame
/// sequences share the allocation, which is what lets a fan-out detect
/// "same layout, same history" by two pointer compares.
struct PairStream {
    layout: Arc<PairLayout>,
    state: Arc<Vec<u64>>,
}

/// A fan-out group leader's output, reused by every follower whose
/// `(layout, state)` matches by pointer. `old_state` keeps the previous
/// state allocation alive for the duration of the fan-out so the pointer
/// compare cannot be confused by an address reuse.
struct GroupFrame {
    layout: Arc<PairLayout>,
    old_state: Arc<Vec<u64>>,
    new_state: Arc<Vec<u64>>,
    meta: Arc<Metadata>,
}

/// Encodes outgoing update metadata per recipient. Owns the per-pair
/// delta streams; non-edge metadata (vector clocks, dependency lists) and
/// [`WireMode::Raw`] pass through as shared `Arc` clones — the zero-copy
/// path.
pub struct WireCodec {
    mode: WireMode,
    registry: Option<Arc<TsRegistry>>,
    streams: HashMap<(ReplicaId, ReplicaId), PairStream>,
    /// Shared all-zero initial states, keyed by explicit count, so
    /// same-layout streams start pointer-equal and group from frame one.
    zero_states: HashMap<usize, Arc<Vec<u64>>>,
    /// Fault-injection layouts (see [`WireCodec::inject_layout`]).
    overrides: HashMap<(ReplicaId, ReplicaId), Arc<PairLayout>>,
    /// Reusable frame scratch buffer.
    buf: Vec<u8>,
    stats: CodecStats,
}

impl fmt::Debug for WireCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireCodec")
            .field("mode", &self.mode)
            .field("streams", &self.streams.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl WireCodec {
    /// Creates a codec. `registry` is required for the compressed mode to
    /// do anything; without it (vector-clock or dependency-list
    /// deployments) every mode degrades to raw pass-through.
    pub fn new(mode: WireMode, registry: Option<Arc<TsRegistry>>) -> Self {
        WireCodec {
            mode,
            registry,
            streams: HashMap::new(),
            zero_states: HashMap::new(),
            overrides: HashMap::new(),
            buf: Vec::new(),
            stats: CodecStats::default(),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> WireMode {
        self.mode
    }

    /// The codec's counters so far.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }

    /// Replaces the layout used for `sender → receiver` with an arbitrary
    /// one. Fault-injection surface: registry layouts are verified at
    /// construction, so exercising the checked demotion path requires
    /// planting a layout whose derived rows lie. Resets the pair's stream.
    pub fn inject_layout(&mut self, sender: ReplicaId, receiver: ReplicaId, layout: PairLayout) {
        self.overrides.insert((sender, receiver), Arc::new(layout));
        self.streams.remove(&(sender, receiver));
    }

    /// Encodes `meta` for the single hop `sender → receiver`. Equivalent
    /// to a one-recipient [`WireCodec::encode_fanout`].
    pub fn encode(
        &mut self,
        sender: ReplicaId,
        receiver: ReplicaId,
        meta: &Arc<Metadata>,
    ) -> Arc<Metadata> {
        self.encode_fanout(sender, std::slice::from_ref(&receiver), meta)
            .pop()
            .expect("one recipient in, one metadata out")
    }

    /// Encodes `meta` for every hop `sender → recipients[i]` of one
    /// update's fan-out, returning the per-recipient metadata in order.
    /// Pairs whose layout and stream history match share a single encode
    /// (see the module docs), so the cost of a dense fan-out is one
    /// varint pass, not one per recipient.
    pub fn encode_fanout(
        &mut self,
        sender: ReplicaId,
        recipients: &[ReplicaId],
        meta: &Arc<Metadata>,
    ) -> Vec<Arc<Metadata>> {
        let (Some(registry), Metadata::Edge(ts), WireMode::Compressed) =
            (&self.registry, meta.as_ref(), self.mode)
        else {
            return recipients.iter().map(|_| Arc::clone(meta)).collect();
        };
        let registry = Arc::clone(registry);
        let mut out = Vec::with_capacity(recipients.len());
        // Fan-out-local memo of group leaders, one entry per distinct
        // (layout, state) seen. Tiny in practice: one entry on cliques,
        // a handful under mixed placements.
        let mut groups: Vec<GroupFrame> = Vec::new();

        for &dst in recipients {
            let stream = self.streams.entry((sender, dst)).or_insert_with(|| {
                let layout = self
                    .overrides
                    .get(&(sender, dst))
                    .cloned()
                    .unwrap_or_else(|| registry.wire_layout(dst, sender));
                let state = zero_state(&mut self.zero_states, layout.num_explicit());
                PairStream { layout, state }
            });
            self.stats.frames += 1;
            let shared = groups.iter().find(|g| {
                Arc::ptr_eq(&g.layout, &stream.layout) && Arc::ptr_eq(&g.old_state, &stream.state)
            });
            if let Some(g) = shared {
                stream.state = Arc::clone(&g.new_state);
                self.stats.shared_frames += 1;
                out.push(Arc::clone(&g.meta));
                continue;
            }
            let values = stream.layout.project(ts.values());
            if stream.layout.verify_derived(&values).is_err() {
                // A derived row lies about the values it claims to
                // reconstruct: a receiver would decode garbage. Demote the
                // pair to explicit rows (fresh stream) and count it
                // instead of taking the thread down.
                self.stats.demotions += 1;
                let demoted = Arc::new(stream.layout.to_explicit());
                stream.state = zero_state(&mut self.zero_states, demoted.num_explicit());
                stream.layout = demoted;
            }
            self.buf.clear();
            let mut next = Vec::new();
            let len = stream
                .layout
                .encode_frame(&stream.state, &values, &mut self.buf, &mut next);
            #[cfg(debug_assertions)]
            {
                // The frame a real receiver would decode must reproduce
                // the projection exactly.
                let mut pos = 0;
                let mut scratch = Vec::new();
                let decoded = stream
                    .layout
                    .decode_frame(&stream.state, &self.buf, &mut pos, &mut scratch)
                    .expect("self-decode of a frame we just encoded");
                debug_assert_eq!(pos, self.buf.len());
                debug_assert_eq!(
                    decoded, values,
                    "decoded frame must reproduce the projection"
                );
            }
            let new_state = Arc::new(next);
            let m = Arc::new(Metadata::Projected {
                values,
                encoded_len: len,
            });
            let old_state = std::mem::replace(&mut stream.state, Arc::clone(&new_state));
            groups.push(GroupFrame {
                layout: Arc::clone(&stream.layout),
                old_state,
                new_state,
                meta: Arc::clone(&m),
            });
            out.push(m);
        }
        out
    }
}

/// The shared all-zero stream state for layouts with `len` explicit
/// counters.
fn zero_state(zero_states: &mut HashMap<usize, Arc<Vec<u64>>>, len: usize) -> Arc<Vec<u64>> {
    Arc::clone(
        zero_states
            .entry(len)
            .or_insert_with(|| Arc::new(vec![0; len])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, LoopConfig, RegisterId, TimestampGraphs};
    use prcc_timestamp::wire::DerivedRow;
    use prcc_timestamp::VectorClock;

    fn registry(g: &prcc_sharegraph::ShareGraph) -> Arc<TsRegistry> {
        Arc::new(TsRegistry::new(
            g,
            TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE),
        ))
    }

    #[test]
    fn raw_mode_shares_the_arc() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let mut ts = reg.new_timestamp(ReplicaId::new(0));
        reg.advance(&mut ts, RegisterId::new(0));
        let meta = Arc::new(Metadata::Edge(ts));
        let mut codec = WireCodec::new(WireMode::Raw, Some(reg));
        let out = codec.encode(ReplicaId::new(0), ReplicaId::new(1), &meta);
        assert!(Arc::ptr_eq(&meta, &out), "raw mode must not deep-clone");
    }

    #[test]
    fn compressed_mode_shrinks_and_preserves_the_slice() {
        let g = topology::clique_full(5, 3);
        let reg = registry(&g);
        let (s, r) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut ts = reg.new_timestamp(s);
        for _ in 0..10 {
            reg.advance(&mut ts, RegisterId::new(0));
        }
        let layout = reg.wire_layout(r, s);
        let expect = layout.project(ts.values());
        let meta = Arc::new(Metadata::Edge(ts));
        let mut codec = WireCodec::new(WireMode::Compressed, Some(reg));
        let out = codec.encode(s, r, &meta);
        let Metadata::Projected {
            values,
            encoded_len,
        } = out.as_ref()
        else {
            panic!("expected projected metadata, got {out:?}");
        };
        assert_eq!(values, &expect);
        assert!(*encoded_len < meta.size_bytes());
        assert_eq!(out.size_bytes(), *encoded_len);
    }

    #[test]
    fn second_frame_on_a_stream_is_delta_small() {
        let g = topology::ring(6);
        let reg = registry(&g);
        let (s, r) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut codec = WireCodec::new(WireMode::Compressed, Some(reg.clone()));
        let mut ts = reg.new_timestamp(s);
        for _ in 0..300 {
            reg.advance(&mut ts, RegisterId::new(0));
        }
        let first = codec.encode(s, r, &Arc::new(Metadata::Edge(ts.clone())));
        reg.advance(&mut ts, RegisterId::new(0));
        let second = codec.encode(s, r, &Arc::new(Metadata::Edge(ts)));
        // One counter moved by 1: every explicit delta is 0 or 1, one
        // byte each — no re-paying the absolute magnitudes.
        assert!(second.size_bytes() <= first.size_bytes());
        assert_eq!(second.size_bytes(), second.num_counters());
    }

    #[test]
    fn non_edge_metadata_passes_through() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let meta = Arc::new(Metadata::Vector(VectorClock::new(4)));
        let mut codec = WireCodec::new(WireMode::Compressed, Some(reg));
        let out = codec.encode(ReplicaId::new(0), ReplicaId::new(1), &meta);
        assert!(Arc::ptr_eq(&meta, &out));
    }

    #[test]
    fn codec_without_registry_is_passthrough() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let mut ts = reg.new_timestamp(ReplicaId::new(0));
        reg.advance(&mut ts, RegisterId::new(0));
        let meta = Arc::new(Metadata::Edge(ts));
        let mut codec = WireCodec::new(WireMode::Compressed, None);
        let out = codec.encode(ReplicaId::new(0), ReplicaId::new(1), &meta);
        assert!(Arc::ptr_eq(&meta, &out));
    }

    #[test]
    fn clique_fanout_encodes_once_and_shares_metadata() {
        // Full replication: every receiver's layout and stream history
        // are identical, so a fan-out must do exactly one encode and
        // hand every recipient the same metadata Arc.
        let g = topology::clique_full(6, 2);
        let reg = registry(&g);
        let s = ReplicaId::new(0);
        let recipients: Vec<ReplicaId> = (1..6).map(ReplicaId::new).collect();
        let mut codec = WireCodec::new(WireMode::Compressed, Some(reg.clone()));
        let mut ts = reg.new_timestamp(s);
        for round in 0..4 {
            reg.advance(&mut ts, RegisterId::new(round % 2));
            let meta = Arc::new(Metadata::Edge(ts.clone()));
            let out = codec.encode_fanout(s, &recipients, &meta);
            assert_eq!(out.len(), recipients.len());
            for m in &out[1..] {
                assert!(
                    Arc::ptr_eq(&out[0], m),
                    "identical streams must share one frame"
                );
            }
        }
        let stats = codec.stats();
        assert_eq!(stats.frames, 4 * recipients.len());
        assert_eq!(
            stats.shared_frames,
            4 * (recipients.len() - 1),
            "only the group leader pays an encode"
        );
        assert_eq!(stats.demotions, 0);
    }

    #[test]
    fn fanout_matches_per_recipient_encodes() {
        // The grouped fan-out must be byte- and value-identical to a
        // codec that encodes each recipient separately (the PR-2 path).
        for g in [topology::ring(6), topology::clique_full(5, 3)] {
            let reg = registry(&g);
            let s = ReplicaId::new(0);
            let recipients: Vec<ReplicaId> = g.replicas().filter(|&r| r != s).collect();
            let mut fan = WireCodec::new(WireMode::Compressed, Some(reg.clone()));
            let mut single = WireCodec::new(WireMode::Compressed, Some(reg.clone()));
            let mut ts = reg.new_timestamp(s);
            for round in 0..6 {
                reg.advance(&mut ts, RegisterId::new(round % 2));
                let meta = Arc::new(Metadata::Edge(ts.clone()));
                let fanned = fan.encode_fanout(s, &recipients, &meta);
                for (dst, got) in recipients.iter().zip(&fanned) {
                    let want = single.encode(s, *dst, &meta);
                    assert_eq!(
                        got.as_ref(),
                        want.as_ref(),
                        "fan-out differs for dst {dst} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn malformed_layout_demotes_to_explicit_rows() {
        // Satellite regression: a layout whose derived row lies used to
        // panic the replica thread via `.expect()`. It must now demote
        // the pair to explicit rows, keep the projection intact, and
        // count the demotion.
        let g = topology::clique_full(4, 2);
        let reg = registry(&g);
        let (s, r) = (ReplicaId::new(0), ReplicaId::new(1));
        let good = reg.wire_layout(r, s);
        // Same projection, but a derived row claiming slice[last] is
        // half of the first explicit entry — false for real counters.
        let first_explicit = good.explicit_indices()[0];
        let target = good.common_len() - 1;
        let bad = PairLayout::from_raw_parts(
            good.sender_positions().to_vec(),
            good.explicit_indices()
                .iter()
                .copied()
                .filter(|&j| j != target)
                .collect(),
            vec![DerivedRow {
                index: target,
                terms: vec![(first_explicit, 1)],
                den: 2,
            }],
        );
        let mut codec = WireCodec::new(WireMode::Compressed, Some(reg.clone()));
        codec.inject_layout(s, r, bad);
        let mut ts = reg.new_timestamp(s);
        for _ in 0..3 {
            reg.advance(&mut ts, RegisterId::new(0));
        }
        let meta = Arc::new(Metadata::Edge(ts.clone()));
        let out = codec.encode(s, r, &meta);
        let Metadata::Projected { values, .. } = out.as_ref() else {
            panic!("expected projected metadata, got {out:?}");
        };
        assert_eq!(
            values,
            &good.project(ts.values()),
            "demoted pair must still ship the exact projection"
        );
        assert_eq!(codec.stats().demotions, 1);
        // The demotion is sticky: later frames reuse the explicit layout
        // without demoting again.
        reg.advance(&mut ts, RegisterId::new(0));
        let out = codec.encode(s, r, &Arc::new(Metadata::Edge(ts.clone())));
        let Metadata::Projected { values, .. } = out.as_ref() else {
            panic!("expected projected metadata, got {out:?}");
        };
        assert_eq!(values, &good.project(ts.values()));
        assert_eq!(codec.stats().demotions, 1);
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [WireMode::Raw, WireMode::Compressed] {
            assert_eq!(mode.name().parse::<WireMode>(), Ok(mode));
        }
        assert_eq!(WireMode::default().name(), "compressed");
    }

    #[test]
    fn deleted_mode_names_are_rejected_with_the_valid_ones() {
        for name in ["projected", "adaptive", "Raw", ""] {
            let err = name.parse::<WireMode>().unwrap_err();
            assert!(
                err.contains("raw") && err.contains("compressed"),
                "error for {name:?} must name the valid modes: {err}"
            );
        }
    }
}
