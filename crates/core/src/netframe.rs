//! Byte serialization of the cluster's wire unit —
//! [`SessionFrame`]`<`[`BatchMsg`]`>` — for the TCP transport.
//!
//! The in-process [`ThreadNet`](prcc_net::ThreadNet) moves Rust values
//! between threads; real sockets move bytes between address spaces.
//! [`ClusterCodec`] is the bridge: a [`LinkCodec`] that serializes every
//! session frame the threaded runtime produces. A
//! [`Metadata::Projected`] slice issued by the sending replica travels
//! as the pair's delta frame — [`DeltaStream::encode`] over the common
//! slice, the same [`PairLayout::encode_frame`] the engine's fan-out
//! runs — plus a reversible zero-run packing (dense graphs produce long
//! runs of zero deltas: 529 of clique-24's 530 explicit counters are
//! unchanged between two consecutive updates from one writer, and each
//! still costs one explicit `0x00` in the dense delta format — packing
//! collapses the run to two bytes without changing what the decoder
//! sees).
//!
//! # Delta state lives below the session layer
//!
//! Per-pair delta framing needs the decoder to observe the encoder's
//! frame sequence exactly once, in order. The session layer *above*
//! retransmits and reorders payloads, so it cannot provide that — but
//! one TCP connection *below* can: a connection delivers its bytes
//! exactly once, in order, or dies. `ClusterCodec` therefore holds one
//! [`DeltaStream`] per direction of the connection (the transport builds
//! a fresh codec per connect on both ends, see [`CodecFactory`]), and a
//! retransmitted session payload is simply re-encoded against the
//! current link state — the payload values decode identically, only the
//! framing bytes differ.
//!
//! A frame that cannot be delta-framed safely (a relayed update whose
//! issuer is not this link's sender, a slice of unexpected length, or
//! values failing the layout's derived-row verification) falls back to
//! absolute varints — lossless, just larger.
//!
//! # Decoded updates fit the receiver
//!
//! The receiving replica indexes its pair tables by issuer and trusts a
//! stamp's shape, so the decoder checks both before an update leaves
//! it: the issuer is another replica of the registry, only the peer
//! issues delta frames, an absolute slice has the `(me, issuer)` pair's
//! common length, and an `Edge` stamp names its issuer and carries
//! `|E_issuer|` counters. A cluster's replicas all run the edge tracker,
//! so those are the only stamps on the wire: a vector clock or a
//! dependency list would park at the receiver as `ReadyCheck::Dead` and
//! hold its pending count above zero for good. Anything else is a
//! [`FrameError`].

use crate::message::{BatchMsg, Metadata, TransitInfo, UpdateMsg};
use crate::value::Value;
use prcc_net::{
    pack_zero_runs, unpack_zero_runs, CodecFactory, FrameError, LinkCodec, SessionFrame,
};
use prcc_sharegraph::{RegisterId, ReplicaId};
use prcc_timestamp::wire::{read_varint, write_varint};
use prcc_timestamp::{DeltaStream, EdgeTimestamp, PairLayout, TsRegistry};
use std::sync::Arc;

/// Frame tags for [`SessionFrame`] variants.
const TAG_BARE: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_CATCH_UP: u8 = 3;

/// Metadata tags. Tags 1 and 2 are unused: no cluster sends a
/// vector-clock or dependency-list stamp (its replicas all run the edge
/// tracker), so the decoder rejects them as unknown.
const META_EDGE: u8 = 0;
/// Projected slice as absolute varints — the always-correct fallback.
const META_PROJECTED_ABS: u8 = 3;
/// Projected slice as a zero-run-packed delta frame against this
/// connection's per-pair stream state. Only this tag advances the state.
const META_PROJECTED_DELTA: u8 = 4;

/// Value tags (`0` is reserved for `None` in option position).
const VAL_U64: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_BYTES: u8 = 3;

fn err(msg: &'static str) -> FrameError {
    FrameError::Malformed(msg)
}

fn rd(buf: &[u8], pos: &mut usize) -> Result<u64, FrameError> {
    read_varint(buf, pos).ok_or(err("truncated varint"))
}

fn rd_u8(buf: &[u8], pos: &mut usize) -> Result<u8, FrameError> {
    let b = *buf.get(*pos).ok_or(err("truncated tag byte"))?;
    *pos += 1;
    Ok(b)
}

fn rd_len(
    buf: &[u8],
    pos: &mut usize,
    cap: usize,
    what: &'static str,
) -> Result<usize, FrameError> {
    let n = rd(buf, pos)? as usize;
    // Any count must be backed by at least one byte still in the frame —
    // rejects length bombs before any allocation.
    if n > cap || n > buf.len() - *pos {
        return Err(FrameError::Malformed(what));
    }
    Ok(n)
}

fn rd_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FrameError> {
    let n = rd_len(buf, pos, usize::MAX, "byte run longer than frame")?;
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn wr_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::U64(n) => {
            buf.push(VAL_U64);
            write_varint(buf, *n);
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            write_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.push(VAL_BYTES);
            write_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
    }
}

fn rd_value_tagged(tag: u8, buf: &[u8], pos: &mut usize) -> Result<Value, FrameError> {
    match tag {
        VAL_U64 => Ok(Value::U64(rd(buf, pos)?)),
        VAL_STR => {
            let s = rd_bytes(buf, pos)?;
            Ok(Value::Str(
                std::str::from_utf8(s)
                    .map_err(|_| err("non-UTF-8 string value"))?
                    .to_owned(),
            ))
        }
        VAL_BYTES => Ok(Value::Bytes(rd_bytes(buf, pos)?.to_vec())),
        _ => Err(err("unknown value tag")),
    }
}

/// [`LinkCodec`] for [`SessionFrame`]`<`[`BatchMsg`]`>` — the threaded
/// runtime's complete wire unit, serialized with varints throughout.
///
/// Construct per connection via [`cluster_codec`]; encode state and
/// decode state are independent (the transport uses each instance in one
/// direction only).
pub struct ClusterCodec {
    /// This endpoint's replica id.
    me: ReplicaId,
    /// The replica at the other end of the connection.
    peer: ReplicaId,
    /// The stamp shapes a decoded update must fit.
    registry: Arc<TsRegistry>,
    /// Outgoing pair `(receiver = peer, sender = me)` and its stream.
    out_layout: Arc<PairLayout>,
    out: DeltaStream,
    /// Incoming pair `(receiver = me, sender = peer)` and its stream.
    in_layout: Arc<PairLayout>,
    inc: DeltaStream,
    /// One delta frame, unpacked.
    frame: Vec<u8>,
    /// One delta frame, zero-run packed.
    packed: Vec<u8>,
}

impl std::fmt::Debug for ClusterCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCodec")
            .field("me", &self.me)
            .field("peer", &self.peer)
            .finish()
    }
}

/// Builds the [`CodecFactory`] the TCP transport calls once per
/// connection: `factory(peer)` yields a fresh [`ClusterCodec`] whose
/// delta streams start from zero on both ends simultaneously.
pub fn cluster_codec(
    me: ReplicaId,
    registry: Arc<TsRegistry>,
) -> CodecFactory<SessionFrame<BatchMsg>> {
    Arc::new(move |peer: ReplicaId| {
        let out_layout = registry.wire_layout(peer, me);
        let in_layout = registry.wire_layout(me, peer);
        Box::new(ClusterCodec {
            me,
            peer,
            registry: Arc::clone(&registry),
            out: DeltaStream::new(&out_layout),
            out_layout,
            inc: DeltaStream::new(&in_layout),
            in_layout,
            frame: Vec::new(),
            packed: Vec::new(),
        }) as Box<dyn LinkCodec<Msg = SessionFrame<BatchMsg>>>
    })
}

impl ClusterCodec {
    fn encode_meta(&mut self, msg: &UpdateMsg, buf: &mut Vec<u8>) {
        match &*msg.meta {
            Metadata::Edge(ts) => {
                buf.push(META_EDGE);
                write_varint(buf, u64::from(ts.replica().raw()));
                write_varint(buf, ts.values().len() as u64);
                for &v in ts.values() {
                    write_varint(buf, v);
                }
            }
            Metadata::Vector(_) | Metadata::Deps(_) => {
                unreachable!(
                    "a cluster's replicas run the edge tracker, whose stamps are Edge or Projected"
                )
            }
            Metadata::Projected {
                values,
                encoded_len,
            } => {
                // Delta framing is sound only when this slice belongs to
                // this link's own pair stream: issued here, shaped like
                // the pair layout, and exactly reconstructible from its
                // explicit entries. Anything else ships absolute.
                let deltable = msg.transit.is_none()
                    && msg.issuer == self.me
                    && values.len() == self.out_layout.common_len()
                    && self.out_layout.verify_derived(values).is_ok();
                if deltable {
                    buf.push(META_PROJECTED_DELTA);
                    write_varint(buf, *encoded_len as u64);
                    self.frame.clear();
                    self.out.encode(&self.out_layout, values, &mut self.frame);
                    self.packed.clear();
                    pack_zero_runs(&self.frame, &mut self.packed);
                    write_varint(buf, self.packed.len() as u64);
                    buf.extend_from_slice(&self.packed);
                } else {
                    buf.push(META_PROJECTED_ABS);
                    write_varint(buf, *encoded_len as u64);
                    write_varint(buf, values.len() as u64);
                    for &v in values {
                        write_varint(buf, v);
                    }
                }
            }
        }
    }

    /// Decodes the metadata of an update from `issuer`, which the caller
    /// has checked is another replica of the registry.
    fn decode_meta(
        &mut self,
        issuer: ReplicaId,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<Metadata, FrameError> {
        match rd_u8(buf, pos)? {
            META_EDGE => {
                let replica = ReplicaId::new(
                    u32::try_from(rd(buf, pos)?).map_err(|_| err("edge replica id overflow"))?,
                );
                if replica != issuer {
                    return Err(err("edge stamp of another replica"));
                }
                let n = rd_len(buf, pos, 1 << 24, "edge counter count")?;
                if n != self.registry.graphs().of(issuer).len() {
                    return Err(err("edge stamp of the wrong shape"));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(rd(buf, pos)?);
                }
                Ok(Metadata::Edge(EdgeTimestamp::from_parts(replica, values)))
            }
            META_PROJECTED_ABS => {
                let encoded_len = rd(buf, pos)? as usize;
                let n = rd_len(buf, pos, 1 << 24, "projected counter count")?;
                if n != self.registry.wire_layout(self.me, issuer).common_len() {
                    return Err(err("projected slice of the wrong length"));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(rd(buf, pos)?);
                }
                Ok(Metadata::Projected {
                    values,
                    encoded_len,
                })
            }
            META_PROJECTED_DELTA => {
                if issuer != self.peer {
                    return Err(err("delta frame of a relayed issuer"));
                }
                let encoded_len = rd(buf, pos)? as usize;
                let packed = rd_bytes(buf, pos)?;
                self.frame.clear();
                // A zig-zag delta varint is ≤ 10 bytes; anything longer
                // than the worst case is hostile.
                let cap = self.in_layout.num_explicit() * 10;
                unpack_zero_runs(packed, &mut self.frame, cap)?;
                let values = self
                    .inc
                    .decode(&self.in_layout, &self.frame)
                    .map_err(|e| FrameError::Codec(e.to_string()))?;
                Ok(Metadata::Projected {
                    values,
                    encoded_len,
                })
            }
            _ => Err(err("unknown metadata tag")),
        }
    }

    fn encode_update(&mut self, msg: &UpdateMsg, buf: &mut Vec<u8>) {
        write_varint(buf, u64::from(msg.issuer.raw()));
        write_varint(buf, msg.seq);
        write_varint(buf, u64::from(msg.register.raw()));
        match &msg.value {
            None => buf.push(0),
            Some(v) => wr_value(v, buf),
        }
        self.encode_meta(msg, buf);
        match &msg.transit {
            None => buf.push(0),
            Some(t) => {
                buf.push(1);
                write_varint(buf, u64::from(t.origin.0.raw()));
                write_varint(buf, t.origin.1);
                write_varint(buf, u64::from(t.register.raw()));
                write_varint(buf, u64::from(t.final_dst.raw()));
                wr_value(&t.value, buf);
            }
        }
    }

    fn decode_update(&mut self, buf: &[u8], pos: &mut usize) -> Result<UpdateMsg, FrameError> {
        let issuer =
            ReplicaId::new(u32::try_from(rd(buf, pos)?).map_err(|_| err("issuer id overflow"))?);
        if issuer == self.me || issuer.index() >= self.registry.graphs().len() {
            return Err(err("issuer is not another replica"));
        }
        let seq = rd(buf, pos)?;
        let register =
            RegisterId::new(u32::try_from(rd(buf, pos)?).map_err(|_| err("register overflow"))?);
        let value = match rd_u8(buf, pos)? {
            0 => None,
            tag => Some(rd_value_tagged(tag, buf, pos)?),
        };
        let meta = Arc::new(self.decode_meta(issuer, buf, pos)?);
        let transit = match rd_u8(buf, pos)? {
            0 => None,
            1 => {
                let o_rep = ReplicaId::new(
                    u32::try_from(rd(buf, pos)?).map_err(|_| err("transit origin overflow"))?,
                );
                let o_seq = rd(buf, pos)?;
                let t_reg = RegisterId::new(
                    u32::try_from(rd(buf, pos)?).map_err(|_| err("transit register overflow"))?,
                );
                let final_dst = ReplicaId::new(
                    u32::try_from(rd(buf, pos)?).map_err(|_| err("transit dst overflow"))?,
                );
                let tag = rd_u8(buf, pos)?;
                let value = rd_value_tagged(tag, buf, pos)?;
                Some(TransitInfo {
                    origin: (o_rep, o_seq),
                    register: t_reg,
                    final_dst,
                    value,
                })
            }
            _ => return Err(err("bad transit flag")),
        };
        Ok(UpdateMsg {
            issuer,
            seq,
            register,
            value,
            meta,
            transit,
        })
    }

    fn encode_batch(&mut self, batch: &BatchMsg, buf: &mut Vec<u8>) {
        write_varint(buf, batch.updates.len() as u64);
        for m in &batch.updates {
            self.encode_update(m, buf);
        }
    }

    fn decode_batch(&mut self, buf: &[u8], pos: &mut usize) -> Result<BatchMsg, FrameError> {
        let n = rd_len(buf, pos, 1 << 24, "batch update count")?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            updates.push(self.decode_update(buf, pos)?);
        }
        Ok(BatchMsg { updates })
    }
}

impl LinkCodec for ClusterCodec {
    type Msg = SessionFrame<BatchMsg>;

    fn encode(&mut self, msg: &Self::Msg, buf: &mut Vec<u8>) {
        match msg {
            SessionFrame::Bare(b) => {
                buf.push(TAG_BARE);
                self.encode_batch(b, buf);
            }
            SessionFrame::Data { seq, payload, ack } => {
                buf.push(TAG_DATA);
                write_varint(buf, *seq);
                match ack {
                    None => buf.push(0),
                    Some(a) => {
                        buf.push(1);
                        write_varint(buf, *a);
                    }
                }
                self.encode_batch(payload, buf);
            }
            SessionFrame::Ack { cum, sacks } => {
                buf.push(TAG_ACK);
                write_varint(buf, *cum);
                write_varint(buf, sacks.len() as u64);
                for &s in sacks {
                    write_varint(buf, s);
                }
            }
            SessionFrame::CatchUp { recv_cum } => {
                buf.push(TAG_CATCH_UP);
                write_varint(buf, *recv_cum);
            }
        }
    }

    fn decode(&mut self, body: &[u8]) -> Result<Self::Msg, FrameError> {
        let mut pos = 0;
        let frame = match rd_u8(body, &mut pos)? {
            TAG_BARE => SessionFrame::Bare(self.decode_batch(body, &mut pos)?),
            TAG_DATA => {
                let seq = rd(body, &mut pos)?;
                let ack = match rd_u8(body, &mut pos)? {
                    0 => None,
                    1 => Some(rd(body, &mut pos)?),
                    _ => return Err(err("bad ack flag")),
                };
                let payload = self.decode_batch(body, &mut pos)?;
                SessionFrame::Data { seq, payload, ack }
            }
            TAG_ACK => {
                let cum = rd(body, &mut pos)?;
                let n = rd_len(body, &mut pos, 1 << 20, "sack count")?;
                let mut sacks = Vec::with_capacity(n);
                for _ in 0..n {
                    sacks.push(rd(body, &mut pos)?);
                }
                SessionFrame::Ack { cum, sacks }
            }
            TAG_CATCH_UP => SessionFrame::CatchUp {
                recv_cum: rd(body, &mut pos)?,
            },
            _ => return Err(err("unknown session frame tag")),
        };
        if pos != body.len() {
            return Err(err("trailing bytes after session frame"));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeTracker, Replica};
    use prcc_sharegraph::{topology, LoopConfig, TimestampGraphs};
    use proptest::prelude::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    fn registry(g: &prcc_sharegraph::ShareGraph) -> Arc<TsRegistry> {
        Arc::new(TsRegistry::new(
            g,
            TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE),
        ))
    }

    type BoxedCodec = Box<dyn LinkCodec<Msg = SessionFrame<BatchMsg>>>;

    /// Encoder at replica 0, decoder at replica 1, one connection each
    /// way — what the transport builds for a 0 → 1 link.
    fn link(g: &prcc_sharegraph::ShareGraph) -> (BoxedCodec, BoxedCodec) {
        let reg = registry(g);
        let enc = cluster_codec(r(0), reg.clone())(r(1));
        let dec = cluster_codec(r(1), reg)(r(0));
        (enc, dec)
    }

    fn roundtrip(
        enc: &mut dyn LinkCodec<Msg = SessionFrame<BatchMsg>>,
        dec: &mut dyn LinkCodec<Msg = SessionFrame<BatchMsg>>,
        frame: &SessionFrame<BatchMsg>,
    ) -> SessionFrame<BatchMsg> {
        let mut buf = Vec::new();
        enc.encode(frame, &mut buf);
        dec.decode(&buf).expect("frame must decode")
    }

    fn msg(issuer: u32, seq: u64, meta: Metadata) -> UpdateMsg {
        UpdateMsg {
            issuer: r(issuer),
            seq,
            register: x(0),
            value: Some(Value::U64(seq * 10)),
            meta: Arc::new(meta),
            transit: None,
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        let g = topology::ring(4);
        let (mut enc, mut dec) = link(&g);
        for frame in [
            SessionFrame::Ack {
                cum: 7,
                sacks: vec![9, 12],
            },
            SessionFrame::CatchUp { recv_cum: 3 },
        ] {
            assert_eq!(roundtrip(enc.as_mut(), dec.as_mut(), &frame), frame);
        }
    }

    /// Both stamp forms a cluster sends: a full `Edge` stamp and a
    /// projected slice, as the link's own delta stream and as a relayed
    /// issuer's absolute slice.
    #[test]
    fn all_metadata_kinds_roundtrip() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let (mut enc, mut dec) = link(&g);
        let mut ts = reg.new_timestamp(r(0));
        reg.advance(&mut ts, x(0));
        let own = reg.wire_layout(r(1), r(0)).project(ts.values());
        let mut relayed = reg.new_timestamp(r(2));
        reg.advance(&mut relayed, x(1));
        let relayed = reg.wire_layout(r(1), r(2)).project(relayed.values());
        let updates = [
            msg(0, 0, Metadata::Edge(ts)),
            msg(
                0,
                1,
                Metadata::Projected {
                    values: own,
                    encoded_len: 2,
                },
            ),
            msg(
                2,
                0,
                Metadata::Projected {
                    values: relayed,
                    encoded_len: 2,
                },
            ),
        ];
        for m in updates {
            let frame = SessionFrame::Bare(BatchMsg::singleton(m));
            assert_eq!(roundtrip(enc.as_mut(), dec.as_mut(), &frame), frame);
        }
    }

    #[test]
    fn values_and_transit_roundtrip() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let (mut enc, mut dec) = link(&g);
        let mut m = msg(0, 0, Metadata::Edge(reg.new_timestamp(r(0))));
        m.value = Some(Value::Str("héllo".into()));
        m.transit = Some(TransitInfo {
            origin: (r(3), 42),
            register: x(7),
            final_dst: r(2),
            value: Value::Bytes(vec![0, 1, 2, 0, 0]),
        });
        let frame = SessionFrame::Data {
            seq: 9,
            payload: BatchMsg::singleton(m),
            ack: Some(8),
        };
        assert_eq!(roundtrip(enc.as_mut(), dec.as_mut(), &frame), frame);
        let mut ts = reg.new_timestamp(r(0));
        reg.advance(&mut ts, x(0));
        let meta_only = UpdateMsg {
            value: None,
            ..msg(0, 1, Metadata::Edge(ts))
        };
        let frame = SessionFrame::Bare(BatchMsg::singleton(meta_only));
        assert_eq!(roundtrip(enc.as_mut(), dec.as_mut(), &frame), frame);
    }

    /// The heart of the tentpole: a projected slice belonging to this
    /// link's pair stream ships as a delta frame, stays in lockstep
    /// across many frames, and collapses zero-delta runs.
    #[test]
    fn projected_delta_stream_stays_in_lockstep() {
        let g = topology::clique_full(6, 2);
        let reg = registry(&g);
        let layout = reg.wire_layout(r(1), r(0));
        let (mut enc, mut dec) = link(&g);
        // Simulate a writer at replica 0: its own counters grow, the
        // slice always satisfies the derived rows (we use the layout's
        // own projection of a live timestamp to guarantee that).
        let mut ts = reg.new_timestamp(r(0));
        let mut dense_bytes = 0usize;
        let mut wire_bytes = 0usize;
        for seq in 0..20u64 {
            reg.advance(&mut ts, x(0));
            let slice = layout.project(ts.values());
            let frame = SessionFrame::Bare(BatchMsg::singleton(msg(
                0,
                seq,
                Metadata::Projected {
                    values: slice.clone(),
                    encoded_len: 1,
                },
            )));
            let mut buf = Vec::new();
            enc.encode(&frame, &mut buf);
            wire_bytes += buf.len();
            dense_bytes += layout.num_explicit();
            let got = dec.decode(&buf).expect("delta frame decodes");
            assert_eq!(got, frame, "frame {seq} out of lockstep");
        }
        // Zero-run packing must beat one-byte-per-explicit dense framing.
        assert!(
            wire_bytes < dense_bytes,
            "packed stream ({wire_bytes} B) not smaller than dense ({dense_bytes} B)"
        );
    }

    /// A projected slice that is not this link's own stream (relayed
    /// issuer) falls back to absolute framing and still roundtrips.
    #[test]
    fn foreign_issuer_falls_back_to_absolute() {
        let g = topology::clique_full(4, 2);
        let reg = registry(&g);
        // Slice shaped for the (1, 2) pair but sent over the 0 → 1 link.
        let layout = reg.wire_layout(r(1), r(2));
        let (mut enc, mut dec) = link(&g);
        let mut ts = reg.new_timestamp(r(2));
        reg.advance(&mut ts, x(1));
        let slice = layout.project(ts.values());
        let frame = SessionFrame::Bare(BatchMsg::singleton(msg(
            2,
            0,
            Metadata::Projected {
                values: slice,
                encoded_len: 3,
            },
        )));
        assert_eq!(roundtrip(enc.as_mut(), dec.as_mut(), &frame), frame);
    }

    /// The TCP bytes of one 0 → 1 connection on `clique_full(4, 2)`,
    /// pinned: a three-update own-projected batch (delta frames, one
    /// two-byte varint, zero runs), a relayed issuer's absolute slice,
    /// a full `Edge` stamp and an `Ack`. Any change to these bytes is a
    /// change of the TCP format.
    #[test]
    fn cluster_codec_bytes_are_pinned() {
        let g = topology::clique_full(4, 2);
        let reg = registry(&g);
        let (mut enc, mut dec) = link(&g);
        let own = reg.wire_layout(r(1), r(0));
        let mut ts = reg.new_timestamp(r(0));
        let mut updates = Vec::new();
        for (seq, writes) in [(0u64, 70), (1, 1), (2, 0)] {
            for _ in 0..writes {
                reg.advance(&mut ts, x(seq as u32 % 2));
            }
            let values = own.project(ts.values());
            updates.push(msg(
                0,
                seq,
                Metadata::Projected {
                    values,
                    encoded_len: 5,
                },
            ));
        }
        let mut relayed = reg.new_timestamp(r(2));
        reg.advance(&mut relayed, x(1));
        let values = reg.wire_layout(r(1), r(2)).project(relayed.values());
        let foreign = msg(
            2,
            0,
            Metadata::Projected {
                values,
                encoded_len: 3,
            },
        );
        let frames = [
            SessionFrame::Data {
                seq: 1,
                payload: BatchMsg { updates },
                ack: None,
            },
            SessionFrame::Bare(BatchMsg::singleton(foreign)),
            SessionFrame::Data {
                seq: 2,
                payload: BatchMsg::singleton(msg(0, 3, Metadata::Edge(ts))),
                ack: Some(4),
            },
            SessionFrame::Ack {
                cum: 3,
                sacks: vec![5, 7],
            },
        ];
        let golden: [&[u8]; 4] = [
            &[
                1, 1, 0, 3, 0, 0, 0, 1, 0, 4, 5, 4, 140, 1, 0, 8, 0, 0, 1, 0, 1, 10, 4, 5, 3, 2, 0,
                8, 0, 0, 2, 0, 1, 20, 4, 5, 2, 0, 9, 0,
            ],
            &[
                0, 1, 2, 0, 0, 1, 0, 3, 3, 12, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0,
            ],
            &[
                1, 2, 1, 4, 1, 0, 3, 0, 1, 30, 0, 0, 12, 71, 71, 71, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
            &[2, 3, 2, 5, 7],
        ];
        for (frame, want) in frames.iter().zip(golden) {
            let mut buf = Vec::new();
            enc.encode(frame, &mut buf);
            assert_eq!(buf, want, "TCP bytes of {frame:?}");
            assert_eq!(dec.decode(&buf).as_ref(), Ok(frame));
        }
    }

    /// A delta frame whose packed bytes need a two-byte length varint
    /// (≥ 128 bytes), pinned by length, prefix and FNV-1a hash.
    #[test]
    fn long_packed_delta_frame_is_pinned() {
        let g = topology::clique_full(5, 2);
        let layout = registry(&g).wire_layout(r(1), r(0));
        let mut values = vec![0u64; layout.common_len()];
        for &j in layout.explicit_indices() {
            values[j] = (1 << 60) + 977 * j as u64;
        }
        for d in layout.derived_rows() {
            let sum: i128 = d
                .terms
                .iter()
                .map(|&(j, c)| c * i128::from(values[j]))
                .sum();
            values[d.index] = (sum / d.den) as u64;
        }
        assert_eq!(layout.verify_derived(&values), Ok(()));
        let frame = SessionFrame::Bare(BatchMsg::singleton(msg(
            0,
            0,
            Metadata::Projected {
                values,
                encoded_len: 9,
            },
        )));
        let (mut enc, mut dec) = link(&g);
        let mut buf = Vec::new();
        enc.encode(&frame, &mut buf);
        let fnv = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(buf.len(), 165);
        // Bare, one update, issuer/seq/register 0, value 0, the delta
        // tag, `encoded_len` 9, then the packed length 153 as two bytes.
        assert_eq!(&buf[..11], &[0, 1, 0, 0, 0, 1, 0, 4, 9, 153, 1]);
        assert_eq!(fnv, 0x559d_e6b4_bf9d_8409);
        assert_eq!(dec.decode(&buf).as_ref(), Ok(&frame));
    }

    /// Replica `me` of `g` with the edge tracker, and the decoder of its
    /// end of the link from `peer`.
    fn receiver(
        g: &prcc_sharegraph::ShareGraph,
        reg: &Arc<TsRegistry>,
        me: ReplicaId,
        peer: ReplicaId,
    ) -> (Replica, BoxedCodec) {
        let tracker = Box::new(EdgeTracker::new(Arc::clone(reg), me));
        let replica = Replica::new(me, g.placement().registers_of(me).clone(), tracker);
        (replica, cluster_codec(me, Arc::clone(reg))(peer))
    }

    /// A bare frame of one value-less update from `issuer` whose
    /// metadata is an absolute projected slice of `len` zeros.
    fn absolute_slice_frame(issuer: u8, len: u8) -> Vec<u8> {
        let mut body = vec![TAG_BARE, 1, issuer, 0, 0, 0, META_PROJECTED_ABS, 0, len];
        body.resize(body.len() + usize::from(len), 0);
        body.push(0); // no transit
        body
    }

    /// Decodes `body` at replica 0 of `clique_full(3, 2)` and, if it
    /// decodes, hands the batch to the replica.
    fn decode_and_receive(body: &[u8]) -> Result<(), FrameError> {
        let g = topology::clique_full(3, 2);
        let (mut replica, mut dec) = receiver(&g, &registry(&g), r(0), r(1));
        match dec.decode(body)? {
            SessionFrame::Bare(batch) => {
                replica.receive_batch(batch.updates);
                Ok(())
            }
            other => panic!("decoded {other:?} from a bare frame"),
        }
    }

    #[test]
    fn a_slice_of_the_wrong_length_is_rejected() {
        let body = absolute_slice_frame(1, 1);
        assert_eq!(body.len(), 11);
        assert!(decode_and_receive(&body).is_err());
    }

    #[test]
    fn an_update_issued_by_the_receiver_is_rejected() {
        assert!(decode_and_receive(&absolute_slice_frame(0, 1)).is_err());
    }

    #[test]
    fn an_out_of_range_issuer_is_rejected() {
        assert!(decode_and_receive(&absolute_slice_frame(9, 1)).is_err());
    }

    /// A bare frame of one value-less update from replica 1 whose
    /// metadata bytes (tag and body) are `meta`.
    fn stamp_frame(meta: &[u8]) -> Vec<u8> {
        let mut body = vec![TAG_BARE, 1, 1, 0, 0, 0];
        body.extend_from_slice(meta);
        body.push(0); // no transit
        body
    }

    /// A vector clock of one entry per replica under tag 1. No cluster
    /// sends one; the edge tracker would park it for good.
    #[test]
    fn a_vector_clock_stamp_is_rejected() {
        assert_eq!(
            decode_and_receive(&stamp_frame(&[1, 3, 0, 1, 0])),
            Err(err("unknown metadata tag"))
        );
    }

    /// A one-entry dependency list under tag 2, rejected like tag 1.
    #[test]
    fn a_dependency_list_stamp_is_rejected() {
        assert_eq!(
            decode_and_receive(&stamp_frame(&[2, 1, 2, 0, 0])),
            Err(err("unknown metadata tag"))
        );
    }

    /// Every issuer (the receiver, its peers, two past the last replica)
    /// against every slice length up to two past the pair's common
    /// length: exactly the peers' common-length slices decode, and no
    /// decoded update panics the receiver.
    #[test]
    fn no_issuer_or_slice_length_panics_the_receiver() {
        let g = topology::clique_full(3, 2);
        let common = registry(&g).wire_layout(r(0), r(1)).common_len() as u8;
        for issuer in 0..g.num_replicas() as u8 + 2 {
            for len in 0..common + 2 {
                let fits = (1..3).contains(&issuer) && len == common;
                let got = decode_and_receive(&absolute_slice_frame(issuer, len));
                assert_eq!(got.is_ok(), fits, "issuer {issuer}, {len} counters");
            }
        }
    }

    /// A delta frame must come from the link's own stream, and an `Edge`
    /// stamp must be its issuer's full timestamp.
    #[test]
    fn relayed_deltas_and_misshapen_stamps_are_rejected() {
        let g = topology::clique_full(3, 2);
        let reg = registry(&g);
        let (_, mut dec) = receiver(&g, &reg, r(0), r(1));
        let mut ts = reg.new_timestamp(r(2));
        reg.advance(&mut ts, x(0));
        // Replica 2's delta frame toward 0, replayed on the 1 → 0 link.
        let mut relayed = cluster_codec(r(2), reg.clone())(r(0));
        let values = reg.wire_layout(r(0), r(2)).project(ts.values());
        let delta = msg(
            2,
            0,
            Metadata::Projected {
                values,
                encoded_len: 1,
            },
        );
        let mut bodies = vec![Vec::new()];
        relayed.encode(
            &SessionFrame::Bare(BatchMsg::singleton(delta)),
            &mut bodies[0],
        );
        assert_eq!(bodies[0][7], META_PROJECTED_DELTA);
        // Replica 2's stamp claimed by 1, and a stamp of one counter.
        let mut enc = cluster_codec(r(1), reg)(r(0));
        for meta in [
            Metadata::Edge(ts),
            Metadata::Edge(EdgeTimestamp::from_parts(r(1), vec![0])),
        ] {
            let mut body = Vec::new();
            enc.encode(
                &SessionFrame::Bare(BatchMsg::singleton(msg(1, 0, meta))),
                &mut body,
            );
            bodies.push(body);
        }
        for body in bodies {
            assert!(dec.decode(&body).is_err(), "body {body:?} must be rejected");
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let g = topology::ring(4);
        let (_, mut dec) = link(&g);
        for body in [
            &[][..],
            &[99][..],
            &[TAG_DATA, 0x80][..],              // truncated varint
            &[TAG_ACK, 1, 0xff, 0xff][..],      // sack count bomb
            &[TAG_BARE, 1, 0, 0, 0, 0, 99][..], // bad value tag
            &[TAG_CATCH_UP, 1, 7][..],          // trailing bytes
        ] {
            assert!(dec.decode(body).is_err(), "body {body:?} must be rejected");
        }
    }

    /// The four frames `cluster_codec_bytes_are_pinned` pins, in order,
    /// on the 0 → 1 link of `clique_full(4, 2)`.
    const PINNED: [&[u8]; 4] = [
        &[
            1, 1, 0, 3, 0, 0, 0, 1, 0, 4, 5, 4, 140, 1, 0, 8, 0, 0, 1, 0, 1, 10, 4, 5, 3, 2, 0, 8,
            0, 0, 2, 0, 1, 20, 4, 5, 2, 0, 9, 0,
        ],
        &[
            0, 1, 2, 0, 0, 1, 0, 3, 3, 12, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0,
        ],
        &[
            1, 2, 1, 4, 1, 0, 3, 0, 1, 30, 0, 0, 12, 71, 71, 71, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
        &[2, 3, 2, 5, 7],
    ];

    proptest! {
        /// Arbitrary bytes, and bit-flipped or truncated copies of each
        /// pinned frame (after the pinned frames before it), decode to an
        /// error or to frames whose updates replica 1 of
        /// `clique_full(4, 2)` receives without panicking.
        #[test]
        fn hostile_bytes_never_panic_the_receiver(
            noise in proptest::collection::vec(0u32..256, 0..48),
            flips in proptest::collection::vec(0usize..1 << 16, 0..4),
            cut in 0usize..1 << 16,
        ) {
            let g = topology::clique_full(4, 2);
            let reg = registry(&g);
            let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
            for pick in 0..=PINNED.len() {
                let (mut replica, mut dec) = receiver(&g, &reg, r(1), r(0));
                let mut receive = |body: &[u8]| match dec.decode(body) {
                    Ok(SessionFrame::Bare(batch) | SessionFrame::Data { payload: batch, .. }) => {
                        replica.receive_batch(batch.updates);
                    }
                    Ok(SessionFrame::Ack { .. } | SessionFrame::CatchUp { .. }) | Err(_) => {}
                };
                let mut body = match PINNED.get(pick) {
                    Some(frame) => {
                        PINNED[..pick].iter().for_each(|before| receive(before));
                        frame.to_vec()
                    }
                    None => noise.clone(),
                };
                if !body.is_empty() {
                    for &f in &flips {
                        let at = (f >> 3) % body.len();
                        body[at] ^= 1 << (f & 7);
                    }
                    if cut % 3 == 0 {
                        body.truncate(cut / 3 % (body.len() + 1));
                    }
                }
                receive(&body);
            }
        }
    }
}
