//! Update messages exchanged between replicas.

use crate::value::Value;
use prcc_sharegraph::{RegisterId, ReplicaId};
use prcc_timestamp::{EdgeTimestamp, VectorClock};
use std::fmt;
use std::sync::Arc;

/// One entry of an explicit dependency list: an update identified by
/// `(issuer, seq)`, writing `register`. Carrying the register lets a
/// partial replica decide whether the dependency concerns it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepEntry {
    /// The issuing replica.
    pub issuer: ReplicaId,
    /// Issuer-local sequence number.
    pub seq: u64,
    /// The register the dependency wrote.
    pub register: RegisterId,
}

/// The metadata (timestamp) attached to an update message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metadata {
    /// Edge-indexed timestamp (Section 3.3 algorithm).
    Edge(EdgeTimestamp),
    /// Vector clock (full-replication / dummy-emulation baseline).
    Vector(VectorClock),
    /// Explicit full-transitive dependency list — the Full-Track-style
    /// baseline (Shen et al., cited in the paper's related work). Sorted,
    /// deduplicated.
    Deps(Vec<DepEntry>),
    /// An edge timestamp projected to the receiver's common-edge slice
    /// `E_i ∩ E_k` by the wire codec (`WireMode::Compressed`).
    /// `values` are the decoded counters in pair-slice order — exactly
    /// what the receiver's `merge`/`J` read; `encoded_len` is the number
    /// of bytes the frame occupied on the wire, so
    /// [`Metadata::size_bytes`] reports the real transmitted cost.
    Projected {
        /// Decoded common-slice counters, in the registry's pair order.
        values: Vec<u64>,
        /// Actual on-wire frame length in bytes.
        encoded_len: usize,
    },
}

impl Metadata {
    /// Serialized size of the metadata in bytes — the size of what the
    /// active wire mode actually transmitted (raw fixed layout for
    /// `Edge`/`Vector`/`Deps`, the real frame length for `Projected`).
    pub fn size_bytes(&self) -> usize {
        match self {
            Metadata::Edge(t) => t.wire_size_bytes(),
            Metadata::Vector(v) => v.wire_size_bytes(),
            // issuer (4) + seq (8) + register (4) per entry.
            Metadata::Deps(d) => d.len() * 16,
            Metadata::Projected { encoded_len, .. } => *encoded_len,
        }
    }

    /// Number of counters (or entries) carried.
    pub fn num_counters(&self) -> usize {
        match self {
            Metadata::Edge(t) => t.num_counters(),
            Metadata::Vector(v) => v.len(),
            Metadata::Deps(d) => d.len(),
            Metadata::Projected { values, .. } => values.len(),
        }
    }
}

/// Piggybacked payload for the routed protocol (Appendix D, "Restricting
/// inter-replica communication patterns"): a logical write travelling over
/// virtual-register updates toward its final holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitInfo {
    /// The originating update: `(issuer, issuer-local seq)`.
    pub origin: (ReplicaId, u64),
    /// The *logical* register being written.
    pub register: RegisterId,
    /// The replica that should apply the write on arrival.
    pub final_dst: ReplicaId,
    /// The written value.
    pub value: Value,
}

/// An `update(i, τ, x, v)` message (step 2(iii) of the prototype), plus a
/// per-issuer sequence number used only for tracing/debugging — the
/// protocol itself relies solely on the timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateMsg {
    /// The issuing replica `i`.
    pub issuer: ReplicaId,
    /// Issuer-local sequence number (0-based).
    pub seq: u64,
    /// The register written.
    pub register: RegisterId,
    /// The new value; `None` for metadata-only deliveries (dummy-register
    /// recipients, Appendix D).
    pub value: Option<Value>,
    /// The issuer's timestamp after `advance`. Shared immutably: a
    /// broadcast clones the `Arc`, never the counters, and the wire codec
    /// swaps in a per-pair [`Metadata::Projected`] payload in compressed
    /// mode.
    pub meta: Arc<Metadata>,
    /// Routed-protocol piggyback, if any.
    pub transit: Option<TransitInfo>,
}

impl UpdateMsg {
    /// Total wire size: metadata plus payload plus fixed header (issuer,
    /// seq, register: 16 bytes), plus any transit piggyback (12-byte
    /// routing header + value).
    pub fn size_bytes(&self) -> usize {
        16 + self.meta.size_bytes()
            + self.value.as_ref().map_or(0, Value::size_bytes)
            + self
                .transit
                .as_ref()
                .map_or(0, |t| 12 + t.value.size_bytes())
    }
}

/// A run of consecutive [`UpdateMsg`]s from one issuer coalesced into a
/// single wire frame — the unit the batched pipeline ships per ordered
/// `(sender, receiver)` pair. Never empty; all updates share one issuer.
///
/// Byte accounting: the batch header carries the issuer and count
/// (6 bytes), and each update then needs only its sequence number and
/// register (10 bytes) on top of its metadata/value — the issuer is
/// hoisted out of the 16-byte singleton header. A singleton batch
/// therefore costs exactly what the unbatched message did (6 + 10 = 16),
/// so switching batching on with `batch_count = 1` is byte-identical to
/// the unbatched oracle, and a batch of `k` saves `6(k−1)` header bytes
/// before any session/envelope amortization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMsg {
    /// The coalesced updates, in pair-stream send order.
    pub updates: Vec<UpdateMsg>,
}

impl BatchMsg {
    /// Wraps one update as a batch (the differential oracle's unit).
    pub fn singleton(msg: UpdateMsg) -> BatchMsg {
        BatchMsg { updates: vec![msg] }
    }

    /// Number of updates carried.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the batch carries no updates (never constructed by the
    /// pipeline, but `Vec`-like completeness keeps clippy honest).
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The shared issuer.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn issuer(&self) -> ReplicaId {
        self.updates[0].issuer
    }

    /// Total wire size: 6-byte batch header (issuer + count) plus, per
    /// update, a 10-byte header (seq + register) and its own
    /// metadata/value/transit bytes.
    pub fn size_bytes(&self) -> usize {
        6 + self
            .updates
            .iter()
            .map(|m| m.size_bytes() - 6)
            .sum::<usize>()
    }
}

impl fmt::Display for BatchMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch({}, {} updates)", self.issuer(), self.len())
    }
}

impl fmt::Display for UpdateMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "update({}#{}, {}, {})",
            self.issuer,
            self.seq,
            self.register,
            match &self.value {
                Some(v) => v.to_string(),
                None => "<meta>".into(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_sizes() {
        let vc = VectorClock::new(4);
        let m = Metadata::Vector(vc);
        assert_eq!(m.size_bytes(), 32);
        assert_eq!(m.num_counters(), 4);
    }

    #[test]
    fn projected_metadata_reports_wire_frame_size() {
        let m = Metadata::Projected {
            values: vec![3, 5, 8],
            encoded_len: 4,
        };
        assert_eq!(m.size_bytes(), 4);
        assert_eq!(m.num_counters(), 3);
    }

    #[test]
    fn message_size_accounting() {
        let msg = UpdateMsg {
            issuer: ReplicaId::new(0),
            seq: 0,
            register: RegisterId::new(1),
            value: Some(Value::U64(5)),
            meta: Arc::new(Metadata::Vector(VectorClock::new(2))),
            transit: None,
        };
        assert_eq!(msg.size_bytes(), 16 + 16 + 8);

        let meta_only = UpdateMsg { value: None, ..msg };
        assert_eq!(meta_only.size_bytes(), 16 + 16);
        assert!(meta_only.to_string().contains("<meta>"));
    }

    #[test]
    fn batch_size_accounting() {
        let mk = |seq| UpdateMsg {
            issuer: ReplicaId::new(0),
            seq,
            register: RegisterId::new(1),
            value: Some(Value::U64(5)),
            meta: Arc::new(Metadata::Vector(VectorClock::new(2))),
            transit: None,
        };
        // Singleton batches cost exactly the unbatched message.
        let single = BatchMsg::singleton(mk(0));
        assert_eq!(single.size_bytes(), mk(0).size_bytes());
        assert_eq!(single.len(), 1);
        assert!(!single.is_empty());
        assert_eq!(single.issuer(), ReplicaId::new(0));
        // A batch of k saves 6(k−1) header bytes.
        let batch = BatchMsg {
            updates: (0..3).map(mk).collect(),
        };
        assert_eq!(batch.size_bytes(), 3 * mk(0).size_bytes() - 2 * 6);
        assert!(batch.to_string().contains("3 updates"));
    }
}
