//! Edge-indexed vector timestamps — the algorithm of Section 3.3.
//!
//! Replica `i` keeps one integer counter per edge of its timestamp graph
//! `E_i`. The three operations are exactly the paper's:
//!
//! * `advance(i, τ_i, x)` — on a local write to `x`, increment `τ_i[e_ik]`
//!   for every outgoing edge `e_ik ∈ E_i` with `x ∈ X_ik`;
//! * `merge(i, τ_i, k, T)` — take the pointwise max over `E_i ∩ E_k`;
//! * predicate `J(i, τ_i, k, T)` — deliver an update from `k` iff
//!   `τ_i[e_ki] = T[e_ki] − 1` and `τ_i[e_ji] ≥ T[e_ji]` for every other
//!   common incoming edge `e_ji ∈ E_i ∩ E_k`.
//!
//! `merge` and `J` read `T` only on `E_i ∩ E_k`, so one body each serves
//! both forms of [`Stamp`]. A [`TsRegistry`] precomputes, per ordered
//! replica pair, the common edges they walk, so each operation is a
//! linear scan over a short array.

use crate::wire::PairLayout;
use prcc_sharegraph::{EdgeId, RegSet, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Verdict of the indexed delivery predicate `J`, with blocking cause.
///
/// Beyond the boolean `J`, the evaluation reports *why* an update is not
/// deliverable: the first unsatisfied requirement, as the local counter
/// slot (position in the receiver's `E_i` order) that must advance and
/// the value it must reach. The replica's dependency-counting wakeup
/// index parks blocked messages under that slot and re-examines them only
/// when a `merge` advances it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JVerdict {
    /// The update may be applied now.
    Ready,
    /// Blocked: deliverable once local counter `slot` reaches `needs`.
    Blocked {
        /// Position in the receiver's `E_i` edge order.
        slot: usize,
        /// Counter value that slot must reach before re-evaluating.
        needs: u64,
    },
    /// Never deliverable: the exactness condition `τ_i[e_ki] = T[e_ki]−1`
    /// has already been overshot (a duplicate of an applied update), or
    /// the sender shares no tracked edge with the receiver.
    Dead,
}

/// The edge-indexed timestamp of one replica: counters aligned with the
/// sorted edge list of that replica's timestamp graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTimestamp {
    replica: ReplicaId,
    values: Vec<u64>,
}

impl EdgeTimestamp {
    /// Reassembles a timestamp from its owner and raw counter values
    /// (aligned with `E_i`'s sorted edge order) — the inverse of
    /// [`EdgeTimestamp::values`], used by transports that ship raw-mode
    /// timestamps across address spaces.
    pub fn from_parts(replica: ReplicaId, values: Vec<u64>) -> Self {
        EdgeTimestamp { replica, values }
    }

    /// The replica this timestamp belongs to.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Counter values, aligned with `E_i`'s sorted edge order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of counters (`|E_i|`).
    pub fn num_counters(&self) -> usize {
        self.values.len()
    }

    /// Wire size in bytes when the full timestamp is shipped in the fixed
    /// raw layout: one varint-free u64 per counter. This is what
    /// `WireMode::Raw` actually puts on the wire; the compressed mode
    /// accounts its own (smaller) encoded size.
    pub fn wire_size_bytes(&self) -> usize {
        self.values.len() * 8
    }

    /// Largest counter value — determines the bits-per-counter needed.
    pub fn max_counter(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Crate-internal counter mutation (used by the client-server
    /// `advance`, which must write through positions computed against a
    /// client index).
    pub(crate) fn set_value_internal(&mut self, pos: usize, value: u64) {
        self.values[pos] = value;
    }
}

/// An incoming timestamp `T` from sender `k`, as receiver `i` holds it.
#[derive(Debug, Clone, Copy)]
pub enum Stamp<'a> {
    /// The sender's full timestamp (`WireMode::Raw`, Appendix E, the
    /// explorers).
    Full(&'a EdgeTimestamp),
    /// The projection onto `E_i ∩ E_k`: `values[j]` is the counter of the
    /// pair's `j`-th common edge — what
    /// [`crate::wire::WireDecoder::decode`] reconstructs.
    Projected(&'a [u64]),
}

impl<'a> From<&'a EdgeTimestamp> for Stamp<'a> {
    fn from(t: &'a EdgeTimestamp) -> Self {
        Stamp::Full(t)
    }
}

/// One edge of `E_i ∩ E_k`: its index `j` into the common slice and its
/// positions in the receiver's `E_i` and the sender's `E_k`.
#[derive(Debug, Clone, Copy)]
struct CommonEdge {
    j: u32,
    mine: u32,
    theirs: u32,
}

/// The one accessor through which `J`, `merge` and batched `J` read an
/// incoming [`Stamp`], chosen once per call so each body is
/// monomorphised per form.
trait Counters {
    /// `T`'s counter on common edge `e`.
    fn at(&self, e: CommonEdge) -> u64;
    /// The stamp's counters, if it has this form.
    fn of(stamp: Stamp<'_>) -> Option<&Self>;
}

impl Counters for EdgeTimestamp {
    fn at(&self, e: CommonEdge) -> u64 {
        self.values[e.theirs as usize]
    }

    fn of(stamp: Stamp<'_>) -> Option<&Self> {
        match stamp {
            Stamp::Full(t) => Some(t),
            Stamp::Projected(_) => None,
        }
    }
}

impl Counters for [u64] {
    fn at(&self, e: CommonEdge) -> u64 {
        self[e.j as usize]
    }

    fn of(stamp: Stamp<'_>) -> Option<&Self> {
        match stamp {
            Stamp::Projected(values) => Some(values),
            Stamp::Full(_) => None,
        }
    }
}

/// Runs `$body` with `$c` bound to `$stamp`'s counters.
macro_rules! with_counters {
    ($stamp:expr, |$c:ident| $body:expr) => {
        match $stamp {
            Stamp::Full($c) => $body,
            Stamp::Projected($c) => $body,
        }
    };
}

/// Per-replica index: outgoing edges with their register sets (for
/// `advance`).
#[derive(Debug)]
struct ReplicaOps {
    /// `(counter position, registers shared on that edge)` for each
    /// outgoing edge `e_ik ∈ E_i`.
    outgoing: Vec<(usize, RegSet)>,
}

/// Precomputed maps for the ordered pair `(receiver i, sender k)`.
#[derive(Debug)]
struct PairOps {
    /// `E_i ∩ E_k`, each edge once: `e_ki` first if it is common, then
    /// the other incoming edges `e_ji`, then the rest, each group in
    /// slice order.
    common: Vec<CommonEdge>,
    /// `common[..incoming]` are `e_ki` and the other incoming edges; 0
    /// if `e_ki` is not common.
    incoming: usize,
}

/// Factory and operation table for edge-indexed timestamps over a fixed
/// set of timestamp graphs.
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{topology, TimestampGraphs, LoopConfig, ReplicaId, RegisterId};
/// use prcc_timestamp::TsRegistry;
///
/// let g = topology::ring(4);
/// let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
/// let reg = TsRegistry::new(&g, graphs);
///
/// let r0 = ReplicaId::new(0);
/// let r1 = ReplicaId::new(1);
/// let mut t0 = reg.new_timestamp(r0);
/// // Replica 0 writes register 0, shared with replica 1.
/// reg.advance(&mut t0, RegisterId::new(0));
/// // Replica 1 can deliver it immediately…
/// let t1 = reg.new_timestamp(r1);
/// assert!(reg.ready(&t1, r0, &t0));
/// ```
pub struct TsRegistry {
    graphs: Arc<TimestampGraphs>,
    replica_ops: Vec<ReplicaOps>,
    /// Dense ordered-pair index: entry `i * n + k` holds the maps for
    /// `(receiver i, sender k)`. Every ordered pair is precomputed, so
    /// predicate and merge evaluation never re-intersects `E_i ∩ E_k` —
    /// including the non-adjacent pairs the client-server protocol
    /// relays between (formerly an on-the-fly rebuild per call).
    pair_ops: Vec<Option<PairOps>>,
    /// Dense ordered-pair index of negotiated wire layouts: entry
    /// `i * n + k` is the layout the sender `k` uses toward receiver `i`
    /// (projection to `E_i ∩ E_k` plus the derived-row compression of
    /// Section 5). Built eagerly so the hot send path only clones `Arc`s.
    wire_layouts: Vec<Option<Arc<PairLayout>>>,
    num_replicas: usize,
}

impl fmt::Debug for TsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TsRegistry")
            .field("replicas", &self.replica_ops.len())
            .field(
                "pairs",
                &self.pair_ops.iter().filter(|p| p.is_some()).count(),
            )
            .finish()
    }
}

impl TsRegistry {
    /// Builds the registry for `graphs` over share graph `g`.
    ///
    /// Pair maps are precomputed for **every** ordered pair of replicas
    /// (DESIGN §6's "predicate `J` indexing"): each [`TsRegistry::ready`]
    /// / [`TsRegistry::merge`] call walks a fixed precomputed slice of
    /// common edges. The tests check these against the literal
    /// counter-map transcription in the `prcc-spec` crate.
    pub fn new(g: &ShareGraph, graphs: TimestampGraphs) -> Self {
        let graphs = Arc::new(graphs);
        let mut replica_ops = Vec::with_capacity(graphs.len());
        for tg in graphs.iter() {
            let outgoing = tg
                .outgoing()
                .map(|e| {
                    let pos = tg.position(e).expect("edge from own graph");
                    (pos, g.edge_registers(e).clone())
                })
                .collect();
            replica_ops.push(ReplicaOps { outgoing });
        }
        let n = graphs.len();
        let mut pair_ops = Vec::with_capacity(n * n);
        let mut wire_layouts = Vec::with_capacity(n * n);
        // Structurally identical layouts (every pair of a full-replication
        // clique, many pairs of symmetric placements) share one `Arc`:
        // downstream fan-out grouping detects "same layout" by pointer
        // compare, and the derived-row solutions are solved once, not once
        // per pair.
        let mut canon: HashMap<PairLayout, Arc<PairLayout>> = HashMap::new();
        for i in 0..n {
            for k in 0..n {
                if i == k {
                    pair_ops.push(None);
                    wire_layouts.push(None);
                } else {
                    let (ri, rk) = (ReplicaId::new(i as u32), ReplicaId::new(k as u32));
                    let (ops, layout) = Self::build_pair(g, &graphs, ri, rk);
                    pair_ops.push(Some(ops));
                    let shared = canon
                        .entry(layout)
                        .or_insert_with_key(|l| Arc::new(l.clone()));
                    wire_layouts.push(Some(Arc::clone(shared)));
                }
            }
        }
        TsRegistry {
            graphs,
            replica_ops,
            pair_ops,
            wire_layouts,
            num_replicas: n,
        }
    }

    /// The maps and the negotiated wire layout of `(receiver i, sender
    /// k)`, from one pass over `E_i ∩ E_k` in slice order. The layout
    /// projects the sender's counters in that order and is offered the
    /// sender's own outgoing rows for derived-row compression.
    fn build_pair(
        g: &ShareGraph,
        graphs: &TimestampGraphs,
        i: ReplicaId,
        k: ReplicaId,
    ) -> (PairOps, PairLayout) {
        let gi = graphs.of(i);
        let gk = graphs.of(k);
        let (mut e_ki, mut others, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        let mut sender_positions = Vec::new();
        let mut own_rows = Vec::new();
        for (j, e) in gi.intersection(gk).into_iter().enumerate() {
            let theirs = gk.position(e).unwrap();
            let edge = CommonEdge {
                j: j as u32,
                mine: gi.position(e).unwrap() as u32,
                theirs: theirs as u32,
            };
            sender_positions.push(theirs);
            if e.from == k {
                own_rows.push((j, g.edge_registers(e).clone()));
            }
            if e == EdgeId::new(k, i) {
                e_ki.push(edge);
            } else if e.to == i {
                others.push(edge);
            } else {
                rest.push(edge);
            }
        }
        // `J` reads no incoming edge unless e_ki is common.
        let incoming = if e_ki.is_empty() { 0 } else { 1 + others.len() };
        let common = [e_ki, others, rest].concat();
        let layout = PairLayout::build(sender_positions, &own_rows);
        (PairOps { common, incoming }, layout)
    }

    /// The precomputed maps for `(receiver, sender)`, once `incoming`
    /// is checked to fit them.
    ///
    /// # Panics
    ///
    /// Panics if `receiver == sender`, either id is out of range, or
    /// `incoming` is not `sender`'s timestamp or a slice of the pair's
    /// common length.
    fn pair(&self, receiver: ReplicaId, sender: ReplicaId, incoming: Stamp<'_>) -> &PairOps {
        let pair = self.pair_ops[receiver.index() * self.num_replicas + sender.index()]
            .as_ref()
            .expect("sender must differ from receiver");
        self.assert_fits(pair, sender, incoming);
        pair
    }

    /// Panics unless `incoming` is `sender`'s timestamp or a slice of
    /// `pair`'s common length.
    fn assert_fits(&self, pair: &PairOps, sender: ReplicaId, incoming: Stamp<'_>) {
        match incoming {
            Stamp::Full(t) => {
                assert_eq!(t.replica, sender, "timestamp/sender mismatch");
                let len = self.graphs.of(sender).len();
                assert_eq!(t.values.len(), len, "timestamp shape mismatch");
            }
            Stamp::Projected(v) => assert_eq!(v.len(), pair.common.len(), "projected slice shape"),
        }
    }

    /// The timestamp graphs the registry serves.
    pub fn graphs(&self) -> &TimestampGraphs {
        &self.graphs
    }

    /// A zero-initialized timestamp for replica `i`.
    pub fn new_timestamp(&self, i: ReplicaId) -> EdgeTimestamp {
        EdgeTimestamp {
            replica: i,
            values: vec![0; self.graphs.of(i).len()],
        }
    }

    /// `advance` (Section 3.3): applied when replica `ts.replica()` writes
    /// register `x`. Increments counters of outgoing edges whose shared
    /// set contains `x`. Returns the number of counters incremented.
    pub fn advance(&self, ts: &mut EdgeTimestamp, x: RegisterId) -> usize {
        let mut bumped = 0;
        for (pos, regs) in &self.replica_ops[ts.replica.index()].outgoing {
            if regs.contains(x) {
                ts.values[*pos] += 1;
                bumped += 1;
            }
        }
        bumped
    }

    /// `merge` (Section 3.3): pointwise max over `E_i ∩ E_k`, leaving
    /// other counters unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `incoming` does not fit `sender` (see [`Stamp`]).
    pub fn merge<'a>(
        &self,
        ts: &mut EdgeTimestamp,
        sender: ReplicaId,
        incoming: impl Into<Stamp<'a>>,
    ) {
        self.merge_with(ts, sender, incoming.into(), |_, _| {});
    }

    /// `merge` that additionally reports which local counters advanced:
    /// appends `(slot, new_value)` for every position of `E_i` whose
    /// counter strictly increased. This is the signal the
    /// dependency-counting wakeup index consumes — a parked message is
    /// woken iff one of its blocking counters advanced.
    ///
    /// # Panics
    ///
    /// Panics if `incoming` does not fit `sender` (see [`Stamp`]).
    pub fn merge_report<'a>(
        &self,
        ts: &mut EdgeTimestamp,
        sender: ReplicaId,
        incoming: impl Into<Stamp<'a>>,
        advanced: &mut Vec<(usize, u64)>,
    ) {
        self.merge_with(ts, sender, incoming.into(), |slot, v| {
            advanced.push((slot, v))
        });
    }

    fn merge_with(
        &self,
        ts: &mut EdgeTimestamp,
        sender: ReplicaId,
        incoming: Stamp<'_>,
        mut on_advance: impl FnMut(usize, u64),
    ) {
        let pair = self.pair(ts.replica, sender, incoming);
        with_counters!(incoming, |c| for &e in &pair.common {
            let new = c.at(e);
            let mine = &mut ts.values[e.mine as usize];
            if new > *mine {
                *mine = new;
                on_advance(e.mine as usize, new);
            }
        })
    }

    /// Predicate `J(i, τ_i, k, T)` (Section 3.3): `true` iff the update
    /// carrying `incoming` (sent by `sender`) may be applied at `ts`'s
    /// replica now.
    pub fn ready<'a>(
        &self,
        ts: &EdgeTimestamp,
        sender: ReplicaId,
        incoming: impl Into<Stamp<'a>>,
    ) -> bool {
        self.ready_check(ts, sender, incoming) == JVerdict::Ready
    }

    /// Indexed predicate `J` with blocking diagnosis: evaluates the same
    /// conditions as [`TsRegistry::ready`], and on failure reports the
    /// *first* unsatisfied requirement as the local counter slot and the
    /// value it must reach (or [`JVerdict::Dead`] when no future merge
    /// can satisfy the predicate).
    pub fn ready_check<'a>(
        &self,
        ts: &EdgeTimestamp,
        sender: ReplicaId,
        incoming: impl Into<Stamp<'a>>,
    ) -> JVerdict {
        let incoming = incoming.into();
        let pair = self.pair(ts.replica, sender, incoming);
        with_counters!(incoming, |c| Self::j(ts, pair, c))
    }

    fn j<C: Counters + ?Sized>(ts: &EdgeTimestamp, pair: &PairOps, incoming: &C) -> JVerdict {
        // e_ki not tracked in common: sender shares no register with us —
        // the peer-to-peer protocol never sends such updates; be
        // conservative.
        let Some((&e_ki, others)) = pair.common[..pair.incoming].split_first() else {
            return JVerdict::Dead;
        };
        // τ_i[e_ki] = T[e_ki] − 1 …
        let (slot, sent) = (e_ki.mine as usize, incoming.at(e_ki));
        let Some(needed) = sent.checked_sub(1) else {
            // A zero-count stamp on e_ki can never satisfy the exactness
            // condition (τ_i counters never go negative).
            return JVerdict::Dead;
        };
        if ts.values[slot] < needed {
            return JVerdict::Blocked {
                slot,
                needs: needed,
            };
        }
        if ts.values[slot] > needed {
            // Already past the update's slot: a duplicate of an applied
            // update can never satisfy the exactness condition again.
            return JVerdict::Dead;
        }
        // … and τ_i[e_ji] ≥ T[e_ji] for each common e_ji, j ≠ k.
        for &e in others {
            let needs = incoming.at(e);
            if ts.values[e.mine as usize] < needs {
                return JVerdict::Blocked {
                    slot: e.mine as usize,
                    needs,
                };
            }
        }
        JVerdict::Ready
    }

    /// The counter value for edge `e` in `ts`, if tracked.
    pub fn counter(&self, ts: &EdgeTimestamp, e: EdgeId) -> Option<u64> {
        self.graphs.of(ts.replica).position(e).map(|p| ts.values[p])
    }

    /// The negotiated wire layout the sender uses toward `receiver`
    /// (shared, cached at registry construction).
    ///
    /// # Panics
    ///
    /// Panics if `receiver == sender` or either id is out of range.
    pub fn wire_layout(&self, receiver: ReplicaId, sender: ReplicaId) -> Arc<PairLayout> {
        self.wire_layouts[receiver.index() * self.num_replicas + sender.index()]
            .clone()
            .expect("sender must differ from receiver")
    }

    /// Re-derives the `(receiver, sender)` wire layout from scratch,
    /// bypassing the cache built at construction. The oracle for the
    /// layout-cache invariance property: a cached layout must be
    /// indistinguishable (partition and frames) from a fresh derivation.
    /// `g` must be the share graph the registry was built from.
    ///
    /// # Panics
    ///
    /// Panics if `receiver == sender` or either id is out of range.
    pub fn derive_wire_layout(
        &self,
        g: &ShareGraph,
        receiver: ReplicaId,
        sender: ReplicaId,
    ) -> PairLayout {
        assert_ne!(receiver, sender, "sender must differ from receiver");
        Self::build_pair(g, &self.graphs, receiver, sender).1
    }

    /// Batched predicate `J`: `true` iff **all** of `stamps` — the
    /// timestamps of `k` consecutive updates on the `(sender → receiver)`
    /// pair stream, in send order — are deliverable as one in-order run.
    ///
    /// One evaluation replaces `k`: along a single pair stream the
    /// sender's `e_ki` counter rises by exactly 1 per update, so the run
    /// is wholly deliverable iff the *first* stamp satisfies the exactness
    /// condition, the `e_ki` values are contiguous, and the receiver's
    /// counters already dominate the *last* stamp's other common incoming
    /// edges. (Merging update `m` gives `τ_i[e_ki] = T_m[e_ki]`, which is
    /// exactness for `m+1` by contiguity; sender stamps are pointwise
    /// monotone along the stream, so the last stamp's `≥` conditions imply
    /// every earlier one's, and merges only raise `τ_i`.) After applying
    /// the run, merging only the last stamp reproduces the state of `k`
    /// sequential merges — pointwise max over a monotone chain.
    ///
    /// `false` means the batch is not deliverable *as a unit* (callers
    /// fall back to per-message evaluation); it makes no claim about
    /// individual members. Stamps of mixed forms are never a unit.
    pub fn batch_ready(&self, ts: &EdgeTimestamp, sender: ReplicaId, stamps: &[Stamp<'_>]) -> bool {
        match stamps.first() {
            None => false,
            Some(Stamp::Full(_)) => self.batch::<EdgeTimestamp>(ts, sender, stamps),
            Some(Stamp::Projected(_)) => self.batch::<[u64]>(ts, sender, stamps),
        }
    }

    /// [`TsRegistry::batch_ready`] over non-empty `stamps` of `C`'s form.
    fn batch<C: Counters + ?Sized>(
        &self,
        ts: &EdgeTimestamp,
        sender: ReplicaId,
        stamps: &[Stamp<'_>],
    ) -> bool {
        let pair = self.pair(ts.replica, sender, stamps[0]);
        let Some((&e_ki, others)) = pair.common[..pair.incoming].split_first() else {
            return false;
        };
        let mut last: Option<&C> = None;
        // Exactness for the first stamp, contiguity for the rest.
        for (next, &s) in (ts.values[e_ki.mine as usize] + 1..).zip(stamps) {
            let Some(c) = C::of(s) else {
                return false;
            };
            self.assert_fits(pair, sender, s);
            debug_assert!(
                last.is_none_or(|p| pair.common.iter().all(|&e| p.at(e) <= c.at(e))),
                "batch stamps must be monotone along the pair stream"
            );
            if c.at(e_ki) != next {
                return false;
            }
            last = Some(c);
        }
        last.is_some_and(|last| {
            others
                .iter()
                .all(|&e| ts.values[e.mine as usize] >= last.at(e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, LoopConfig};

    fn registry(g: &ShareGraph) -> TsRegistry {
        TsRegistry::new(g, TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE))
    }

    #[test]
    fn advance_bumps_only_matching_outgoing_edges() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let r0 = ReplicaId::new(0);
        let mut t = reg.new_timestamp(r0);
        // Register 0 is shared by replicas 0 and 1 only.
        let bumped = reg.advance(&mut t, RegisterId::new(0));
        assert_eq!(bumped, 1);
        assert_eq!(reg.counter(&t, EdgeId::new(r0, ReplicaId::new(1))), Some(1));
        assert_eq!(reg.counter(&t, EdgeId::new(r0, ReplicaId::new(3))), Some(0));
    }

    #[test]
    fn advance_multi_recipient_register() {
        // Register 0 shared by replicas 0,1,2 (triangle).
        let g = ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .build(),
        );
        let reg = registry(&g);
        let mut t = reg.new_timestamp(ReplicaId::new(0));
        assert_eq!(reg.advance(&mut t, RegisterId::new(0)), 2);
    }

    #[test]
    fn fifo_predicate_from_single_sender() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        let t1 = reg.new_timestamp(r1);

        reg.advance(&mut t0, RegisterId::new(0));
        let first = t0.clone();
        reg.advance(&mut t0, RegisterId::new(0));
        let second = t0.clone();

        // Second update not deliverable before first.
        assert!(!reg.ready(&t1, r0, &second));
        assert!(reg.ready(&t1, r0, &first));

        let mut t1m = t1.clone();
        reg.merge(&mut t1m, r0, &first);
        assert!(reg.ready(&t1m, r0, &second));
        // Re-delivery of the first is rejected after merge.
        assert!(!reg.ready(&t1m, r0, &first));
    }

    #[test]
    fn transitive_dependency_blocks_delivery() {
        // Triangle sharing one register: classic causal-broadcast scenario.
        // r0 writes u1 -> r1 applies it, writes u2. r2 must apply u1
        // before u2.
        let g = ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .build(),
        );
        let reg = registry(&g);
        let (r0, r1, r2) = (ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2));
        let mut t0 = reg.new_timestamp(r0);
        let mut t1 = reg.new_timestamp(r1);
        let t2 = reg.new_timestamp(r2);

        reg.advance(&mut t0, RegisterId::new(0));
        let u1 = t0.clone();

        assert!(reg.ready(&t1, r0, &u1));
        reg.merge(&mut t1, r0, &u1);
        reg.advance(&mut t1, RegisterId::new(0));
        let u2 = t1.clone();

        // At r2: u2 before u1 must be blocked.
        assert!(!reg.ready(&t2, r1, &u2));
        assert!(reg.ready(&t2, r0, &u1));
        let mut t2m = t2.clone();
        reg.merge(&mut t2m, r0, &u1);
        assert!(reg.ready(&t2m, r1, &u2));
    }

    #[test]
    fn merge_ignores_uncommon_edges() {
        let g = topology::path(3);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t1 = reg.new_timestamp(r1);
        // Bump r1's counter toward r2 — r0 does not track e_12 (path has no
        // loops), so merging t1 into t0 must not disturb t0's counters for
        // its own edges.
        reg.advance(&mut t1, RegisterId::new(1)); // register 1 shared r1-r2
        let mut t0 = reg.new_timestamp(r0);
        reg.merge(&mut t0, r1, &t1);
        assert!(t0.values().iter().all(|&v| v == 0));
    }

    #[test]
    fn batch_ready_matches_sequential_evaluation() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        let stamps: Vec<EdgeTimestamp> = (0..4)
            .map(|_| {
                reg.advance(&mut t0, RegisterId::new(0));
                t0.clone()
            })
            .collect();
        let refs: Vec<Stamp> = stamps.iter().map(Stamp::from).collect();
        let t1 = reg.new_timestamp(r1);
        // The whole run is deliverable from zero…
        assert!(reg.batch_ready(&t1, r0, &refs));
        // …but not a suffix that skips the first update.
        assert!(!reg.batch_ready(&t1, r0, &refs[1..]));
        // Merging only the last stamp equals four sequential merges.
        let mut batched = t1.clone();
        reg.merge(&mut batched, r0, refs[3]);
        let mut seq = t1.clone();
        for &s in &refs {
            assert!(reg.ready(&seq, r0, s));
            reg.merge(&mut seq, r0, s);
        }
        assert_eq!(batched, seq);
        // Empty batches are never "ready".
        assert!(!reg.batch_ready(&t1, r0, &[]));
    }

    #[test]
    fn batch_ready_rejects_non_contiguous_runs() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        let mut stamps = Vec::new();
        for _ in 0..3 {
            reg.advance(&mut t0, RegisterId::new(0));
            stamps.push(t0.clone());
        }
        let t1 = reg.new_timestamp(r1);
        // A gap in the middle breaks the run.
        assert!(!reg.batch_ready(&t1, r0, &[Stamp::Full(&stamps[0]), Stamp::Full(&stamps[2])]));
    }

    #[test]
    fn batch_ready_respects_transitive_dependencies() {
        // Triangle: r1's updates depend on r0's; r2 holds a batch from r1.
        let g = ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .build(),
        );
        let reg = registry(&g);
        let (r0, r1, r2) = (ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2));
        let mut t0 = reg.new_timestamp(r0);
        reg.advance(&mut t0, RegisterId::new(0));
        let u1 = t0.clone();
        let mut t1 = reg.new_timestamp(r1);
        reg.merge(&mut t1, r0, &u1);
        reg.advance(&mut t1, RegisterId::new(0));
        let u2a = t1.clone();
        reg.advance(&mut t1, RegisterId::new(0));
        let u2b = t1.clone();
        let t2 = reg.new_timestamp(r2);
        // Blocked until r2 merges u1; then the whole batch is ready.
        assert!(!reg.batch_ready(&t2, r1, &[Stamp::Full(&u2a), Stamp::Full(&u2b)]));
        let mut t2m = t2.clone();
        reg.merge(&mut t2m, r0, &u1);
        assert!(reg.batch_ready(&t2m, r1, &[Stamp::Full(&u2a), Stamp::Full(&u2b)]));
    }

    /// The topologies the stamp-form tests run over: ring(5) and star(4)
    /// have no derived wire rows, every clique(4, 2) pair has some, and
    /// Figure 5 mixes both (2 of its 12 pairs).
    fn stamp_form_graphs() -> [ShareGraph; 4] {
        [
            topology::ring(5),
            topology::clique_full(4, 2),
            topology::star(4),
            prcc_sharegraph::paper_examples::figure5(),
        ]
    }

    #[test]
    fn batch_ready_reads_full_and_projected_stamps_alike() {
        for g in stamp_form_graphs() {
            let reg = registry(&g);
            for &e in g.edges() {
                let (r0, r1) = (e.from, e.to);
                let x = g.edge_registers(e).first().unwrap();
                let layout = reg.wire_layout(r1, r0);
                let mut t0 = reg.new_timestamp(r0);
                let mut stamps = Vec::new();
                for _ in 0..3 {
                    reg.advance(&mut t0, x);
                    stamps.push(t0.clone());
                }
                let slices: Vec<Vec<u64>> =
                    stamps.iter().map(|s| layout.project(s.values())).collect();
                let t1 = reg.new_timestamp(r1);
                let full: Vec<Stamp> = stamps.iter().map(Stamp::from).collect();
                let proj: Vec<Stamp> = slices.iter().map(|s| Stamp::Projected(s)).collect();
                assert!(reg.batch_ready(&t1, r0, &full), "{r0:?}->{r1:?}");
                assert!(reg.batch_ready(&t1, r0, &proj), "{r0:?}->{r1:?}");
                assert!(!reg.batch_ready(&t1, r0, &proj[1..]));
                assert!(!reg.batch_ready(&t1, r0, &[]));
                // Forms never mix within one run.
                assert!(!reg.batch_ready(&t1, r0, &[full[0], proj[1]]));
            }
        }
    }

    #[test]
    fn ready_requires_exactly_next_from_sender() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        for _ in 0..3 {
            reg.advance(&mut t0, RegisterId::new(0));
        }
        let third = t0.clone();
        let t1 = reg.new_timestamp(r1);
        assert!(!reg.ready(&t1, r0, &third)); // gap of 2
    }

    #[test]
    fn wire_size_matches_counters() {
        let g = topology::ring(5);
        let reg = registry(&g);
        let t = reg.new_timestamp(ReplicaId::new(0));
        assert_eq!(t.num_counters(), 10); // 2n counters in a ring
        assert_eq!(t.wire_size_bytes(), 80);
        assert_eq!(t.max_counter(), 0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_validates_sender() {
        let g = topology::ring(4);
        let reg = registry(&g);
        let mut t0 = reg.new_timestamp(ReplicaId::new(0));
        let t1 = reg.new_timestamp(ReplicaId::new(1));
        reg.merge(&mut t0, ReplicaId::new(2), &t1);
    }

    #[test]
    fn ready_check_reports_blocking_slot() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        reg.advance(&mut t0, RegisterId::new(0));
        let first = t0.clone();
        reg.advance(&mut t0, RegisterId::new(0));
        let second = t0.clone();
        let t1 = reg.new_timestamp(r1);

        assert_eq!(reg.ready_check(&t1, r0, &first), JVerdict::Ready);
        // Second blocked: needs local e_01 counter to reach 1.
        let slot_e01 = reg.graphs().of(r1).position(EdgeId::new(r0, r1)).unwrap();
        assert_eq!(
            reg.ready_check(&t1, r0, &second),
            JVerdict::Blocked {
                slot: slot_e01,
                needs: 1
            }
        );
        // After merging the first, the counter has advanced to `needs`
        // and re-evaluation succeeds; re-delivery of the first is Dead.
        let mut t1m = t1.clone();
        reg.merge(&mut t1m, r0, &first);
        assert_eq!(reg.ready_check(&t1m, r0, &second), JVerdict::Ready);
        assert_eq!(reg.ready_check(&t1m, r0, &first), JVerdict::Dead);
    }

    #[test]
    fn ready_check_dead_on_zero_stamp() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let zero = reg.new_timestamp(r0);
        let t1 = reg.new_timestamp(r1);
        assert_eq!(reg.ready_check(&t1, r0, &zero), JVerdict::Dead);
    }

    #[test]
    fn merge_report_lists_advanced_slots_only() {
        let g = topology::path(2);
        let reg = registry(&g);
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut t0 = reg.new_timestamp(r0);
        reg.advance(&mut t0, RegisterId::new(0));
        let mut t1 = reg.new_timestamp(r1);
        let mut advanced = Vec::new();
        reg.merge_report(&mut t1, r0, &t0, &mut advanced);
        let slot_e01 = reg.graphs().of(r1).position(EdgeId::new(r0, r1)).unwrap();
        assert_eq!(advanced, vec![(slot_e01, 1)]);
        // Merging the same stamp again advances nothing.
        advanced.clear();
        reg.merge_report(&mut t1, r0, &t0, &mut advanced);
        assert!(advanced.is_empty());
    }

    #[test]
    fn ready_and_merge_read_full_and_projected_stamps_alike() {
        // Every (ready_check, merge) over the full incoming timestamp must
        // agree with the projected slice — the wire invariant.
        for g in stamp_form_graphs() {
            let reg = registry(&g);
            let n = g.num_replicas();
            let mut stamps: Vec<EdgeTimestamp> = (0..n)
                .map(|i| reg.new_timestamp(ReplicaId::new(i as u32)))
                .collect();
            for round in 0..3u64 {
                for s in 0..n {
                    let sender = ReplicaId::new(s as u32);
                    for x in g.placement().registers_of(sender) {
                        if (x.index() as u64 + round).is_multiple_of(2) {
                            let mut local = stamps[s].clone();
                            reg.advance(&mut local, x);
                            stamps[s] = local.clone();
                            // Indexing on purpose: `stamps[i]` is both
                            // read and conditionally replaced below.
                            #[allow(clippy::needless_range_loop)]
                            for i in 0..n {
                                if i == s {
                                    continue;
                                }
                                let ri = ReplicaId::new(i as u32);
                                let layout = reg.wire_layout(ri, sender);
                                let slice = layout.project(local.values());
                                assert_eq!(
                                    reg.ready_check(&stamps[i], sender, &local),
                                    reg.ready_check(&stamps[i], sender, Stamp::Projected(&slice)),
                                    "verdict mismatch {sender:?}->{ri:?}"
                                );
                                let mut full_merged = stamps[i].clone();
                                let mut proj_merged = stamps[i].clone();
                                let (mut a1, mut a2) = (Vec::new(), Vec::new());
                                reg.merge_report(&mut full_merged, sender, &local, &mut a1);
                                reg.merge_report(
                                    &mut proj_merged,
                                    sender,
                                    Stamp::Projected(&slice),
                                    &mut a2,
                                );
                                assert_eq!(full_merged, proj_merged);
                                assert_eq!(a1, a2);
                                if reg.ready(&stamps[i], sender, &local) {
                                    stamps[i] = full_merged;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clique_layout_compresses_ring_layout_does_not() {
        // Clique: every outgoing edge of a sender carries the same
        // registers, so the common slice's own rows collapse to one
        // explicit counter (the vector-clock observation of Section 5).
        let g = topology::clique_full(5, 4);
        let reg = registry(&g);
        let layout = reg.wire_layout(ReplicaId::new(0), ReplicaId::new(1));
        assert!(layout.num_derived() > 0, "clique must compress");
        // Ring: one register per edge — nothing is linearly dependent.
        let g = topology::ring(5);
        let reg = registry(&g);
        let layout = reg.wire_layout(ReplicaId::new(0), ReplicaId::new(1));
        assert_eq!(layout.num_derived(), 0);
        assert_eq!(layout.num_explicit(), layout.common_len());
    }

    /// `ts` as the reference model's counter map over `E_i`.
    fn as_map(reg: &TsRegistry, ts: &EdgeTimestamp) -> prcc_spec::Timestamp {
        let edges = reg.graphs().of(ts.replica()).edges();
        edges
            .iter()
            .copied()
            .zip(ts.values().iter().copied())
            .collect()
    }

    /// The indexed `J` and `merge` agree with the reference model's
    /// literal counter-map transcription, on adjacent and (via
    /// EXHAUSTIVE loops) richly connected pairs across several
    /// topologies. Every write is offered to every other replica at
    /// once and merged where `J` holds, but a third of the offers are
    /// lost, so later updates carry dependencies some receivers miss.
    #[test]
    fn indexed_ready_and_merge_match_the_reference() {
        for g in [
            topology::ring(5),
            topology::clique_full(4, 2),
            topology::star(4),
        ] {
            let reg = registry(&g);
            let n = g.num_replicas();
            let mut stamps: Vec<EdgeTimestamp> = (0..n)
                .map(|i| reg.new_timestamp(ReplicaId::new(i as u32)))
                .collect();
            let (mut ready, mut blocked) = (0, 0);
            for round in 0..4u64 {
                for i in 0..n {
                    let sender = ReplicaId::new(i as u32);
                    for x in g.placement().registers_of(sender) {
                        reg.advance(&mut stamps[i], x);
                        let stamp = stamps[i].clone();
                        let theirs = as_map(&reg, &stamp);
                        for (k, local) in stamps.iter_mut().enumerate() {
                            let lost = (x.index() + k + round as usize).is_multiple_of(3);
                            if k == i || lost {
                                continue;
                            }
                            let ri = ReplicaId::new(k as u32);
                            let mut mine = as_map(&reg, local);
                            let j = prcc_spec::j(ri, &mine, sender, &theirs);
                            assert_eq!(
                                reg.ready(local, sender, &stamp),
                                j,
                                "indexed vs reference J disagree for sender {sender:?} at {ri:?}"
                            );
                            if j {
                                reg.merge(local, sender, &stamp);
                                prcc_spec::merge(&mut mine, &theirs);
                                assert_eq!(as_map(&reg, local), mine, "merge at {ri:?}");
                                ready += 1;
                            } else {
                                blocked += 1;
                            }
                        }
                    }
                }
            }
            assert!(ready > 0 && blocked > 0, "{ready} ready, {blocked} blocked");
        }
    }
}
