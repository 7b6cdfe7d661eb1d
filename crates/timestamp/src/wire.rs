//! Per-pair wire encoding of edge timestamps: projection, linear-
//! dependence compression, and delta/varint framing (Section 5 made
//! operational on the hot path).
//!
//! A replica `k` sending an update to replica `i` does not need to ship
//! all of `τ_k`: the receiver's `merge` and predicate `J` read only the
//! common-edge slice `E_i ∩ E_k`. A [`PairLayout`] — negotiated once per
//! ordered pair and cached in the registry — records:
//!
//! * the **projection**: which positions of the sender's full counter
//!   vector make up the common slice, in the receiver's pair order;
//! * the **compression**: which slice entries are linearly *derived* from
//!   others and therefore never transmitted. Only the sender's own
//!   outgoing edges (`e_kj` rows) participate: `advance` maintains those
//!   counters exactly as `row · atom-counts`, so any integer relation
//!   between the rows (found by exact rational elimination over the
//!   Appendix-D register atoms) holds for the counter *values* at every
//!   instant. Counters issued by other replicas reach `τ_k` through
//!   pointwise-max merges that can mix snapshots from different chains,
//!   which breaks linearity — those entries are always explicit.
//!
//! The transmitted entries are framed as zig-zag varints of the
//! wrapping difference against the previous frame on the same pair
//! stream ([`PairLayout::encode_frame`] over the common slice), modelling
//! a per-pair FIFO byte stream underneath the protocol's non-FIFO
//! delivery. A [`DeltaStream`] holds one end's copy of that previous
//! frame: `ClusterCodec` keeps one per direction of a TCP connection.
//! The engine's encode-once fan-out calls `encode_frame` itself, on
//! state it shares between pairs that have seen the same frames. Every
//! derived coefficient vector is verified symbolically at construction;
//! a row that cannot be proven derived stays explicit, so decoding is
//! exact by construction.

use prcc_sharegraph::RegSet;
use std::fmt;

/// Why a frame was rejected. Every rejection is **transactional**: the
/// decoder's stream state is untouched, so a subsequent well-formed frame
/// still decodes correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A varint was truncated or would overflow 64 bits.
    BadVarint {
        /// Byte offset of the offending varint within the frame.
        offset: usize,
    },
    /// Bytes left over after the last expected varint.
    TrailingBytes {
        /// Where the frame's payload ended.
        consumed: usize,
        /// The frame's actual length.
        len: usize,
    },
    /// A derived row's linear relation did not reproduce an exact,
    /// in-range counter from the explicit entries — the layout and the
    /// values disagree, so the decode would be corrupt.
    InexactDerivedRow {
        /// Common-slice index of the offending derived row.
        index: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadVarint { offset } => {
                write!(f, "truncated or over-long varint at byte {offset}")
            }
            DecodeError::TrailingBytes { consumed, len } => {
                write!(f, "{} trailing bytes after frame payload", len - consumed)
            }
            DecodeError::InexactDerivedRow { index } => {
                write!(f, "derived row {index} does not reconstruct exactly")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `v` to `buf` as an LEB128 varint (7 bits per byte).
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing `*pos`.
/// Returns `None` on truncated or over-long input.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow 64 bits
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Zig-zag maps signed deltas to small unsigned varints.
#[inline]
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Delta of `cur` against `prev` as a zig-zag varint payload. The
/// wrapping difference is lossless for **all** 64-bit patterns (including
/// decreases and `u64::MAX` jumps): [`decode_delta`] inverts it exactly.
#[inline]
pub fn encode_delta(prev: u64, cur: u64) -> u64 {
    zigzag(cur.wrapping_sub(prev) as i64)
}

/// Inverse of [`encode_delta`].
#[inline]
pub fn decode_delta(prev: u64, z: u64) -> u64 {
    prev.wrapping_add(unzigzag(z) as u64)
}

/// An exact rational (reduced, positive denominator) over `i128` — large
/// enough for elimination over the tiny 0/1 atom matrices involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    const ZERO: Frac = Frac { num: 0, den: 1 };

    fn new(num: i128, den: i128) -> Frac {
        assert!(den != 0, "zero denominator");
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let sign = if den < 0 { -1 } else { 1 };
        Frac {
            num: sign * num / g.max(1),
            den: sign * den / g.max(1),
        }
    }

    fn from_int(v: i128) -> Frac {
        Frac { num: v, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn add(self, o: Frac) -> Frac {
        Frac::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }

    fn sub(self, o: Frac) -> Frac {
        Frac::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }

    fn mul(self, o: Frac) -> Frac {
        Frac::new(self.num * o.num, self.den * o.den)
    }

    fn div(self, o: Frac) -> Frac {
        assert!(o.num != 0, "division by zero");
        Frac::new(self.num * o.den, self.den * o.num)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// A slice entry reconstructed from explicit entries instead of being
/// transmitted: `value[index] = (Σ terms (j, c): c · value[j]) / den`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DerivedRow {
    /// Index into the common slice.
    pub index: usize,
    /// `(slice index, integer coefficient)` pairs over explicit entries.
    pub terms: Vec<(usize, i128)>,
    /// Strictly positive divisor (division is exact by construction).
    pub den: i128,
}

/// The negotiated wire layout for one ordered pair `(receiver, sender)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PairLayout {
    /// For each common-slice entry: its position in the sender's full
    /// counter vector (`E_k` order).
    sender_positions: Vec<usize>,
    /// Slice indices transmitted on the wire, in slice order.
    explicit: Vec<usize>,
    /// Slice indices reconstructed by the decoder.
    derived: Vec<DerivedRow>,
}

impl PairLayout {
    /// Builds the layout. `sender_positions[j]` is the sender-vector
    /// position of common-slice entry `j`; `own_rows` lists, for every
    /// slice entry that is one of the **sender's own outgoing edges**, the
    /// pair `(slice index, registers shared on that edge)`. Only own rows
    /// are eligible for derivation (see the module docs); each candidate
    /// relation is verified symbolically over the register atoms and
    /// demoted to explicit if the check fails.
    pub fn build(sender_positions: Vec<usize>, own_rows: &[(usize, RegSet)]) -> PairLayout {
        let len = sender_positions.len();
        let mut is_derived = vec![false; len];
        let mut derived = Vec::new();

        if own_rows.len() > 1 {
            // Row vectors over atom columns (atoms partition the union of
            // the rows' registers; identical-membership registers share a
            // column, the Appendix-D refinement).
            let rows: Vec<RegSet> = own_rows.iter().map(|(_, r)| r.clone()).collect();
            let atom_vecs = atom_vectors(&rows);
            let ncols = atom_vecs.first().map_or(0, Vec::len);

            // Incremental echelon basis over the atom space; each echelon
            // row carries its expression in terms of accepted basis rows
            // (indexed into `basis_slice`, the slice indices of explicit
            // own rows).
            let mut ech: Vec<(Vec<Frac>, Vec<Frac>)> = Vec::new();
            let mut basis_slice: Vec<usize> = Vec::new();
            for (r, vec) in atom_vecs.iter().enumerate() {
                let slice_idx = own_rows[r].0;
                let mut residual: Vec<Frac> = vec.iter().map(|&v| Frac::from_int(v)).collect();
                let mut combo = vec![Frac::ZERO; basis_slice.len()];
                for (erow, ecombo) in &ech {
                    let lead = erow.iter().position(|f| !f.is_zero()).unwrap();
                    if residual[lead].is_zero() {
                        continue;
                    }
                    let factor = residual[lead].div(erow[lead]);
                    for c in 0..ncols {
                        residual[c] = residual[c].sub(factor.mul(erow[c]));
                    }
                    for (j, &ec) in ecombo.iter().enumerate() {
                        combo[j] = combo[j].add(factor.mul(ec));
                    }
                }
                if residual.iter().all(|f| f.is_zero()) {
                    // Candidate derived row: value = Σ combo_j · basis_j.
                    if let Some(dr) =
                        finish_derived(slice_idx, &combo, &basis_slice, &atom_vecs, own_rows, vec)
                    {
                        is_derived[slice_idx] = true;
                        derived.push(dr);
                        continue;
                    }
                }
                // New basis (explicit) row.
                let mut ecombo = vec![Frac::ZERO; basis_slice.len() + 1];
                for (j, &c) in combo.iter().enumerate() {
                    ecombo[j] = Frac::ZERO.sub(c);
                }
                ecombo[basis_slice.len()] = Frac::from_int(1);
                basis_slice.push(slice_idx);
                // Grow earlier combos to the new basis length.
                for (_, ec) in &mut ech {
                    ec.push(Frac::ZERO);
                }
                if !residual.iter().all(|f| f.is_zero()) {
                    // Gauss–Jordan: clear the new row's lead column from
                    // every existing echelon row, so all rows stay
                    // mutually reduced and one reduction pass (in any
                    // order) is complete.
                    let lead = residual.iter().position(|f| !f.is_zero()).unwrap();
                    for (erow, ec) in &mut ech {
                        if erow[lead].is_zero() {
                            continue;
                        }
                        let f = erow[lead].div(residual[lead]);
                        for c in 0..ncols {
                            erow[c] = erow[c].sub(f.mul(residual[c]));
                        }
                        for (j, e) in ec.iter_mut().enumerate() {
                            *e = e.sub(f.mul(ecombo[j]));
                        }
                    }
                    ech.push((residual, ecombo));
                }
            }
        }

        let explicit = (0..len).filter(|&j| !is_derived[j]).collect();
        PairLayout::from_raw_parts(sender_positions, explicit, derived)
    }

    /// A layout with no compression: every slice entry explicit.
    pub fn identity(sender_positions: Vec<usize>) -> PairLayout {
        let explicit = (0..sender_positions.len()).collect();
        PairLayout::from_raw_parts(sender_positions, explicit, Vec::new())
    }

    /// Assembles a layout from an already-decided partition. The normal
    /// constructor is [`PairLayout::build`]; this one exists for fault
    /// injection and tests that need a layout whose derived rows are *not*
    /// symbolically verified (e.g. to exercise the checked decode path).
    ///
    /// # Panics
    ///
    /// Panics if an explicit or derived index is out of slice range.
    pub fn from_raw_parts(
        sender_positions: Vec<usize>,
        explicit: Vec<usize>,
        derived: Vec<DerivedRow>,
    ) -> PairLayout {
        let len = sender_positions.len();
        assert!(
            explicit.iter().all(|&j| j < len) && derived.iter().all(|d| d.index < len),
            "slice index out of range"
        );
        PairLayout {
            sender_positions,
            explicit,
            derived,
        }
    }

    /// The uncompressed fallback of this layout: same projection, every
    /// slice entry explicit. Used when a derived row fails verification
    /// and the pair must demote to explicit rows.
    pub fn to_explicit(&self) -> PairLayout {
        PairLayout::identity(self.sender_positions.clone())
    }

    /// Number of common-slice counters.
    pub fn common_len(&self) -> usize {
        self.sender_positions.len()
    }

    /// Number of counters actually transmitted.
    pub fn num_explicit(&self) -> usize {
        self.explicit.len()
    }

    /// Number of counters reconstructed by the decoder.
    pub fn num_derived(&self) -> usize {
        self.derived.len()
    }

    /// For each common-slice entry: its position in the sender's full
    /// counter vector.
    pub fn sender_positions(&self) -> &[usize] {
        &self.sender_positions
    }

    /// Slice indices transmitted on the wire, in wire order.
    pub fn explicit_indices(&self) -> &[usize] {
        &self.explicit
    }

    /// The decoder-side derived rows.
    pub fn derived_rows(&self) -> &[DerivedRow] {
        &self.derived
    }

    /// Projects the sender's full counter vector to the common slice.
    ///
    /// # Panics
    ///
    /// Panics if `full` is shorter than the largest projected position.
    pub fn project(&self, full: &[u64]) -> Vec<u64> {
        self.sender_positions.iter().map(|&p| full[p]).collect()
    }

    /// Reconstructs the derived entries of `slice` in place from its
    /// explicit entries. Division is exact for layouts produced by
    /// [`PairLayout::build`] (the relations are verified symbolically at
    /// construction); an inexact or out-of-range result means layout and
    /// values disagree, and the frame is rejected rather than silently
    /// corrupting the decoded timestamp.
    fn reconstruct(&self, slice: &mut [u64]) -> Result<(), DecodeError> {
        for d in &self.derived {
            let sum: i128 = d.terms.iter().map(|&(j, c)| c * i128::from(slice[j])).sum();
            let err = DecodeError::InexactDerivedRow { index: d.index };
            if d.den <= 0 || sum % d.den != 0 {
                return Err(err);
            }
            let v = sum / d.den;
            if v < 0 || v > i128::from(u64::MAX) {
                return Err(err);
            }
            slice[d.index] = v as u64;
        }
        Ok(())
    }

    /// Checks that the **complete** slice (explicit and derived entries
    /// all present, e.g. straight from [`PairLayout::project`]) satisfies
    /// every derived-row relation — i.e. that a receiver reconstructing
    /// the derived entries from the explicit ones would land on exactly
    /// these values. The sender-side guard of the compressed path.
    pub fn verify_derived(&self, slice: &[u64]) -> Result<(), DecodeError> {
        for d in &self.derived {
            let sum: i128 = d.terms.iter().map(|&(j, c)| c * i128::from(slice[j])).sum();
            if d.den <= 0 || sum != d.den * i128::from(slice[d.index]) {
                return Err(DecodeError::InexactDerivedRow { index: d.index });
            }
        }
        Ok(())
    }

    /// Encodes one delta frame: the explicit entries of the common
    /// `slice` (as [`PairLayout::project`] returns it), framed against
    /// the previous frame's explicit values `prev`, appended to `buf`.
    /// The new explicit values are written to `next` (cleared first) so
    /// the caller commits stream state explicitly — this is the stateless
    /// primitive under [`DeltaStream::encode`] and the encode-once
    /// fan-out. Returns the bytes appended.
    ///
    /// # Panics
    ///
    /// Panics if `prev` is shorter than the explicit count or `slice` is
    /// shorter than the common slice.
    pub fn encode_frame(
        &self,
        prev: &[u64],
        slice: &[u64],
        buf: &mut Vec<u8>,
        next: &mut Vec<u64>,
    ) -> usize {
        let start = buf.len();
        let explicit = &self.explicit;
        // Steady-state deltas are overwhelmingly one byte; reserve for
        // that case so the loop almost never grows the buffer.
        buf.reserve(explicit.len() + 8);
        next.clear();
        next.reserve(explicit.len());
        // Chunks of 8: when every zig-zag delta in the chunk fits one
        // LEB128 byte (the steady state), the whole chunk lands with a
        // single 8-byte extend — branch-free per element, and the
        // all-small test is one OR-reduction the compiler vectorizes.
        let mut j = 0;
        while j + 8 <= explicit.len() {
            let mut z = [0u64; 8];
            let mut all = 0u64;
            for (k, zk) in z.iter_mut().enumerate() {
                let v = slice[explicit[j + k]];
                *zk = encode_delta(prev[j + k], v);
                all |= *zk;
                next.push(v);
            }
            if all < 0x80 {
                let bytes = z.map(|d| d as u8);
                buf.extend_from_slice(&bytes);
            } else {
                for &zk in &z {
                    write_varint(buf, zk);
                }
            }
            j += 8;
        }
        while j < explicit.len() {
            let v = slice[explicit[j]];
            write_varint(buf, encode_delta(prev[j], v));
            next.push(v);
            j += 1;
        }
        buf.len() - start
    }

    /// The pre-chunking scalar body of [`PairLayout::encode_frame`], kept
    /// as the byte-identical reference for differential tests and the
    /// `varint` micro-bench.
    #[doc(hidden)]
    pub fn encode_frame_scalar(
        &self,
        prev: &[u64],
        slice: &[u64],
        buf: &mut Vec<u8>,
        next: &mut Vec<u64>,
    ) -> usize {
        let start = buf.len();
        buf.reserve(self.explicit.len() + 8);
        next.clear();
        next.reserve(self.explicit.len());
        for (j, &idx) in self.explicit.iter().enumerate() {
            let v = slice[idx];
            let z = encode_delta(prev[j], v);
            if z < 0x80 {
                buf.push(z as u8);
            } else {
                write_varint(buf, z);
            }
            next.push(v);
        }
        buf.len() - start
    }

    /// Decodes one delta frame from `frame` at `*pos` against the
    /// previous explicit values `prev`, returning the full common slice
    /// (explicit entries from the wire, derived entries reconstructed)
    /// and writing the new explicit values to `next` (cleared first). The
    /// caller owns stream-state commit and the trailing-bytes check;
    /// `prev` is never modified, so rejection is transactional for free.
    ///
    /// # Panics
    ///
    /// Panics if `prev` is shorter than the explicit count.
    pub fn decode_frame(
        &self,
        prev: &[u64],
        frame: &[u8],
        pos: &mut usize,
        next: &mut Vec<u64>,
    ) -> Result<Vec<u64>, DecodeError> {
        let mut slice = vec![0u64; self.common_len()];
        next.clear();
        next.reserve(self.explicit.len());
        let n = self.explicit.len();
        let mut j = 0;
        // Chunks of 8: a block of 8 continuation-free bytes is 8 complete
        // one-byte varints (a one-byte varint is exactly a byte < 0x80),
        // so the steady state decodes with one OR-reduction test and no
        // per-byte branches.
        while j + 8 <= n {
            if let Some(chunk) = frame.get(*pos..*pos + 8) {
                let all = chunk.iter().fold(0u8, |a, &b| a | b);
                if all < 0x80 {
                    for (k, &b) in chunk.iter().enumerate() {
                        let v = decode_delta(prev[j + k], u64::from(b));
                        next.push(v);
                        slice[self.explicit[j + k]] = v;
                    }
                    *pos += 8;
                    j += 8;
                    continue;
                }
            }
            // Probe miss: some varint in this chunk carries a
            // continuation byte. Decode the whole chunk scalar before
            // probing again, so a continuation-heavy frame pays one
            // probe per 8 entries rather than one per entry.
            for _ in 0..8 {
                let offset = *pos;
                let z = read_varint(frame, pos).ok_or(DecodeError::BadVarint { offset })?;
                let v = decode_delta(prev[j], z);
                next.push(v);
                slice[self.explicit[j]] = v;
                j += 1;
            }
        }
        while j < n {
            let offset = *pos;
            let z = read_varint(frame, pos).ok_or(DecodeError::BadVarint { offset })?;
            let v = decode_delta(prev[j], z);
            next.push(v);
            slice[self.explicit[j]] = v;
            j += 1;
        }
        self.reconstruct(&mut slice)?;
        Ok(slice)
    }

    /// The pre-chunking scalar body of [`PairLayout::decode_frame`], kept
    /// as the byte-identical reference for differential tests and the
    /// `varint` micro-bench.
    #[doc(hidden)]
    pub fn decode_frame_scalar(
        &self,
        prev: &[u64],
        frame: &[u8],
        pos: &mut usize,
        next: &mut Vec<u64>,
    ) -> Result<Vec<u64>, DecodeError> {
        let mut slice = vec![0u64; self.common_len()];
        next.clear();
        next.reserve(self.explicit.len());
        for (j, &slice_idx) in self.explicit.iter().enumerate() {
            let offset = *pos;
            let z = read_varint(frame, pos).ok_or(DecodeError::BadVarint { offset })?;
            let v = decode_delta(prev[j], z);
            next.push(v);
            slice[slice_idx] = v;
        }
        self.reconstruct(&mut slice)?;
        Ok(slice)
    }
}

/// 0/1 row vectors over atom columns: registers with identical row
/// membership collapse to one column.
fn atom_vectors(rows: &[RegSet]) -> Vec<Vec<i128>> {
    let mut all = RegSet::new();
    for r in rows {
        all.union_with(r);
    }
    let mut sigs: Vec<Vec<bool>> = Vec::new();
    for x in all.iter() {
        let sig: Vec<bool> = rows.iter().map(|r| r.contains(x)).collect();
        if !sigs.contains(&sig) {
            sigs.push(sig);
        }
    }
    rows.iter()
        .enumerate()
        .map(|(r, _)| sigs.iter().map(|s| i128::from(s[r])).collect())
        .collect()
}

/// Converts the rational combination `combo` over `basis_slice` into an
/// integer [`DerivedRow`] and verifies it symbolically over the atom
/// columns: `den · target_vec == Σ num_j · basis_vec_j` exactly. Returns
/// `None` (keep the row explicit) if the relation does not check out.
fn finish_derived(
    slice_idx: usize,
    combo: &[Frac],
    basis_slice: &[usize],
    atom_vecs: &[Vec<i128>],
    own_rows: &[(usize, RegSet)],
    target_vec: &[i128],
) -> Option<DerivedRow> {
    // Common denominator.
    let mut den: i128 = 1;
    for c in combo {
        if !c.is_zero() {
            den = den / gcd(den.unsigned_abs(), c.den.unsigned_abs()) as i128 * c.den;
        }
    }
    let den = den.abs().max(1);
    let mut terms = Vec::new();
    for (j, c) in combo.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        terms.push((basis_slice[j], c.num * (den / c.den)));
    }
    // Symbolic verification over atoms.
    let ncols = target_vec.len();
    for col in 0..ncols {
        let mut sum: i128 = 0;
        for &(slice_j, coeff) in &terms {
            let r = own_rows.iter().position(|&(s, _)| s == slice_j)?;
            sum += coeff * atom_vecs[r][col];
        }
        if sum != den * target_vec[col] {
            return None;
        }
    }
    Some(DerivedRow {
        index: slice_idx,
        terms,
        den,
    })
}

/// One end of one per-pair wire stream: the previous frame's explicit
/// values, all zero before the first frame. The sender and the receiver
/// each hold one and advance them frame by frame, so every frame is a
/// delta against the same reference on both ends.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    prev: Vec<u64>,
    /// Spare buffer rotated with `prev` so a frame never allocates.
    next: Vec<u64>,
}

/// Two ends are equal when they frame the next frame alike.
impl PartialEq for DeltaStream {
    fn eq(&self, other: &Self) -> bool {
        self.prev == other.prev
    }
}
impl Eq for DeltaStream {}

impl DeltaStream {
    /// A fresh stream for `layout`.
    pub fn new(layout: &PairLayout) -> DeltaStream {
        DeltaStream {
            prev: vec![0; layout.num_explicit()],
            next: Vec::with_capacity(layout.num_explicit()),
        }
    }

    /// Appends the frame of the common `slice` to `buf`, advances the
    /// stream, and returns the frame length in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not the stream's layout or `slice` is
    /// shorter than its common slice.
    pub fn encode(&mut self, layout: &PairLayout, slice: &[u64], buf: &mut Vec<u8>) -> usize {
        let len = layout.encode_frame(&self.prev, slice, buf, &mut self.next);
        std::mem::swap(&mut self.prev, &mut self.next);
        len
    }

    /// Decodes one whole frame into the common slice (explicit entries
    /// from the wire, derived entries reconstructed) and advances the
    /// stream. Rejection is transactional: a malformed frame (truncated,
    /// over-long, trailing bytes, or an inexact derived row) leaves the
    /// stream untouched, so a later well-formed frame still decodes.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not the stream's layout.
    pub fn decode(&mut self, layout: &PairLayout, frame: &[u8]) -> Result<Vec<u64>, DecodeError> {
        let mut pos = 0;
        let slice = layout.decode_frame(&self.prev, frame, &mut pos, &mut self.next)?;
        if pos != frame.len() {
            return Err(DecodeError::TrailingBytes {
                consumed: pos,
                len: frame.len(),
            });
        }
        std::mem::swap(&mut self.prev, &mut self.next);
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(v: &[u32]) -> RegSet {
        RegSet::from_indices(v.iter().copied())
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let bits = 64 - v.leading_zeros();
            assert_eq!(buf.len(), bits.div_ceil(7).max(1) as usize, "len of {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        // 11 continuation bytes: more than 64 bits.
        let over = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&over, &mut pos), None);
    }

    #[test]
    fn delta_round_trip_extremes() {
        for (prev, cur) in [
            (0u64, 0u64),
            (0, u64::MAX),
            (u64::MAX, 0),
            (5, 3),
            (u64::MAX, u64::MAX),
            (1 << 63, (1 << 63) - 1),
        ] {
            assert_eq!(decode_delta(prev, encode_delta(prev, cur)), cur);
        }
    }

    #[test]
    fn small_forward_deltas_are_one_byte() {
        for d in 0..64u64 {
            assert!(encode_delta(100, 100 + d) < 0x80);
        }
    }

    #[test]
    fn dependent_own_rows_are_derived() {
        // Rows {x}, {y}, {x,y}: third = first + second.
        let own = vec![(0usize, rs(&[0])), (1, rs(&[1])), (2, rs(&[0, 1]))];
        let layout = PairLayout::build(vec![0, 1, 2], &own);
        assert_eq!(layout.num_explicit(), 2);
        assert_eq!(layout.num_derived(), 1);
        // Counters from atom counts (3 writes to x, 5 to y).
        let full = [3u64, 5, 8];
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        enc.encode(&layout, &full, &mut buf);
        assert_eq!(dec.decode(&layout, &buf), Ok(vec![3, 5, 8]));
    }

    #[test]
    fn independent_rows_stay_explicit() {
        // {x,y} and {y,z} overlap but are independent.
        let own = vec![(0usize, rs(&[0, 1])), (1, rs(&[1, 2]))];
        let layout = PairLayout::build(vec![0, 1], &own);
        assert_eq!(layout.num_explicit(), 2);
        assert_eq!(layout.num_derived(), 0);
    }

    #[test]
    fn identical_rows_collapse_to_one() {
        // Clique-style: every outgoing edge carries the same registers.
        let own: Vec<(usize, RegSet)> = (0..4).map(|j| (j, rs(&[0, 1]))).collect();
        let layout = PairLayout::build(vec![0, 1, 2, 3], &own);
        assert_eq!(layout.num_explicit(), 1);
        assert_eq!(layout.num_derived(), 3);
        let full = [7u64, 7, 7, 7];
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        let bytes = enc.encode(&layout, &full, &mut buf);
        assert_eq!(bytes, 1); // one varint delta
        assert_eq!(dec.decode(&layout, &buf), Ok(vec![7; 4]));
    }

    #[test]
    fn non_own_rows_never_derived() {
        // No own rows at all: everything explicit even if dependent.
        let layout = PairLayout::build(vec![0, 1, 2], &[]);
        assert_eq!(layout.num_explicit(), 3);
    }

    #[test]
    fn stream_deltas_shrink_repeat_frames() {
        let own = vec![(0usize, rs(&[0]))];
        let layout = PairLayout::build(vec![0, 1], &own);
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        // First frame pays for the absolute values; later frames are
        // one byte per counter for small increments.
        enc.encode(&layout, &[1000, 2000], &mut buf);
        assert_eq!(dec.decode(&layout, &buf).unwrap(), vec![1000, 2000]);
        buf.clear();
        let bytes = enc.encode(&layout, &[1001, 2001], &mut buf);
        assert_eq!(bytes, 2);
        assert_eq!(dec.decode(&layout, &buf).unwrap(), vec![1001, 2001]);
    }

    #[test]
    fn decoder_rejects_malformed_frames() {
        let layout = PairLayout::identity(vec![0, 1]);
        let mut dec = DeltaStream::new(&layout);
        assert_eq!(
            dec.decode(&layout, &[0x00]),
            Err(DecodeError::BadVarint { offset: 1 })
        );
        let mut dec = DeltaStream::new(&layout);
        assert_eq!(
            dec.decode(&layout, &[0x00, 0x00, 0x00]),
            Err(DecodeError::TrailingBytes {
                consumed: 2,
                len: 3
            })
        );
    }

    #[test]
    fn inexact_derived_row_rejects_frame_transactionally() {
        // Regression: an unverified derived row claiming
        // `slice[1] = slice[0] / 2` used to be only debug-asserted, so a
        // release build silently shipped a corrupt counter. It must now
        // reject the frame and leave the stream state untouched.
        let bad = PairLayout::from_raw_parts(
            vec![0, 1],
            vec![0],
            vec![DerivedRow {
                index: 1,
                terms: vec![(0, 1)],
                den: 2,
            }],
        );
        let mut enc = DeltaStream::new(&bad);
        let mut dec = DeltaStream::new(&bad);
        let mut buf = Vec::new();
        // Odd explicit value: 3 / 2 is inexact.
        enc.encode(&bad, &[3, 0], &mut buf);
        let snapshot = dec.clone();
        assert_eq!(
            dec.decode(&bad, &buf),
            Err(DecodeError::InexactDerivedRow { index: 1 })
        );
        assert_eq!(dec, snapshot, "rejection must not advance stream state");
        // An exact frame on the same stream still decodes — against the
        // *original* state, proving the rejection was transactional.
        let mut enc = DeltaStream::new(&bad);
        buf.clear();
        enc.encode(&bad, &[4, 2], &mut buf);
        assert_eq!(dec.decode(&bad, &buf), Ok(vec![4, 2]));
    }

    #[test]
    fn verify_derived_matches_reconstruction() {
        let own = vec![(0usize, rs(&[0])), (1, rs(&[1])), (2, rs(&[0, 1]))];
        let layout = PairLayout::build(vec![0, 1, 2], &own);
        assert_eq!(layout.num_derived(), 1);
        // Values maintained by `advance` satisfy the relation.
        assert_eq!(layout.verify_derived(&[3, 5, 8]), Ok(()));
        // A slice that breaks the relation is caught.
        assert_eq!(
            layout.verify_derived(&[3, 5, 9]),
            Err(DecodeError::InexactDerivedRow { index: 2 })
        );
    }

    #[test]
    fn explicit_fallback_preserves_projection() {
        let own: Vec<(usize, RegSet)> = (0..3).map(|j| (j, rs(&[0]))).collect();
        let layout = PairLayout::build(vec![2, 0, 1], &own);
        assert!(layout.num_derived() > 0);
        let fallback = layout.to_explicit();
        assert_eq!(fallback.num_derived(), 0);
        assert_eq!(fallback.num_explicit(), fallback.common_len());
        let full = [5u64, 6, 7];
        assert_eq!(fallback.project(&full), layout.project(&full));
    }

    #[test]
    fn frame_primitives_match_stateful_streams() {
        // encode_frame/decode_frame with caller-managed state must agree
        // byte-for-byte with the DeltaStream wrapper, and both must
        // reproduce the slice. The derived row sits before the last
        // explicit entry, so the wire order is not the slice order.
        let own = vec![(0usize, rs(&[0])), (1, rs(&[1])), (2, rs(&[0, 1]))];
        let layout = PairLayout::build(vec![0, 1, 2, 3], &own);
        assert_eq!(layout.explicit_indices(), &[0, 1, 3]);
        let slices: [&[u64]; 3] = [&[3, 5, 8, 100], &[4, 5, 9, 100], &[4, 6, 10, 107]];
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut state = vec![0u64; layout.num_explicit()];
        let (mut oracle_buf, mut buf) = (Vec::new(), Vec::new());
        let mut next = Vec::new();
        for slice in slices {
            oracle_buf.clear();
            enc.encode(&layout, slice, &mut oracle_buf);
            buf.clear();
            let len = layout.encode_frame(&state, slice, &mut buf, &mut next);
            assert_eq!(buf, oracle_buf);
            assert_eq!(len, buf.len());
            let mut pos = 0;
            let decoded = layout
                .decode_frame(&state, &buf, &mut pos, &mut next)
                .unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(decoded, slice);
            assert_eq!(dec.decode(&layout, &oracle_buf).unwrap(), slice);
            state.clear();
            state.extend_from_slice(&next);
        }
    }

    #[test]
    fn projection_selects_sender_positions() {
        let layout = PairLayout::identity(vec![3, 1]);
        assert_eq!(layout.project(&[10, 11, 12, 13]), vec![13, 11]);
    }

    #[test]
    fn empty_layout_round_trips() {
        let layout = PairLayout::build(vec![], &[]);
        assert_eq!(layout.common_len(), 0);
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        assert_eq!(enc.encode(&layout, &[], &mut buf), 0);
        assert_eq!(dec.decode(&layout, &buf), Ok(vec![]));
    }

    #[test]
    fn nested_union_dependency_detected() {
        // Appendix D shape: {x}, {y}, {z}, {x,y,z}.
        let own = vec![
            (0usize, rs(&[0])),
            (1, rs(&[1])),
            (2, rs(&[2])),
            (3, rs(&[0, 1, 2])),
        ];
        let layout = PairLayout::build(vec![0, 1, 2, 3], &own);
        assert_eq!(layout.num_explicit(), 3);
        let full = [2u64, 3, 4, 9];
        let mut enc = DeltaStream::new(&layout);
        let mut dec = DeltaStream::new(&layout);
        let mut buf = Vec::new();
        enc.encode(&layout, &full, &mut buf);
        assert_eq!(dec.decode(&layout, &buf), Ok(full.to_vec()));
    }
}
