//! Round-trip properties of the wire codec: for every layout and every
//! frame sequence, encode → decode is the identity on the projected
//! counters — including all-zeros frames, single-counter layouts,
//! decreasing sequences, and `u64::MAX`-magnitude deltas.

use prcc_sharegraph::RegSet;
use prcc_timestamp::wire::{decode_delta, encode_delta, read_varint, write_varint};
use prcc_timestamp::{DeltaStream, PairLayout};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Encodes the projection of each frame in order and checks the paired
/// decoder returns it.
fn assert_roundtrip(layout: &PairLayout, frames: &[Vec<u64>]) {
    let mut enc = DeltaStream::new(layout);
    let mut dec = DeltaStream::new(layout);
    let mut buf = Vec::new();
    for full in frames {
        let slice = layout.project(full);
        buf.clear();
        let n = enc.encode(layout, &slice, &mut buf);
        assert_eq!(n, buf.len(), "encode must report the frame length");
        let got = dec.decode(layout, &buf).expect("well-formed frame");
        assert_eq!(got, slice, "frame {full:?}");
    }
}

/// A compressible layout plus value frames that respect its linear
/// relations: `rows` register sets over `m` registers become the sender's
/// own outgoing edges (slice indices `0..rows.len()`), followed by
/// `others` unconstrained entries. Frame values for own rows are sums of
/// seeded per-register counts, exactly how `advance` maintains them.
fn own_rows_case(
    m: usize,
    row_masks: &[u32],
    others: usize,
    num_frames: usize,
    value_seed: u64,
    big: bool,
) -> (PairLayout, Vec<Vec<u64>>) {
    let rows: Vec<RegSet> = row_masks
        .iter()
        .map(|&mask| {
            // Non-empty: always include register (mask % m).
            let mut s = RegSet::new();
            s.insert(prcc_sharegraph::RegisterId::new(mask % m as u32));
            for x in 0..m as u32 {
                if mask & (1 << x) != 0 {
                    s.insert(prcc_sharegraph::RegisterId::new(x));
                }
            }
            s
        })
        .collect();
    let own: Vec<(usize, RegSet)> = rows.iter().cloned().enumerate().collect();
    let len = rows.len() + others;
    let layout = PairLayout::build((0..len).collect(), &own);

    let mut rng = StdRng::seed_from_u64(value_seed);
    let mut frames = Vec::new();
    for _ in 0..num_frames {
        // Per-register write counts; own-row values are their sums over
        // the row's registers (u64::MAX/8 headroom keeps sums lossless).
        let counts: Vec<u64> = (0..m)
            .map(|_| {
                if big {
                    rng.gen_range(0..u64::MAX / 8)
                } else {
                    rng.gen_range(0u64..50)
                }
            })
            .collect();
        let mut frame: Vec<u64> = rows
            .iter()
            .map(|r| r.iter().map(|x| counts[x.index()]).sum())
            .collect();
        for _ in 0..others {
            frame.push(if big {
                rng.gen_range(0..u64::MAX)
            } else {
                rng.gen_range(0u64..50)
            });
        }
        frames.push(frame);
    }
    (layout, frames)
}

proptest! {
    /// Varints survive a round trip for any value.
    #[test]
    fn varint_roundtrip(v in 0u64..u64::MAX) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }

    /// Zig-zag deltas are lossless for any (prev, cur) pair — including
    /// decreases and wrap-around magnitudes.
    #[test]
    fn delta_roundtrip(prev in 0u64..u64::MAX, cur in 0u64..u64::MAX) {
        prop_assert_eq!(decode_delta(prev, encode_delta(prev, cur)), cur);
    }

    /// Identity (all-explicit) layouts: arbitrary frame sequences round-
    /// trip, regardless of counter magnitudes or ordering between frames.
    #[test]
    fn identity_layout_roundtrip(
        len in 1usize..12,
        num_frames in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let layout = PairLayout::identity((0..len).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Vec<u64>> = (0..num_frames)
            .map(|_| (0..len).map(|_| rng.gen_range(0..u64::MAX)).collect())
            .collect();
        assert_roundtrip(&layout, &frames);
    }

    /// The chunked (8-wide fast path) frame encoder and decoder are
    /// byte-identical to the scalar reference on arbitrary layouts and
    /// frame sequences — small steady-state deltas, multi-byte spikes,
    /// and `u64::MAX` swings alike.
    #[test]
    fn chunked_frame_codec_matches_scalar(
        len in 1usize..40,
        num_frames in 1usize..6,
        seed in 0u64..1_000_000,
        spiky in 0usize..2,
    ) {
        let layout = PairLayout::identity((0..len).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = vec![0u64; len];
        for _ in 0..num_frames {
            let slice: Vec<u64> = (0..len)
                .map(|_| {
                    if spiky == 1 && rng.gen_range(0u32..8) == 0 {
                        rng.gen_range(0..u64::MAX)
                    } else {
                        rng.gen_range(0u64..64)
                    }
                })
                .collect();
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            let (mut next_f, mut next_s) = (Vec::new(), Vec::new());
            let nf = layout.encode_frame(&prev, &slice, &mut fast, &mut next_f);
            let ns = layout.encode_frame_scalar(&prev, &slice, &mut slow, &mut next_s);
            prop_assert_eq!(nf, ns);
            prop_assert_eq!(&fast, &slow, "chunked encode changed the bytes");
            prop_assert_eq!(&next_f, &next_s);
            let (mut pos_f, mut pos_s) = (0usize, 0usize);
            let (mut dn_f, mut dn_s) = (Vec::new(), Vec::new());
            let df = layout.decode_frame(&prev, &fast, &mut pos_f, &mut dn_f);
            let ds = layout.decode_frame_scalar(&prev, &slow, &mut pos_s, &mut dn_s);
            prop_assert_eq!(df.as_ref().expect("decode"), &slice);
            prop_assert_eq!(df, ds);
            prop_assert_eq!(pos_f, pos_s);
            prop_assert_eq!(&dn_f, &dn_s);
            prev = next_f;
        }
    }

    /// Chunked decode rejects exactly what scalar decode rejects on
    /// mutated frames, and both leave `pos`/state reusable.
    #[test]
    fn chunked_decode_rejects_like_scalar(
        len in 8usize..24,
        seed in 0u64..1_000_000,
        chop in 1usize..8,
    ) {
        let layout = PairLayout::identity((0..len).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        let prev = vec![0u64; len];
        let slice: Vec<u64> = (0..len).map(|_| rng.gen_range(0..u64::MAX)).collect();
        let (mut buf, mut next) = (Vec::new(), Vec::new());
        layout.encode_frame(&prev, &slice, &mut buf, &mut next);
        let cut = buf.len().saturating_sub(chop);
        let truncated = &buf[..cut];
        let (mut pos_f, mut pos_s) = (0usize, 0usize);
        let (mut dn_f, mut dn_s) = (Vec::new(), Vec::new());
        let df = layout.decode_frame(&prev, truncated, &mut pos_f, &mut dn_f);
        let ds = layout.decode_frame_scalar(&prev, truncated, &mut pos_s, &mut dn_s);
        prop_assert_eq!(df.is_err(), ds.is_err());
    }

    /// Layouts with derived rows: random own-edge register sets (some
    /// linearly dependent, some not — the builder decides and verifies)
    /// with values that respect the sender-maintained linear relations.
    #[test]
    fn compressible_layout_roundtrip(
        m in 1usize..6,
        masks in proptest::collection::vec(0u32..64, 1..7),
        others in 0usize..4,
        num_frames in 1usize..6,
        value_seed in 0u64..1_000_000,
        big in 0usize..2,
    ) {
        let (layout, frames) =
            own_rows_case(m, &masks, others, num_frames, value_seed, big == 1);
        prop_assert_eq!(layout.num_explicit() + layout.num_derived(), layout.common_len());
        assert_roundtrip(&layout, &frames);
    }
}

#[test]
fn all_zeros_frame() {
    let layout = PairLayout::identity(vec![0, 1, 2, 3]);
    assert_roundtrip(&layout, &[vec![0, 0, 0, 0], vec![0, 0, 0, 0]]);
}

#[test]
fn single_counter_layout() {
    let layout = PairLayout::identity(vec![0]);
    assert_roundtrip(&layout, &[vec![0], vec![u64::MAX], vec![5], vec![5]]);
}

#[test]
fn u64_max_delta_both_directions() {
    // 0 → MAX is a +MAX delta; MAX → 0 is a −MAX delta. Zig-zag over the
    // wrapping difference must carry both exactly.
    let layout = PairLayout::identity(vec![0, 1]);
    assert_roundtrip(
        &layout,
        &[
            vec![0, u64::MAX],
            vec![u64::MAX, 0],
            vec![0, u64::MAX],
            vec![1, u64::MAX - 1],
        ],
    );
}

#[test]
fn duplicate_identical_frames_cost_one_byte_per_counter() {
    let layout = PairLayout::identity(vec![0, 1, 2]);
    let mut enc = DeltaStream::new(&layout);
    let mut buf = Vec::new();
    enc.encode(&layout, &[9_000_000, 42, 7], &mut buf);
    buf.clear();
    let n = enc.encode(&layout, &[9_000_000, 42, 7], &mut buf);
    assert_eq!(n, 3); // three zero deltas
    assert_eq!(buf, [0, 0, 0]);
}

#[test]
fn truncated_and_oversized_frames_are_rejected() {
    let layout = PairLayout::identity(vec![0, 1]);
    let mut enc = DeltaStream::new(&layout);
    let mut buf = Vec::new();
    enc.encode(&layout, &[300, 7], &mut buf);
    assert!(buf.len() >= 3);
    let mut dec = DeltaStream::new(&layout);
    assert!(dec.decode(&layout, &buf[..buf.len() - 1]).is_err());
    let mut extended = buf.clone();
    extended.push(0);
    assert!(dec.decode(&layout, &extended).is_err());
    // The intact frame still decodes (failed attempts must not corrupt
    // decoder state).
    assert_eq!(dec.decode(&layout, &buf), Ok(vec![300, 7]));
}
