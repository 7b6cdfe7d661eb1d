//! Microbenchmark of the chunked LEB128 frame primitives against their
//! scalar reference bodies: the per-frame win of testing 8 zig-zag
//! deltas per branch instead of one. Widths bracket the deployed range
//! (ring pair streams are ~4–8 explicit entries, clique layouts reach
//! dozens); the "dense" shape is the steady state (every delta one
//! byte), "mixed" forces a continuation byte into each chunk so the
//! fast path keeps bailing to the scalar tail.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prcc_timestamp::PairLayout;

fn layout(width: usize) -> PairLayout {
    PairLayout::identity((0..width).collect())
}

/// `rounds` successive full slices whose per-entry deltas are all
/// one-byte varints ("dense") or contain one multi-byte delta per
/// 8-entry chunk ("mixed").
fn slices(width: usize, rounds: usize, dense: bool) -> Vec<Vec<u64>> {
    let mut cur = vec![0u64; width];
    (0..rounds)
        .map(|_| {
            for (j, v) in cur.iter_mut().enumerate() {
                *v += if dense || j % 8 != 7 {
                    1 + (j as u64 % 3)
                } else {
                    1 << 20
                };
            }
            cur.clone()
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("varint_encode");
    for width in [8usize, 24, 64] {
        for (shape, dense) in [("dense", true), ("mixed", false)] {
            let lay = layout(width);
            let rounds = slices(width, 64, dense);
            let id = format!("{shape}/{width}");
            group.bench_with_input(BenchmarkId::new("chunked", &id), &rounds, |b, rounds| {
                let mut prev = vec![0u64; width];
                let mut next = Vec::new();
                let mut buf = Vec::new();
                let mut k = 0usize;
                b.iter(|| {
                    buf.clear();
                    let n = lay.encode_frame(&prev, &rounds[k % rounds.len()], &mut buf, &mut next);
                    std::mem::swap(&mut prev, &mut next);
                    k += 1;
                    black_box(n)
                });
            });
            group.bench_with_input(BenchmarkId::new("scalar", &id), &rounds, |b, rounds| {
                let mut prev = vec![0u64; width];
                let mut next = Vec::new();
                let mut buf = Vec::new();
                let mut k = 0usize;
                b.iter(|| {
                    buf.clear();
                    let n = lay.encode_frame_scalar(
                        &prev,
                        &rounds[k % rounds.len()],
                        &mut buf,
                        &mut next,
                    );
                    std::mem::swap(&mut prev, &mut next);
                    k += 1;
                    black_box(n)
                });
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("varint_decode");
    for width in [8usize, 24, 64] {
        for (shape, dense) in [("dense", true), ("mixed", false)] {
            let lay = layout(width);
            // One steady-state frame, decoded repeatedly against the
            // same prev (decode never mutates prev, so this is sound).
            let prev = vec![7u64; width];
            let slice = slices(width, 1, dense)
                .pop()
                .unwrap()
                .iter()
                .map(|v| v + 7)
                .collect::<Vec<_>>();
            let mut frame = Vec::new();
            let mut next = Vec::new();
            lay.encode_frame(&prev, &slice, &mut frame, &mut next);
            let id = format!("{shape}/{width}");
            group.bench_with_input(BenchmarkId::new("chunked", &id), &frame, |b, frame| {
                let mut next = Vec::new();
                b.iter(|| {
                    let mut pos = 0usize;
                    let out = lay.decode_frame(&prev, frame, &mut pos, &mut next).unwrap();
                    black_box(out)
                });
            });
            group.bench_with_input(BenchmarkId::new("scalar", &id), &frame, |b, frame| {
                let mut next = Vec::new();
                b.iter(|| {
                    let mut pos = 0usize;
                    let out = lay
                        .decode_frame_scalar(&prev, frame, &mut pos, &mut next)
                        .unwrap();
                    black_box(out)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
