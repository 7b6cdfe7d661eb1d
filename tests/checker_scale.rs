//! The checker at scale: a synthetic, causally consistent trace of
//! eight fully replicated replicas with one safety violation planted at
//! its end. `check` must report exactly that violation, within a wall
//! time bound of ten times what it measured.
//!
//! A release build checks 1 M events; a debug build checks 64 k, so the
//! default `cargo test` runs the test too.

use prcc::checker::{check, Trace, UpdateId, Violation};
use prcc::sharegraph::{topology, RegisterId, ReplicaId};
use std::time::{Duration, Instant};

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

const REPLICAS: u32 = 8;

/// Events checked, and the bound on the time `check` may take. On a
/// 2-core x86-64 host `check` took 0.19–0.29 s for the release size and
/// 0.13–0.21 s for the debug size (five runs each); each bound is over
/// ten times the slowest.
#[cfg(not(debug_assertions))]
const SIZE: (usize, Duration) = (1 << 20, Duration::from_secs(3));
#[cfg(debug_assertions)]
const SIZE: (usize, Duration) = (1 << 16, Duration::from_secs(3));

/// Round-robin writers on `clique_full(8, 2)`, each update applied at
/// the seven other replicas `lag` updates after its issue, in issue
/// order — causal, since `u1 ↪ u2` implies `u1` was issued first — and
/// then the planted pair: `r1` issues `b` after applying `r0`'s `a`,
/// and `r2` applies `b` before `a`.
fn planted_trace(events: usize, lag: usize) -> (Trace, UpdateId, UpdateId) {
    let mut t = Trace::new();
    let mut issued = Vec::new();
    let deliver = |t: &mut Trace, u: UpdateId| {
        for at in (0..REPLICAS).map(r).filter(|&at| at != u.issuer) {
            t.record_apply(u, at);
        }
    };
    while t.events().len() + 2 * REPLICAS as usize + lag * REPLICAS as usize <= events {
        let k = issued.len();
        issued.push(t.record_issue(r(k as u32 % REPLICAS), RegisterId::new(k as u32 % 2)));
        if k >= lag {
            deliver(&mut t, issued[k - lag]);
        }
    }
    for &u in &issued[issued.len().saturating_sub(lag)..] {
        deliver(&mut t, u);
    }
    let a = t.record_issue(r(0), RegisterId::new(0));
    t.record_apply(a, r(1));
    let b = t.record_issue(r(1), RegisterId::new(1));
    t.record_apply(b, r(2));
    for at in (2..REPLICAS).map(r) {
        t.record_apply(a, at);
    }
    t.record_apply(b, r(0));
    for at in (3..REPLICAS).map(r) {
        t.record_apply(b, at);
    }
    (t, a, b)
}

#[test]
fn a_large_trace_reports_exactly_its_planted_violation() {
    let (events, bound) = SIZE;
    let (trace, a, b) = planted_trace(events, 37);
    assert!(
        trace.events().len() * 100 >= events * 99,
        "{}",
        trace.events().len()
    );
    let placement = topology::clique_full(REPLICAS as usize, 2)
        .placement()
        .clone();
    let start = Instant::now();
    let report = check(&trace, &placement);
    let took = start.elapsed();
    assert_eq!(
        report.violations,
        vec![Violation::Safety {
            update: b,
            at: r(2),
            missing: a,
        }]
    );
    assert_eq!(
        report.applies_checked,
        trace.events().len() - trace.num_updates()
    );
    assert!(took < bound, "checking {events} events took {took:?}");
}
