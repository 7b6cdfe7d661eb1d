//! One event-log merge for every driver: `merge_node_events` rebuilds a
//! global trace from per-replica logs alone, and the checker's verdict
//! does not depend on which interleaving of those logs it is handed.
//! Happened-before (Definition 1) is built from each replica's own order
//! of issues and applies, so splitting a trace by replica and merging it
//! back must keep every violation — and the threaded cluster's
//! `trace_snapshot`, which runs the same merge over a cut taken under
//! every shard lock, must never show an apply before its issue.

use prcc::checker::{check, check_with_hb, CheckReport, Event, HbGraph, Trace};
use prcc::core::runtime::ThreadedCluster;
use prcc::core::{merge_node_events, NodeEvent, System, SystemBuilder, TrackerKind, Value};
use prcc::net::DelayModel;
use prcc::sharegraph::{edge, topology, LoopConfig, RegisterId, ReplicaId, ShareGraph};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}
fn x(i: u32) -> RegisterId {
    RegisterId::new(i)
}

/// `trace` split into per-replica logs: an issue belongs to its issuer,
/// an apply to the applying replica, each in global order.
fn split(trace: &Trace, replicas: usize) -> Vec<Vec<NodeEvent>> {
    let mut logs = vec![Vec::new(); replicas];
    for ev in trace.events() {
        match *ev {
            Event::Issue { update, register } => {
                logs[update.issuer.index()].push(NodeEvent::Issue {
                    id: update,
                    register,
                })
            }
            Event::Apply { update, at } => logs[at.index()].push(NodeEvent::Apply { id: update }),
        }
    }
    logs
}

/// The report's violations as a sorted multiset (detection order is the
/// global event order, which the merge is free to change).
fn verdict(report: &CheckReport) -> Vec<String> {
    let mut v: Vec<String> = report.violations.iter().map(|v| format!("{v:?}")).collect();
    v.sort();
    v
}

/// Asserts the re-merged trace of `sys` checks exactly as `sys`'s own
/// trace does; returns that verdict.
fn assert_merge_keeps_verdict(sys: &System, what: &str) -> Vec<String> {
    let placement = sys.data_placement();
    let direct = check(sys.trace(), placement);
    let merged_trace = merge_node_events(&split(sys.trace(), placement.num_replicas()));
    assert_eq!(merged_trace.events().len(), sys.trace().events().len());
    let merged = check(&merged_trace, placement);
    assert_eq!(direct.applies_checked, merged.applies_checked, "{what}");
    assert_eq!(verdict(&direct), verdict(&merged), "{what}");
    verdict(&direct)
}

/// A seeded run: random writers and registers, partial progress between
/// writes so updates overlap in flight.
fn seeded_run(g: &ShareGraph, seed: u64) -> System {
    let mut sys = SystemBuilder::new(g.clone())
        .delay(DelayModel::Uniform { min: 1, max: 9 })
        .seed(seed)
        .build();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for k in 0..60u64 {
        let i = r(next(g.num_replicas()) as u32);
        let regs: Vec<RegisterId> = g.placement().registers_of(i).iter().collect();
        if regs.is_empty() {
            continue;
        }
        sys.write(i, regs[next(regs.len())], Value::from(k));
        for _ in 0..next(4) {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    sys
}

#[test]
fn merged_logs_keep_the_checker_verdict() {
    for (name, g) in [
        ("ring:6", topology::ring(6)),
        ("tree:7", topology::binary_tree(7)),
        ("clique:4x3", topology::clique_full(4, 3)),
    ] {
        for seed in 0..4 {
            let sys = seeded_run(&g, seed);
            let v = assert_merge_keeps_verdict(&sys, &format!("{name} seed {seed}"));
            assert!(v.is_empty(), "{name} seed {seed}: {v:?}");
        }
    }
}

#[test]
fn merged_logs_keep_an_oblivious_replicas_violation() {
    // Theorem 8's execution: replica 0 drops far edge (2,1), replica 1's
    // link from 2 is held while the chain runs the long way round.
    let mut sys = System::builder(topology::ring(6))
        .delay(DelayModel::Fixed(1))
        .seed(0)
        .drop_edge(r(0), edge(2, 1))
        .build();
    sys.hold_link(r(2), r(1));
    sys.write(r(2), x(1), Value::from(1u64));
    for i in 2..6u32 {
        sys.write(r(i), x(i), Value::from(2u64));
        sys.run_to_quiescence();
    }
    sys.write(r(0), x(0), Value::from(3u64));
    sys.run_to_quiescence();
    sys.release_link(r(2), r(1));
    sys.run_to_quiescence();
    let v = assert_merge_keeps_verdict(&sys, "oblivious drop_edge");
    assert!(v.iter().any(|v| v.starts_with("Safety")), "{v:?}");
}

#[test]
fn merged_logs_keep_a_truncated_trackers_violation() {
    // E8's adversarial ring: a loop cap of 3 edges misses the 8-hop
    // dependency chain.
    let mut sys = System::builder(topology::ring(8))
        .tracker(TrackerKind::EdgeIndexed(LoopConfig::bounded(3)))
        .delay(DelayModel::Fixed(1))
        .seed(0)
        .build();
    sys.hold_link(r(1), r(0));
    sys.write(r(1), x(0), Value::from(1u64));
    for i in 1..8u32 {
        sys.write(r(i), x(i), Value::from(u64::from(i) + 1));
        sys.run_to_quiescence();
    }
    sys.release_link(r(1), r(0));
    sys.run_to_quiescence();
    let v = assert_merge_keeps_verdict(&sys, "bounded(3) tracker");
    assert!(v.iter().any(|v| v.starts_with("Safety")), "{v:?}");
}

#[test]
fn mid_run_trace_snapshots_are_consistent_cuts() {
    let g = topology::clique_full(4, 4);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(0), 7);
    // Writers and snapshots pace each other — one write per writer per
    // four snapshots, and snapshot `s` waits for `s` acknowledged
    // writes — so every cut lands mid-run and the traces stay small
    // enough to check 200 times.
    let (taken, written) = (AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|s| {
        let (c, taken, written) = (&cluster, &taken, &written);
        for i in 0..4u32 {
            s.spawn(move || {
                for k in 0..50u32 {
                    while taken.load(Ordering::Acquire) < 4 * k as usize {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    c.write(r(i), x((i + k) % 4), Value::from(u64::from(k)));
                    written.fetch_add(1, Ordering::Release);
                }
            });
        }
        for snapshot in 0..200 {
            while written.load(Ordering::Acquire) < snapshot {
                std::thread::sleep(Duration::from_micros(50));
            }
            let trace = c.trace_snapshot();
            // Building the happened-before graph panics on an apply
            // whose issue is not in the trace.
            let hb = HbGraph::build(&trace);
            let report = check_with_hb(&trace, g.placement(), &hb);
            let unsafe_: Vec<_> = report.safety_violations().collect();
            assert!(unsafe_.is_empty(), "{unsafe_:?}");
            taken.fetch_add(1, Ordering::Release);
        }
    });
    cluster.settle();
    assert!(cluster.check().is_consistent());
    assert_eq!(cluster.trace_snapshot().num_updates(), 200);
}
