//! The checker against the reference checker of the `prcc-spec` crate
//! (`prcc_spec::hb`): happened-before as one prefix length per issuer
//! against a closed predecessor bitset per update, and a safety check
//! that compares prefixes against one that walks every predecessor.
//!
//! On each trace both must give the same `happened_before` on every
//! pair of updates, the same `CheckReport` (the same violations in the
//! same order, and the same apply count), the same `causal_past` of
//! every replica and the same `check_sessions` output. The traces:
//! random issue-and-apply sequences over ring, clique and grid
//! placements (most of them unsafe or not live), `System` runs over
//! ring, tree and clique under four trackers with and without drops and
//! an outage, and three executions that must break safety or liveness.

use prcc::checker::{
    causal_past, check_sessions, check_with_hb, CheckReport, Event, HbGraph, SessionEvent, Trace,
    UpdateId,
};
use prcc::core::{System, TrackerKind, Value};
use prcc::net::{DelayModel, FaultPlan, FaultSchedule};
use prcc::sharegraph::paper_examples::{ce_regs, figure8b, CE};
use prcc::sharegraph::{
    edge, topology, ClientId, EdgeId, LoopConfig, Placement, RegisterId, ReplicaId, ShareGraph,
};
use prcc_spec::hb::{self as reference, ClosureHb};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}
fn x(i: u32) -> RegisterId {
    RegisterId::new(i)
}

/// Asserts that the checker and the reference agree on `trace` under
/// `placement` and on `sessions`; returns the checker's report.
fn assert_agree(trace: &Trace, placement: &Placement, sessions: &[SessionEvent]) -> CheckReport {
    let hb = HbGraph::build(trace);
    let closure = ClosureHb::build(trace);
    assert_eq!(hb.updates(), closure.updates());
    let ghost = UpdateId {
        issuer: r(0),
        seq: u64::MAX,
    };
    let all: Vec<UpdateId> = hb.updates().iter().copied().chain([ghost]).collect();
    for &u1 in &all {
        for &u2 in &all {
            assert_eq!(
                hb.happened_before(u1, u2),
                closure.happened_before(u1, u2),
                "{u1} ↪ {u2}"
            );
        }
    }
    let report = check_with_hb(trace, placement, &hb);
    assert_eq!(report, reference::check(trace, placement, &closure));
    for replica in placement.replicas() {
        assert_eq!(
            causal_past(trace, replica, &hb),
            reference::causal_past(trace, replica, &closure),
            "causal past of {replica}"
        );
    }
    assert_eq!(
        check_sessions(trace, sessions),
        reference::check_sessions(&closure, sessions)
    );
    report
}

/// Sessions read off a trace: each replica is a client that writes what
/// it issues and reads each update it applies.
fn replica_sessions(trace: &Trace) -> Vec<SessionEvent> {
    trace
        .events()
        .iter()
        .map(|ev| match *ev {
            Event::Issue { update, register } => SessionEvent::Write {
                client: ClientId::new(update.issuer.raw()),
                update,
                register,
            },
            Event::Apply { update, at } => SessionEvent::Read {
                client: ClientId::new(at.raw()),
                register: trace.register_of(update).expect("issued"),
                observed: Some(update),
            },
        })
        .collect()
}

/// A random execution over `g`'s placement: issues at random holders,
/// applies of in-flight updates in random order, about one update in ten
/// lost on each link, and three clients whose reads observe random
/// updates of the register (or none).
fn random_trace(g: &ShareGraph, seed: u64) -> (Trace, Vec<SessionEvent>) {
    let p = g.placement();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    let mut sessions = Vec::new();
    let mut in_flight: Vec<(UpdateId, ReplicaId)> = Vec::new();
    let mut written: Vec<Vec<UpdateId>> = vec![Vec::new(); p.num_registers()];
    let steps = rng.gen_range(10..80usize);
    for _ in 0..steps {
        let client = ClientId::new(rng.gen_range(0..3u32));
        let reg = x(rng.gen_range(0..p.num_registers() as u32));
        if in_flight.is_empty() || rng.gen_bool(0.4) {
            let holders = p.holders(reg);
            let issuer = holders[rng.gen_range(0..holders.len())];
            let u = trace.record_issue(issuer, reg);
            in_flight.extend(holders.iter().filter(|&&h| h != issuer).map(|&h| (u, h)));
            written[reg.index()].push(u);
            sessions.push(SessionEvent::Write {
                client,
                update: u,
                register: reg,
            });
        } else {
            let (u, at) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
            if rng.gen_bool(0.9) {
                trace.record_apply(u, at);
            }
        }
        if rng.gen_bool(0.3) {
            let seen = &written[reg.index()];
            let observed = rng
                .gen_bool(0.9)
                .then(|| seen.get(rng.gen_range(0..seen.len() + 1)).copied())
                .flatten();
            sessions.push(SessionEvent::Read {
                client,
                register: reg,
                observed,
            });
        }
    }
    // Deliver most of what is left, in random order.
    while !in_flight.is_empty() {
        let (u, at) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
        if rng.gen_bool(0.9) {
            trace.record_apply(u, at);
        }
    }
    (trace, sessions)
}

fn placements() -> [ShareGraph; 3] {
    [
        topology::ring(5),
        topology::clique_full(4, 3),
        topology::grid(3, 2),
    ]
}

proptest! {
    /// Three random traces per case, one per placement: 300 at the
    /// default case count.
    #[test]
    fn random_traces_agree_with_the_reference(seed in 0u64..u64::MAX) {
        for g in placements() {
            let (trace, sessions) = random_trace(&g, seed);
            assert_agree(&trace, g.placement(), &sessions);
        }
    }
}

/// The random traces reach both violation kinds: most of them are
/// unsafe or not live, so the comparison covers the violation lists.
#[test]
fn random_traces_mostly_violate() {
    let (mut unsafe_, mut unlive, mut total) = (0, 0, 0);
    for seed in 0..40 {
        for g in placements() {
            let (trace, _) = random_trace(&g, seed);
            let report = prcc::checker::check(&trace, g.placement());
            unsafe_ += usize::from(report.safety_violations().next().is_some());
            unlive += usize::from(report.liveness_violations().next().is_some());
            total += 1;
        }
    }
    assert!(unsafe_ * 2 > total, "{unsafe_} of {total} unsafe");
    assert!(unlive * 2 > total, "{unlive} of {total} not live");
}

/// A seeded `System` run: random writers and registers, a few steps
/// between writes so updates overlap in flight.
fn system_run(
    g: &ShareGraph,
    tracker: TrackerKind,
    schedule: FaultSchedule,
    seed: u64,
) -> CheckReport {
    let mut sys = System::builder(g.clone())
        .tracker(tracker)
        .fault_schedule(schedule)
        .delay(DelayModel::Uniform { min: 1, max: 9 })
        .seed(seed)
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..60u64 {
        let i = r(rng.gen_range(0..g.num_replicas() as u32));
        let regs: Vec<RegisterId> = g.placement().registers_of(i).iter().collect();
        if regs.is_empty() {
            continue;
        }
        sys.write(i, regs[rng.gen_range(0..regs.len())], Value::from(k));
        for _ in 0..rng.gen_range(0..4u32) {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    let report = assert_agree(
        sys.trace(),
        sys.data_placement(),
        &replica_sessions(sys.trace()),
    );
    assert_eq!(report, sys.check());
    report
}

#[test]
fn system_traces_agree_with_the_reference() {
    let trackers = [
        TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE),
        TrackerKind::EdgeIndexed(LoopConfig::bounded(2)),
        TrackerKind::VectorClock,
        TrackerKind::FullDeps,
    ];
    let lossy = || FaultSchedule::from_plan(FaultPlan::dropping(0.2)).outage(r(0), r(1), 20, 120);
    let mut lost = 0;
    for g in [
        topology::ring(6),
        topology::binary_tree(7),
        topology::clique_full(4, 3),
    ] {
        for tracker in trackers {
            for seed in 0..2 {
                let clean = system_run(&g, tracker, FaultSchedule::none(), seed);
                if tracker == TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE) {
                    assert!(clean.is_consistent(), "{:?}", clean.violations);
                }
                let faulty = system_run(&g, tracker, lossy(), seed);
                lost += faulty.liveness_violations().count();
            }
        }
    }
    assert!(lost > 0, "drops without a session layer must lose updates");
}

/// Theorem 8's incident-edge case: replica 1 drops `e_01`, so both of
/// replica 0's updates stay pending there (as in `System`'s
/// `oblivious_replica_loses_consistency`).
#[test]
fn an_oblivious_replica_agrees_with_the_reference() {
    for seed in 0..10 {
        let mut sys = System::builder(topology::path(2))
            .drop_edge(r(1), EdgeId::new(r(0), r(1)))
            .delay(DelayModel::Uniform { min: 1, max: 100 })
            .seed(seed)
            .build();
        sys.write(r(0), x(0), Value::from(1u64));
        sys.write(r(0), x(0), Value::from(2u64));
        sys.run_to_quiescence();
        let report = assert_agree(sys.trace(), sys.data_placement(), &[]);
        assert_eq!(report.liveness_violations().count(), 2, "seed {seed}");
        assert_eq!(report.safety_violations().count(), 0, "seed {seed}");
    }
}

/// E8's adversarial ring: a loop cap of 3 edges misses the 8-hop
/// dependency chain, and replica 0 applies too early.
#[test]
fn a_truncated_tracker_agrees_with_the_reference() {
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
    let report = assert_agree(
        sys.trace(),
        sys.data_placement(),
        &replica_sessions(sys.trace()),
    );
    assert!(report.safety_violations().next().is_some(), "{report:?}");
}

/// `examples/hm_counterexample.rs`'s Figure 8b run, and Theorem 8's
/// far-edge run on a ring: replica `i` (replica 0 on the ring) drops an
/// edge the exact tracker keeps, and safety breaks.
#[test]
fn dropped_far_edges_agree_with_the_reference() {
    let mut sys = System::builder(figure8b())
        .delay(DelayModel::Fixed(1))
        .seed(0)
        .drop_edge(CE.i, EdgeId::new(CE.k, CE.j))
        .build();
    sys.hold_link(CE.k, CE.j);
    sys.write(CE.k, ce_regs::X, Value::from(1u64));
    for (who, reg) in [
        (CE.k, 6u32),
        (CE.a2, 7),
        (CE.a1, 5),
        (CE.i, 4),
        (CE.b2, 1),
        (CE.b1, 3),
    ] {
        sys.write(who, x(reg), Value::from(0u64));
        sys.run_to_quiescence();
    }
    sys.release_link(CE.k, CE.j);
    sys.run_to_quiescence();
    let report = assert_agree(
        sys.trace(),
        sys.data_placement(),
        &replica_sessions(sys.trace()),
    );
    assert!(report.safety_violations().next().is_some(), "{report:?}");

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
    let report = assert_agree(
        sys.trace(),
        sys.data_placement(),
        &replica_sessions(sys.trace()),
    );
    assert!(report.safety_violations().next().is_some(), "{report:?}");
}
