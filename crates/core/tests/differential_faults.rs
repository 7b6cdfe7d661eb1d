//! Differential testing of the fault-tolerance stack: a faulty network
//! healed by the session layer must be observationally equivalent to a
//! fault-free run.
//!
//! The oracle is the fault-free execution (no drops, no crashes, no
//! session layer). The subject runs the *same seeded workload* under a
//! generated [`FaultSchedule`] — probabilistic drops/duplications,
//! scripted healing partitions, and up to two crash/restart events —
//! with the session layer (retransmission + WAL recovery + catch-up)
//! switched on. Equivalence means:
//!
//! * the same set of issue/apply events (order may differ — faults
//!   reshuffle timing — so sets, not sequences, are compared);
//! * the same final store at every replica and register;
//! * the same (empty) causal-consistency violation list;
//! * zero stuck pending updates on both sides.
//!
//! Workloads are single-writer-per-register (the register's first
//! holder writes it) so the final store is schedule-independent, and
//! writes at a crashed replica are deferred until it restarts — the
//! per-issuer write order is preserved, which is all causal convergence
//! needs.
//!
//! Negative controls check the session layer is load-bearing: the same
//! schedules *without* it demonstrably lose updates or liveness.

use prcc_checker::Event;
use prcc_core::{System, TrackerKind, Value, WireMode};
use prcc_net::{DelayModel, FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_topology(sel: usize, n: usize) -> ShareGraph {
    match sel % 3 {
        0 => topology::ring(n),
        1 => topology::binary_tree(n),
        _ => topology::clique_full(n, 2),
    }
}

/// Derives a healing fault schedule from the knobs. Every injected fault
/// heals: outages end, crashed replicas restart, and probabilistic drops
/// are compensated by retransmission.
fn make_schedule(
    n: usize,
    drop_prob: f64,
    duplicate_prob: f64,
    crashes: usize,
    partition: bool,
    seed: u64,
) -> FaultSchedule {
    let mut s = FaultSchedule::from_plan(FaultPlan {
        drop_prob,
        duplicate_prob,
        ..Default::default()
    });
    if partition && n >= 2 {
        let a = ReplicaId::new((seed % n as u64) as u32);
        let b = ReplicaId::new(((seed / 3 + 1) % n as u64) as u32);
        if a != b {
            let from = 100 + (seed % 80);
            s = s.partition([a], [b], from, from + 350);
        }
    }
    let mut used = Vec::new();
    for c in 0..crashes {
        let r = ReplicaId::new(((seed / (7 + c as u64)) % n as u64) as u32);
        if used.contains(&r) {
            continue;
        }
        used.push(r);
        let at = 150 + (seed % 120) + 400 * c as u64;
        let restart = at + 250 + (seed % 200);
        s = s.crash(r, at, restart);
    }
    s
}

/// One deterministic run of the shared workload. `schedule`/`session`
/// select the faulty subject; `None`/`false` the fault-free oracle.
///
/// Single writer per register (its first holder); writes landing on a
/// crashed writer are deferred FIFO until it is back up, so every
/// issuer's write sequence is identical across the two runs.
fn run_one(
    g: &ShareGraph,
    tracker: TrackerKind,
    wire: WireMode,
    schedule: Option<&FaultSchedule>,
    session: bool,
    seed: u64,
) -> System {
    let mut b = System::builder(g.clone())
        .tracker(tracker)
        .wire_mode(wire)
        .delay(DelayModel::Uniform { min: 1, max: 200 })
        .seed(seed);
    if let Some(s) = schedule {
        b = b.fault_schedule(s.clone());
    }
    if session {
        b = b.session(SessionConfig::default());
    }
    let mut sys = b.build();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let n = g.num_replicas();
    let nregs = g.placement().num_registers();
    let writes = 4 * n as u64;
    let mut deferred: Vec<Vec<(RegisterId, u64)>> = vec![Vec::new(); n];
    for w in 0..writes {
        let x = RegisterId::new(rng.gen_range(0..nregs as u32));
        let writer = g.placement().holders(x)[0];
        if sys.is_crashed(writer) {
            deferred[writer.index()].push((x, w));
        } else {
            for (dx, dv) in deferred[writer.index()].split_off(0) {
                sys.write(writer, dx, Value::from(dv));
            }
            sys.write(writer, x, Value::from(w));
        }
        for _ in 0..rng.gen_range(0usize..4) {
            sys.step();
        }
    }
    // Play out the rest of the schedule (all crashes restart), then issue
    // any writes still parked behind a crash window.
    sys.run_to_quiescence();
    for (i, q) in deferred.iter_mut().enumerate() {
        let r = ReplicaId::new(i as u32);
        for (dx, dv) in q.split_off(0) {
            sys.write(r, dx, Value::from(dv));
        }
    }
    sys.run_to_quiescence();
    sys
}

/// Order-insensitive key for one trace event.
fn event_key(e: &Event) -> (u8, u32, u64, u32) {
    match *e {
        Event::Issue { update, register } => (0, update.issuer.raw(), update.seq, register.raw()),
        Event::Apply { update, at } => (1, update.issuer.raw(), update.seq, at.raw()),
    }
}

fn sorted_events(sys: &System) -> Vec<(u8, u32, u64, u32)> {
    let mut keys: Vec<_> = sys.trace().events().iter().map(event_key).collect();
    keys.sort_unstable();
    keys
}

/// The headline property: faulty + session ≡ fault-free.
fn assert_heals(
    g: &ShareGraph,
    tracker: TrackerKind,
    wire: WireMode,
    schedule: &FaultSchedule,
    seed: u64,
) {
    let oracle = run_one(g, tracker, wire, None, false, seed);
    let subject = run_one(g, tracker, wire, Some(schedule), true, seed);

    prop_assert!(subject.is_settled(), "faulty run failed to quiesce");
    prop_assert_eq!(
        sorted_events(&oracle),
        sorted_events(&subject),
        "event sets diverge under {:?}",
        schedule
    );
    for i in g.replicas() {
        for x in g.placement().registers_of(i).iter() {
            prop_assert_eq!(
                oracle.read(i, x),
                subject.read(i, x),
                "store mismatch at {:?} register {:?}",
                i,
                x
            );
        }
    }
    let (or, sr) = (oracle.check(), subject.check());
    prop_assert!(or.is_consistent(), "oracle itself inconsistent");
    prop_assert_eq!(or.violations, sr.violations);
    prop_assert_eq!(oracle.stuck_pending(), 0);
    prop_assert_eq!(subject.stuck_pending(), 0);
}

proptest! {
    /// Edge-indexed tracker under generated drop/dup/partition/crash
    /// schedules.
    #[test]
    fn faulty_session_matches_fault_free_edge_indexed(
        topo in 0usize..3,
        n in 3usize..7,
        drop_i in 0usize..4,
        crashes in 0usize..3,
        partition in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let drop_prob = [0.0, 0.15, 0.3, 0.5][drop_i];
        let s = make_schedule(n, drop_prob, 0.2, crashes, partition == 1, seed);
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        assert_heals(&g, tracker, WireMode::default(), &s, seed);
    }

    /// The baselines (vector clocks, full dependency lists) heal too.
    #[test]
    fn faulty_session_matches_fault_free_baselines(
        topo in 0usize..3,
        n in 3usize..6,
        vc in 0usize..2,
        drop_i in 0usize..3,
        crashes in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let drop_prob = [0.0, 0.2, 0.4][drop_i];
        let s = make_schedule(n, drop_prob, 0.1, crashes, true, seed);
        let tracker = if vc == 0 { TrackerKind::VectorClock } else { TrackerKind::FullDeps };
        assert_heals(&g, tracker, WireMode::default(), &s, seed);
    }

    /// The wire codec's FIFO delta framing must survive retransmission
    /// and crash/catch-up: both wire modes heal to the fault-free
    /// observables.
    #[test]
    fn faulty_session_matches_fault_free_wire_modes(
        topo in 0usize..3,
        n in 3usize..7,
        wire in 0usize..2,
        drop_i in 0usize..3,
        crashes in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let drop_prob = [0.0, 0.2, 0.4][drop_i];
        let s = make_schedule(n, drop_prob, 0.2, crashes, true, seed);
        let wire = [WireMode::Raw, WireMode::Compressed][wire];
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        assert_heals(&g, tracker, wire, &s, seed);
    }
}

/// Negative control: the same drop schedule *without* the session layer
/// loses messages for good — across seeds, some run must end with stuck
/// pending updates or missing applies. Otherwise the differential above
/// is vacuous.
#[test]
fn drops_without_session_lose_liveness() {
    let g = topology::ring(5);
    let mut damaged = 0;
    for seed in 0..12u64 {
        let s = FaultSchedule::from_plan(FaultPlan::dropping(0.4));
        let healthy = run_one(
            &g,
            TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            WireMode::default(),
            None,
            false,
            seed,
        );
        let faulty = run_one(
            &g,
            TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            WireMode::default(),
            Some(&s),
            false,
            seed,
        );
        if faulty.stuck_pending() > 0
            || sorted_events(&faulty).len() < sorted_events(&healthy).len()
        {
            damaged += 1;
        }
    }
    assert!(
        damaged > 0,
        "40% drop rate without a session layer never lost anything — negative control is vacuous"
    );
}

/// Negative control for crashes: a crash window without retransmission
/// permanently loses the in-flight updates addressed to the crashed
/// replica.
#[test]
fn crash_without_session_loses_updates() {
    let g = topology::ring(5);
    let mut damaged = 0;
    for seed in 0..12u64 {
        let s = FaultSchedule::default().crash(ReplicaId::new(2), 120, 600);
        let healthy = run_one(
            &g,
            TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            WireMode::default(),
            None,
            false,
            seed,
        );
        let faulty = run_one(
            &g,
            TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            WireMode::default(),
            Some(&s),
            false,
            seed,
        );
        if faulty.lost_to_crash() > 0
            && (faulty.stuck_pending() > 0
                || sorted_events(&faulty).len() < sorted_events(&healthy).len())
        {
            damaged += 1;
        }
    }
    assert!(
        damaged > 0,
        "crash without session never lost an update — negative control is vacuous"
    );
}

/// Non-vacuity of the positive property: on a scripted storm the session
/// machinery must actually engage (retransmissions, duplicate
/// suppression, catch-up), not merely be switched on.
#[test]
fn session_machinery_engages_under_storm() {
    let g = topology::ring(5);
    let s = FaultSchedule::from_plan(FaultPlan {
        drop_prob: 0.4,
        duplicate_prob: 0.3,
        ..Default::default()
    })
    .partition([ReplicaId::new(0)], [ReplicaId::new(2)], 100, 500)
    .crash(ReplicaId::new(3), 150, 700);
    let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
    let sys = run_one(&g, tracker, WireMode::default(), Some(&s), true, 7);
    assert!(sys.is_settled());
    assert!(sys.check().is_consistent());
    assert_eq!(sys.stuck_pending(), 0);
    let stats = sys.session_stats().expect("session enabled");
    assert!(stats.retransmits > 0, "storm caused no retransmissions");
    assert!(stats.delivered > 0);
    assert!(stats.catch_up_sent > 0, "restart sent no catch-up frames");
    assert!(
        !sys.catch_up_stats().is_empty(),
        "no catch-up latency recorded"
    );
}
