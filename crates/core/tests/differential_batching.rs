//! Differential testing of the batched update pipeline: a system running
//! a coalescing [`BatchPolicy`] must be observationally equivalent to the
//! per-update (singleton-batch) oracle.
//!
//! The oracle runs [`BatchPolicy::unbatched`] — every update ships
//! immediately as a singleton batch, byte-identical to the pre-batching
//! wire. The subject runs the *same seeded workload* under a randomly
//! drawn policy (counts down to 1, byte caps) and pass shape (writes
//! issued in bursts of 1, 3 or 8 between steps — the writes of one burst
//! share the batches the next step ships), across ring/tree/clique
//! topologies, all three trackers, both wire modes, both pending
//! schedulers, and generated fault schedules with the session layer
//! healing them. Equivalence means:
//!
//! * the same multiset of issue/apply events;
//! * the same final store at every replica and register;
//! * the same per-replica timestamp shapes;
//! * the same (empty) causal-consistency violation list;
//! * zero stuck pending updates on both sides.
//!
//! A non-vacuity check asserts the receiver-side once-per-batch fast
//! path actually engages on a batched run — otherwise the differential
//! would only ever exercise the per-message fallback.

use prcc_checker::Event;
use prcc_core::{BatchPolicy, PendingMode, System, TrackerKind, Value, WireMode};
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

fn make_schedule(
    n: usize,
    drop_prob: f64,
    crashes: usize,
    partition: bool,
    seed: u64,
) -> FaultSchedule {
    let mut s = FaultSchedule::from_plan(FaultPlan {
        drop_prob,
        duplicate_prob: 0.15,
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

/// One deterministic run of the shared workload under `policy`, its
/// writes issued in bursts of `burst` between steps. Single writer per
/// register (its first holder), writes at a crashed writer deferred
/// FIFO — the same discipline as the fault-stack differential, so the
/// final state is schedule-independent.
#[allow(clippy::too_many_arguments)]
fn run_one(
    g: &ShareGraph,
    tracker: TrackerKind,
    mode: PendingMode,
    wire: WireMode,
    policy: BatchPolicy,
    burst: u64,
    schedule: Option<&FaultSchedule>,
    session: bool,
    seed: u64,
) -> System {
    let mut b = System::builder(g.clone())
        .tracker(tracker)
        .pending_mode(mode)
        .wire_mode(wire)
        .batch_policy(policy)
        .delay(DelayModel::Uniform { min: 1, max: 200 })
        .seed(seed);
    if let Some(s) = schedule {
        b = b.fault_schedule(s.clone());
    }
    if session {
        b = b.session(SessionConfig::default());
    }
    let mut sys = b.build();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
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
        // Drawn on every write, so each burst size issues the same writes.
        let steps = rng.gen_range(0usize..4);
        if (w + 1) % burst == 0 {
            for _ in 0..steps {
                sys.step();
            }
        }
    }
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

/// The headline property: drawn policy ≡ singleton oracle, both
/// driven in the same pass shape.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent(
    g: &ShareGraph,
    tracker: TrackerKind,
    mode: PendingMode,
    wire: WireMode,
    policy: BatchPolicy,
    burst: u64,
    schedule: Option<&FaultSchedule>,
    session: bool,
    seed: u64,
) {
    let oracle = run_one(
        g,
        tracker,
        mode,
        wire,
        BatchPolicy::unbatched(),
        burst,
        schedule,
        session,
        seed,
    );
    let subject = run_one(
        g, tracker, mode, wire, policy, burst, schedule, session, seed,
    );

    prop_assert!(subject.is_settled(), "batched run failed to quiesce");
    prop_assert_eq!(
        sorted_events(&oracle),
        sorted_events(&subject),
        "event multisets diverge under {:?} in bursts of {}",
        policy,
        burst
    );
    for i in g.replicas() {
        for x in g.placement().registers_of(i).iter() {
            prop_assert_eq!(
                oracle.read(i, x),
                subject.read(i, x),
                "store mismatch at {:?} register {:?} under {:?}",
                i,
                x,
                policy
            );
        }
    }
    // Timestamp shapes are structural (graph-determined) for the edge and
    // vector trackers, so they must match exactly. FullDeps' counter is
    // the size of the accumulated causal-past set, which legitimately
    // varies with delivery *timing* (coalescing shifts when an issuer has
    // applied what), so it is excluded from the observable set.
    if !matches!(tracker, TrackerKind::FullDeps) {
        prop_assert_eq!(oracle.timestamp_counters(), subject.timestamp_counters());
    }
    let (or, sr) = (oracle.check(), subject.check());
    prop_assert!(or.is_consistent(), "oracle itself inconsistent");
    prop_assert_eq!(or.violations, sr.violations);
    prop_assert_eq!(oracle.stuck_pending(), 0);
    prop_assert_eq!(subject.stuck_pending(), 0);
}

fn draw_policy(count_i: usize, bytes_i: usize) -> BatchPolicy {
    BatchPolicy {
        batch_count: [1, 2, 4, 8, 16][count_i],
        batch_bytes: [64, 512, 1 << 20][bytes_i],
    }
}

/// Writes issued between steps: one pass's worth.
const BURSTS: [u64; 3] = [1, 3, 8];

proptest! {
    /// Fault-free, sessionless: batching alone must not change any
    /// observable, for every tracker × wire mode × pending scheduler.
    #[test]
    fn batched_matches_unbatched_fault_free(
        topo in 0usize..3,
        n in 3usize..7,
        tracker_sel in 0usize..3,
        pm in 0usize..2,
        wire in 0usize..2,
        count_i in 0usize..5,
        bytes_i in 0usize..3,
        burst_i in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let tracker = match tracker_sel {
            0 => TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE),
            1 => TrackerKind::VectorClock,
            _ => TrackerKind::FullDeps,
        };
        // Baselines ship raw metadata regardless of wire mode; only the
        // edge-indexed tracker exercises compression.
        let wire = match tracker {
            TrackerKind::EdgeIndexed(_) => [WireMode::Raw, WireMode::Compressed][wire],
            _ => WireMode::Raw,
        };
        let mode = if pm == 0 { PendingMode::Scan } else { PendingMode::Wakeup };
        let policy = draw_policy(count_i, bytes_i);
        assert_equivalent(&g, tracker, mode, wire, policy, BURSTS[burst_i], None, false, seed);
    }

    /// Under fault schedules healed by the session layer: batching and
    /// the reliability machinery (retransmission of whole batches,
    /// crashes that ship the open batches, catch-up) must still converge
    /// to the singleton oracle's observables.
    #[test]
    fn batched_matches_unbatched_under_faults(
        topo in 0usize..3,
        n in 3usize..7,
        wire in 0usize..2,
        count_i in 0usize..5,
        bytes_i in 0usize..3,
        burst_i in 0usize..3,
        drop_i in 0usize..3,
        crashes in 0usize..3,
        partition in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let g = build_topology(topo, n);
        let drop_prob = [0.0, 0.2, 0.4][drop_i];
        let s = make_schedule(n, drop_prob, crashes, partition == 1, seed);
        let wire = [WireMode::Raw, WireMode::Compressed][wire];
        let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
        let policy = draw_policy(count_i, bytes_i);
        let burst = BURSTS[burst_i];
        assert_equivalent(
            &g, tracker, PendingMode::default(), wire, policy, burst, Some(&s), true, seed,
        );
    }
}

/// Non-vacuity: a bursty single-writer workload on a coalescing policy
/// must actually drive the receiver's once-per-batch fast path — the
/// differential is meaningless if every batch falls back to the
/// per-message loop.
#[test]
fn batch_fast_path_engages() {
    let g = topology::ring(4);
    let mut sys = System::builder(g)
        .batch_policy(BatchPolicy {
            batch_count: 8,
            batch_bytes: 1 << 20,
        })
        .delay(DelayModel::Fixed(1))
        .seed(3)
        .build();
    for round in 0..32u64 {
        sys.write(ReplicaId::new(0), RegisterId::new(0), Value::from(round));
    }
    sys.run_to_quiescence();
    assert!(sys.is_settled());
    assert!(sys.check().is_consistent());
    let fast: u64 = (0..4)
        .map(|i| sys.replica(ReplicaId::new(i)).batch_fast_applies())
        .sum();
    assert!(
        fast > 0,
        "no batch took the fast path — the batched differential only tests the fallback"
    );
    assert_eq!(
        sys.read(ReplicaId::new(1), RegisterId::new(0)),
        Some(&Value::from(31u64))
    );
}

/// A crash ends its replica's pass: the engine ships every open batch
/// (outbox entry, then frame) before it goes down, so nothing acked is
/// lost with volatile sender state, and the batched subject equals the
/// oracle. The writes of the first burst precede the first step, so the
/// crash at instant 0 lands on whatever batches replica 2 opened in it;
/// the one at 120 lands mid-workload.
#[test]
fn a_crash_ships_its_open_batches_and_stays_equivalent() {
    let g = topology::ring(5);
    for seed in 0..8u64 {
        for at in [0, 120] {
            let s = FaultSchedule::default().crash(ReplicaId::new(2), at, at + 480);
            let tracker = TrackerKind::EdgeIndexed(prcc_sharegraph::LoopConfig::EXHAUSTIVE);
            let run = |policy| {
                run_one(
                    &g,
                    tracker,
                    PendingMode::default(),
                    WireMode::default(),
                    policy,
                    3,
                    Some(&s),
                    true,
                    seed,
                )
            };
            let oracle = run(BatchPolicy::unbatched());
            let subject = run(BatchPolicy {
                batch_count: 16,
                batch_bytes: 1 << 20,
            });
            assert!(subject.is_settled(), "seed {seed}, crash at {at}");
            assert_eq!(
                sorted_events(&oracle),
                sorted_events(&subject),
                "seed {seed}, crash at {at}"
            );
            assert_eq!(subject.stuck_pending(), 0, "seed {seed}, crash at {at}");
            assert!(
                subject.check().is_consistent(),
                "seed {seed}, crash at {at}"
            );
            // Fewer first transmissions than per-update sends: some frame
            // carried two or more updates.
            let m = subject.metrics();
            let frames = subject
                .session_stats()
                .expect("session layer is on")
                .data_sent;
            assert!(
                frames < m.data_messages + m.meta_messages,
                "seed {seed}, crash at {at}: nothing coalesced"
            );
        }
    }
}
