//! Differential test: the sharded copy-on-write snapshot store against
//! the clone-the-world oracle (`StoreMode::Clone`).
//!
//! The COW store is a pure representation change — publishes rebuild
//! only the shards touched since the last publish instead of cloning
//! the whole register map. Nothing observable may move: the same
//! single-writer workload driven through both modes must end in
//! byte-identical canonical stores on every replica, identical applied frontiers,
//! identical `covers()` verdicts over a grid of update ids, and the same
//! clean causal-consistency verdict. The serving tier re-runs its own
//! session-guarantee checker under both modes.
//!
//! A separate non-vacuity test pins the mechanism itself: consecutive
//! published views of a many-register store must share the `Arc`s of
//! every shard the intervening writes did not touch — if that ever
//! degrades to cloning everything, the O(Δ) claim is silently gone and
//! this test, not a benchmark, catches it.

use prcc_checker::UpdateId;
use prcc_core::{ClusterConfig, StoreMode, ThreadedCluster, Value};
use prcc_net::{DelayModel, FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
use prcc_sim::netrun::{store_lines, NetWorkload};
use prcc_sim::serving::{run_serving_scenario, ServingScenarioConfig};
use proptest::prelude::*;

/// Everything observable about a finished run, canonicalised for
/// cross-mode comparison.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Per-replica canonical store lines (value + provenance, sorted).
    stores: Vec<Vec<String>>,
    /// Per-replica applied frontiers.
    frontiers: Vec<Vec<u64>>,
    /// Per-replica `covers()` verdicts over a fixed grid of update ids.
    covers: Vec<Vec<bool>>,
    /// Causal-consistency verdict of the merged trace.
    consistent: bool,
}

/// Fast session config for `DelayModel::Fixed(1)` runs: round trips are
/// a few 200 µs ticks, so retransmission can be aggressive without
/// spurious resends dominating the run.
fn quick_session() -> SessionConfig {
    SessionConfig {
        rto_base: 40,
        rto_max: 320,
        jitter: 4,
        ack_delay: 0,
    }
}

/// One deterministic single-writer run; the workload (and therefore the
/// final store on every replica) is a pure function of `g` and
/// `rounds`, independent of mode, timing, and healed faults.
fn run_one(
    g: &ShareGraph,
    rounds: u64,
    seed: u64,
    store: StoreMode,
    schedule: FaultSchedule,
    session: Option<SessionConfig>,
) -> Observed {
    let cluster = ThreadedCluster::with_config(
        g.clone(),
        DelayModel::Fixed(1),
        seed,
        ClusterConfig {
            store,
            schedule,
            session,
            ..Default::default()
        },
    );
    let wl = NetWorkload::new(g, rounds);
    wl.drive(&cluster);
    cluster.settle();

    // Grid of update ids for covers(): every issuer crossed with every
    // seq up to one past the largest any workload issuer can reach.
    let max_seq = g
        .replicas()
        .map(|r| wl.registers_of(r).len() as u64 * rounds)
        .max()
        .unwrap_or(0);
    let mut stores = Vec::new();
    let mut frontiers = Vec::new();
    let mut covers = Vec::new();
    for r in g.replicas() {
        let view = cluster.store_snapshot(r);
        stores.push(store_lines(&view));
        frontiers.push(view.frontier().to_vec());
        let mut verdicts = Vec::new();
        for issuer in g.replicas() {
            for seq in 0..=max_seq + 1 {
                verdicts.push(view.covers(UpdateId { issuer, seq }));
            }
        }
        covers.push(verdicts);
    }
    let consistent = cluster.check().is_consistent();
    cluster.shutdown();
    Observed {
        stores,
        frontiers,
        covers,
        consistent,
    }
}

/// Runs the same workload through Clone and COW and asserts both
/// observations are identical and consistent.
fn assert_modes_agree(
    g: &ShareGraph,
    rounds: u64,
    seed: u64,
    schedule: &FaultSchedule,
    session: Option<SessionConfig>,
) {
    let oracle = run_one(g, rounds, seed, StoreMode::Clone, schedule.clone(), session);
    assert!(oracle.consistent, "clone-mode oracle trace inconsistent");
    let subject = run_one(g, rounds, seed, StoreMode::Cow, schedule.clone(), session);
    assert_eq!(subject, oracle, "Cow diverged from the clone oracle");
}

#[test]
fn ring_benign_modes_agree() {
    let g = topology::ring(5);
    assert_modes_agree(&g, 3, 11, &FaultSchedule::none(), None);
}

#[test]
fn clique_benign_modes_agree() {
    let g = topology::clique_full(4, 24);
    assert_modes_agree(&g, 2, 7, &FaultSchedule::none(), None);
}

#[test]
fn ring_with_drops_and_session_modes_agree() {
    let g = topology::ring(4);
    let schedule = FaultSchedule::from_plan(FaultPlan::dropping(0.25));
    assert_modes_agree(&g, 3, 23, &schedule, Some(quick_session()));
}

#[test]
fn clique_with_outage_and_session_modes_agree() {
    let g = topology::clique_full(4, 12);
    let schedule = FaultSchedule::none()
        .outage(ReplicaId::new(0), ReplicaId::new(1), 20, 300)
        .outage(ReplicaId::new(2), ReplicaId::new(3), 50, 250);
    assert_modes_agree(&g, 2, 31, &schedule, Some(quick_session()));
}

proptest! {
    /// Benign runs across graph shapes, sizes, rounds and seeds: the
    /// COW store observes the same world as the clone oracle.
    #[test]
    fn modes_agree_across_workloads(
        ring in 0usize..2,
        n in 3usize..6,
        registers in 4usize..32,
        rounds in 1u64..3,
        seed in 0u64..1_000,
    ) {
        let g = if ring == 1 {
            topology::ring(n)
        } else {
            topology::clique_full(n, registers)
        };
        let oracle = run_one(&g, rounds, seed, StoreMode::Clone, FaultSchedule::none(), None);
        prop_assert!(oracle.consistent, "clone-mode oracle trace inconsistent");
        let subject = run_one(&g, rounds, seed, StoreMode::Cow, FaultSchedule::none(), None);
        prop_assert_eq!(subject, oracle, "Cow diverged from the clone oracle");
    }
}

/// The serving tier's own differential: identical scenario, both store
/// modes, judged by the causal-consistency check *and* the session
/// guarantee checker. COW must not open a window where a completed
/// write is invisible to its own session (the checker counts that as a
/// read-your-writes violation).
#[test]
fn serving_session_guarantees_hold_in_both_modes() {
    for store in [StoreMode::Clone, StoreMode::Cow] {
        let report = run_serving_scenario(
            &topology::clique_full(4, 8),
            &ServingScenarioConfig {
                sessions: 16,
                ops_per_session: 25,
                workers: 4,
                write_ratio: 0.4,
                zipf_theta: 0.9,
                seed: 17,
                store,
                ..Default::default()
            },
        );
        assert!(report.consistent, "{store:?}: trace inconsistent: {report}");
        assert_eq!(
            report.session_violations, 0,
            "{store:?}: session guarantees violated: {report}"
        );
    }
}

/// Non-vacuity: consecutive publishes of a many-register store must
/// alias (share `Arc`s for) every shard the intervening write did not
/// touch. A single write can dirty at most one shard, so at least
/// `total - 1` of the shards must be pointer-identical across the two
/// views — this is the O(Δ) mechanism itself, not a proxy metric.
#[test]
fn consecutive_publishes_alias_unchanged_shards() {
    let g = topology::clique_full(2, 2048);
    let cluster = ThreadedCluster::new(g, DelayModel::Fixed(1), 3);
    let r0 = ReplicaId::new(0);
    cluster.write(r0, RegisterId::new(0), Value::from(1u64));
    cluster.settle();
    let before = cluster.store_snapshot(r0);
    cluster.write(r0, RegisterId::new(1), Value::from(2u64));
    cluster.settle();
    let after = cluster.store_snapshot(r0);
    let (aliased, total) = after
        .shards_shared_with(&before)
        .expect("default mode publishes sharded views");
    assert!(total >= 64, "2048 registers must spread over many shards");
    assert!(
        aliased >= total - 1,
        "one write may dirty one shard, yet only {aliased}/{total} aliased"
    );
    assert!(aliased < total, "the written shard must have been rebuilt");
    cluster.shutdown();
}

/// Clone-mode views are flat maps — the aliasing probe reports `None`
/// rather than a vacuously passing (0, 0).
#[test]
fn clone_mode_views_do_not_alias() {
    let g = topology::clique_full(2, 64);
    let cluster = ThreadedCluster::with_config(
        g,
        DelayModel::Fixed(1),
        4,
        ClusterConfig {
            store: StoreMode::Clone,
            ..Default::default()
        },
    );
    let r0 = ReplicaId::new(0);
    cluster.write(r0, RegisterId::new(0), Value::from(9u64));
    cluster.settle();
    let a = cluster.store_snapshot(r0);
    cluster.write(r0, RegisterId::new(1), Value::from(10u64));
    cluster.settle();
    let b = cluster.store_snapshot(r0);
    assert_eq!(b.shards_shared_with(&a), None);
    cluster.shutdown();
}

/// Read-your-writes across the burst-publish path: a write call must
/// never return before the publish that makes the write visible.
/// Every `write` and every id of a `write_burst` must be covered by the
/// very next snapshot taken — under both store modes, with concurrent
/// writers hammering the same replicas.
#[test]
fn completed_writes_are_immediately_visible() {
    for store in [StoreMode::Cow, StoreMode::Clone] {
        let g = topology::clique_full(3, 16);
        let cluster = ThreadedCluster::with_config(
            g.clone(),
            DelayModel::Fixed(1),
            5,
            ClusterConfig {
                store,
                ..Default::default()
            },
        );
        std::thread::scope(|scope| {
            for r in g.replicas() {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let x = RegisterId::new((i % 16) as u32);
                        let uid = cluster.write(r, x, Value::from(i));
                        assert!(
                            cluster.store_snapshot(r).covers(uid),
                            "{store:?}: write token escaped before its publish"
                        );
                    }
                    let burst: Vec<_> = (0..16u32)
                        .map(|j| (RegisterId::new(j), Value::from(u64::from(j) + 100)))
                        .collect();
                    let ids = cluster.write_burst(r, &burst);
                    let view = cluster.store_snapshot(r);
                    for uid in ids {
                        assert!(
                            view.covers(uid),
                            "{store:?}: burst token escaped before its publish"
                        );
                    }
                });
            }
        });
        cluster.settle();
        assert!(cluster.check().is_consistent());
        cluster.shutdown();
    }
}
