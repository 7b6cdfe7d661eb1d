//! Differential test: the sharded copy-on-write snapshot store against
//! the reference model of the `prcc-spec` crate, whose store is a plain
//! `BTreeMap`.
//!
//! The COW store is a pure representation change — publishes rebuild
//! only the shards touched since the last publish instead of cloning
//! the whole register map. Nothing observable may move: a single-writer
//! workload driven through a threaded cluster must end in the
//! reference's stores (value and provenance) on every replica, its
//! applied frontiers, its `covers()` verdicts over a grid of update ids,
//! and its clean causal-consistency verdict. The serving tier re-runs
//! its own session-guarantee checker.
//!
//! A separate non-vacuity test pins the mechanism itself: consecutive
//! published views of a many-register store must share the `Arc`s of
//! every shard the intervening writes did not touch — if that ever
//! degrades to cloning everything, the O(Δ) claim is silently gone and
//! this test, not a benchmark, catches it.

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

use prcc_core::{ClusterConfig, ThreadedCluster, Value};
use prcc_net::{DelayModel, FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
use prcc_sim::netrun::NetWorkload;
use prcc_sim::serving::{run_serving_scenario, ServingScenarioConfig};
use proptest::prelude::*;
use reference::Observed;

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

/// One deterministic single-writer run through a threaded cluster and
/// through the reference; the workload (and therefore the final store
/// on every replica) is a pure function of `g` and `rounds`,
/// independent of timing and healed faults. Returns both observations.
fn run_one(
    g: &ShareGraph,
    rounds: u64,
    seed: u64,
    schedule: FaultSchedule,
    session: Option<SessionConfig>,
) -> (Observed, Observed) {
    let cluster = ThreadedCluster::with_config(
        g.clone(),
        DelayModel::Fixed(1),
        seed,
        ClusterConfig {
            schedule,
            session,
            ..Default::default()
        },
    );
    let wl = NetWorkload::new(g, rounds);
    wl.drive(&cluster);
    cluster.settle();
    let (spec, max_seq) = reference::single_writer_reference(g, wl.writes());
    let subject = Observed::of_cluster(&cluster, g, max_seq);
    cluster.shutdown();
    (subject, Observed::of_spec(&spec, g, max_seq))
}

/// Runs the workload through a COW cluster and asserts it observes
/// exactly the reference's clean final state.
fn assert_modes_agree(
    g: &ShareGraph,
    rounds: u64,
    seed: u64,
    schedule: &FaultSchedule,
    session: Option<SessionConfig>,
) {
    let (subject, oracle) = run_one(g, rounds, seed, schedule.clone(), session);
    assert!(oracle.consistent, "reference trace inconsistent");
    assert_eq!(subject, oracle, "Cow diverged from the reference");
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
    /// COW store observes the same world as the reference.
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
        let (subject, oracle) = run_one(&g, rounds, seed, FaultSchedule::none(), None);
        prop_assert!(oracle.consistent, "reference trace inconsistent");
        prop_assert_eq!(subject, oracle, "Cow diverged from the reference");
    }
}

/// The serving tier's own check, judged by the causal-consistency
/// check *and* the session guarantee checker: COW must not open a
/// window where a completed write is invisible to its own session (the
/// checker counts that as a read-your-writes violation).
#[test]
fn serving_session_guarantees_hold() {
    let report = run_serving_scenario(
        &topology::clique_full(4, 8),
        &ServingScenarioConfig {
            sessions: 16,
            ops_per_session: 25,
            workers: 4,
            write_ratio: 0.4,
            zipf_theta: 0.9,
            seed: 17,
            ..Default::default()
        },
    );
    assert!(report.consistent, "trace inconsistent: {report}");
    assert_eq!(
        report.session_violations, 0,
        "session guarantees violated: {report}"
    );
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
        .expect("views are sharded");
    assert!(total >= 64, "2048 registers must spread over many shards");
    assert!(
        aliased >= total - 1,
        "one write may dirty one shard, yet only {aliased}/{total} aliased"
    );
    assert!(aliased < total, "the written shard must have been rebuilt");
    cluster.shutdown();
}

/// Read-your-writes across the burst-publish path: a write call must
/// never return before the publish that makes the write visible.
/// Every `write` and every id of a `write_burst` must be covered by the
/// very next snapshot taken, with concurrent writers hammering the same
/// replicas.
#[test]
fn completed_writes_are_immediately_visible() {
    let g = topology::clique_full(3, 16);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(1), 5);
    std::thread::scope(|scope| {
        for r in g.replicas() {
            let cluster = &cluster;
            scope.spawn(move || {
                for i in 0..40u64 {
                    let x = RegisterId::new((i % 16) as u32);
                    let uid = cluster.write(r, x, Value::from(i));
                    assert!(
                        cluster.store_snapshot(r).covers(uid),
                        "write token escaped before its publish"
                    );
                }
                let burst: Vec<_> = (0..16u32)
                    .map(|j| (RegisterId::new(j), Value::from(u64::from(j) + 100)))
                    .collect();
                let ids = cluster.write_burst(r, &burst);
                let view = cluster.store_snapshot(r);
                for uid in ids {
                    assert!(view.covers(uid), "burst token escaped before its publish");
                }
            });
        }
    });
    cluster.settle();
    assert!(cluster.check().is_consistent());
    cluster.shutdown();
}
