//! Chaos harness: seeded crash / drop / flap storms driven under a live
//! serving workload, judged differentially.
//!
//! Every storm is a deterministic [`FaultSchedule`] (ticks are 200 µs of
//! wall clock on the threaded cluster), and every run is held to the
//! same three verdicts:
//!
//! * zero session-guarantee violations among the *acked* ops — faults
//!   may fail operations, never corrupt the ones that succeeded;
//! * zero acked-write loss — acked ⇒ durable ⇒ survives into every
//!   holder's converged final store;
//! * a consistent causal trace after the cluster settles.
//!
//! A fault-free control asserts the resilience machinery is pay-for-use:
//! no failovers, no shedding, no timeouts, every op acked.

use prcc_net::{FaultPlan, FaultSchedule};
use prcc_sharegraph::{topology, ReplicaId};
use prcc_sim::serving::{run_serving_scenario, ServingScenarioConfig};

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

/// Every storm run must satisfy the acked-op contract, whatever the
/// schedule did to individual operations.
fn assert_acked_contract(report: &prcc_sim::serving::ServingRunReport) {
    assert!(report.consistent, "causal trace inconsistent: {report}");
    assert_eq!(
        report.session_violations, 0,
        "session guarantees violated among acked ops: {report}"
    );
    assert_eq!(
        report.acked_write_loss, 0,
        "acked write missing from a holder's final store: {report}"
    );
}

#[test]
fn clique_crash_storm_serves_through_failover() {
    // Two staggered crashes on a clique: r0 goes down almost immediately
    // and stays down well past the workload's start; r2 follows while r0
    // is still out. Registers held by {r0, r2} lose every holder during
    // the overlap — ops against them block and resume after restart.
    let faults = FaultSchedule::none()
        .crash(r(0), 5, 400)
        .crash(r(2), 100, 500);
    let report = run_serving_scenario(
        &topology::clique_full(4, 2),
        &ServingScenarioConfig {
            sessions: 64,
            ops_per_session: 60,
            workers: 4,
            write_ratio: 0.3,
            zipf_theta: 1.0,
            seed: 13,
            faults,
            durability: Some(8),
            ..Default::default()
        },
    );
    assert_acked_contract(&report);
    assert_eq!(report.restarts, 2, "{report}");
    assert!(
        report.stats.failovers > 0,
        "no session failed over to a live holder: {report}"
    );
    assert!(
        report.availability > 0.5,
        "storm degraded more than half the ops: {report}"
    );
    assert_eq!(report.ops + report.failed, report.attempted, "{report}");
}

#[test]
fn ring_drop_and_flap_storm_loses_nothing() {
    // Probabilistic loss on every link plus a scripted flap and a healed
    // outage. No replica dies, so nothing is shed or abandoned: the
    // session layer repairs every loss and all ops must ack.
    let faults = FaultSchedule::from_plan(FaultPlan::dropping(0.4))
        .flap(r(1), r(2), 0, 40, 40, 4)
        .sever(r(4), r(5), 50, 250);
    let report = run_serving_scenario(
        &topology::ring(6),
        &ServingScenarioConfig {
            sessions: 32,
            ops_per_session: 40,
            workers: 4,
            write_ratio: 0.3,
            zipf_theta: 0.5,
            seed: 29,
            faults,
            ..Default::default()
        },
    );
    assert_acked_contract(&report);
    assert_eq!(report.restarts, 0, "{report}");
    assert_eq!(
        report.ops, report.attempted,
        "drops must delay ops, not fail them: {report}"
    );
    assert_eq!(report.availability, 1.0, "{report}");
}

#[test]
fn write_heavy_storm_with_aggressive_compaction_double_applies_nothing() {
    // Restart in the middle of a write storm
    // with the recovery log compacting every couple of updates. The same
    // replica crashes twice, so recovery runs from a freshly compacted
    // snapshot both times. A double-applied replayed write breaks the
    // causal trace; a dropped acked write breaks the durability gate —
    // both verdicts must stay clean.
    let faults = FaultSchedule::none()
        .crash(r(1), 5, 150)
        .crash(r(1), 300, 450);
    let report = run_serving_scenario(
        &topology::clique_full(4, 2),
        &ServingScenarioConfig {
            sessions: 48,
            ops_per_session: 50,
            workers: 4,
            write_ratio: 0.8,
            zipf_theta: 1.0,
            seed: 71,
            faults,
            durability: Some(2),
            ..Default::default()
        },
    );
    assert_acked_contract(&report);
    assert_eq!(report.restarts, 2, "{report}");
    assert!(report.availability > 0.5, "{report}");
}

#[test]
fn fault_free_control_run_pays_nothing_for_resilience() {
    let report = run_serving_scenario(
        &topology::clique_full(4, 2),
        &ServingScenarioConfig {
            sessions: 32,
            ops_per_session: 40,
            workers: 4,
            write_ratio: 0.3,
            zipf_theta: 1.0,
            seed: 13,
            ..Default::default()
        },
    );
    assert_acked_contract(&report);
    assert_eq!(report.ops, 32 * 40, "{report}");
    assert_eq!(report.attempted, 32 * 40, "{report}");
    assert_eq!(report.availability, 1.0, "{report}");
    assert_eq!(report.stats.failovers, 0, "{report}");
    assert_eq!(report.stats.ops_shed, 0, "{report}");
    assert_eq!(report.stats.op_timeouts, 0, "{report}");
    assert_eq!(report.stats.writes_abandoned, 0, "{report}");
    assert_eq!(report.restarts, 0, "{report}");
    assert_eq!(report.failover_p50_ns, 0, "{report}");
}

#[test]
fn storms_are_deterministic_in_their_verdicts() {
    // The same seed and schedule must reproduce the same acked-op
    // contract — the property that makes a chaos failure debuggable.
    let mk = || {
        run_serving_scenario(
            &topology::ring(5),
            &ServingScenarioConfig {
                sessions: 20,
                ops_per_session: 30,
                workers: 2,
                write_ratio: 0.4,
                zipf_theta: 0.8,
                seed: 99,
                faults: FaultSchedule::from_plan(FaultPlan::dropping(0.25)).crash(r(2), 10, 300),
                durability: Some(4),
                ..Default::default()
            },
        )
    };
    let a = mk();
    let b = mk();
    assert_acked_contract(&a);
    assert_acked_contract(&b);
    assert_eq!(a.restarts, 1, "{a}");
    assert_eq!(b.restarts, 1, "{b}");
    // Thread scheduling may shift which ops land where, but the
    // contract verdicts and the schedule's shape are stable.
    assert_eq!(
        (a.consistent, a.session_violations, a.acked_write_loss),
        (b.consistent, b.session_violations, b.acked_write_loss)
    );
}
