//! E13 (extension) — fault sweep: robustness cost of the session layer.
//!
//! The paper assumes reliable exactly-once channels; the session layer
//! (retransmission + WAL recovery + catch-up) re-establishes them on top
//! of lossy links and crashing replicas. This experiment sweeps drop
//! probability × crash count on a ring and measures what that costs:
//! retransmission overhead, duplicate suppression, visibility-latency
//! inflation, and restart-to-caught-up time — with the hard gate that
//! every swept cell still converges (zero stuck updates, checker-clean).

use crate::table::Experiment;
use prcc_net::{FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::{topology, ReplicaId};
use prcc_sim::{run_scenario, RunReport, ScenarioConfig, WorkloadConfig};

/// One swept cell: ring(`n`), `drop_prob` loss + light duplication, and
/// `crashes` crash/restart events at staggered times.
fn run_cell(n: usize, drop_prob: f64, crashes: usize, writes_per_replica: usize) -> RunReport {
    let mut faults = FaultSchedule::from_plan(FaultPlan {
        drop_prob,
        duplicate_prob: if drop_prob > 0.0 { 0.1 } else { 0.0 },
        ..Default::default()
    });
    for c in 0..crashes {
        // Spread crashes over distinct replicas and disjoint windows so
        // the cluster is never fully down.
        let r = ReplicaId::new(((1 + 2 * c) % n) as u32);
        let at = 200 + 700 * c as u64;
        faults = faults.crash(r, at, at + 400);
    }
    run_scenario(
        &topology::ring(n),
        &ScenarioConfig {
            workload: WorkloadConfig {
                writes_per_replica,
                zipf_theta: 0.0,
                seed: 13,
            },
            net_seed: 13,
            staleness_probes: 0,
            faults,
            session: Some(SessionConfig::default()),
            ..Default::default()
        },
    )
}

/// Runs E13.
pub fn run() -> Experiment {
    run_sized(8, 12)
}

/// [`run`] with explicit scale (quick CI mode uses a smaller sweep).
pub fn run_sized(n: usize, writes_per_replica: usize) -> Experiment {
    let mut e = Experiment::new(
        "E13",
        "Fault sweep: session-layer robustness cost (extension)",
        "For every drop rate \u{2264} 0.5 and up to 2 crash/restart events the \
         session layer restores convergence (zero stuck updates, checker \
         clean); retransmissions scale with the drop rate and catch-up \
         time stays bounded.",
        &[
            "drop",
            "crashes",
            "writes",
            "retransmits",
            "dup-suppressed",
            "vis p50",
            "vis p99",
            "catch-up p50",
            "catch-up max",
            "stuck",
            "consistent",
        ],
    );

    let mut fault_free_p99 = 0u64;
    for &drop in &[0.0, 0.1, 0.3, 0.5] {
        for crashes in 0usize..3 {
            let r = run_cell(n, drop, crashes, writes_per_replica);
            if drop == 0.0 && crashes == 0 {
                fault_free_p99 = r.p99_visibility;
            }
            e.row([
                format!("{drop:.1}"),
                crashes.to_string(),
                r.writes.to_string(),
                r.retransmits.to_string(),
                r.dup_suppressed.to_string(),
                r.p50_visibility.to_string(),
                r.p99_visibility.to_string(),
                r.catch_up_p50.to_string(),
                r.catch_up_max.to_string(),
                r.stuck_pending.to_string(),
                r.consistent.to_string(),
            ]);
            e.check(
                r.consistent && r.stuck_pending == 0,
                format!("drop={drop:.1} crashes={crashes} converges checker-clean"),
            );
            if drop == 0.0 && crashes == 0 {
                e.check(
                    r.retransmits == 0,
                    "fault-free run needs zero retransmissions",
                );
            }
            if drop >= 0.3 {
                e.check(
                    r.retransmits > 0,
                    format!("drop={drop:.1} actually exercises retransmission"),
                );
            }
        }
    }
    e.note(format!(
        "fault-free visibility p99 baseline: {fault_free_p99} ticks; \
         the remaining rows show the latency price of each fault mix"
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_converges_everywhere() {
        let e = run_sized(5, 4);
        assert!(e.verdict, "E13 verdict failed:\n{:?}", e.notes);
        assert_eq!(e.rows.len(), 12);
    }
}
