//! Serving-tier scenario runner: drive Zipf-skewed open-loop client
//! sessions through a [`ServingTier`] over a [`ThreadedCluster`], measure
//! client-visible latency and aggregate throughput, and verify both the
//! causal-consistency and session-guarantee verdicts from the trace.
//!
//! The same generated op streams can be replayed against the lockstep
//! [`ClientServerSystem`] with identical
//! routing ([`run_serving_oracle`]) — the differential oracle for the
//! threaded tier.

use prcc_checker::HbGraph;
use prcc_core::client_server::ClientServerSystem;
use prcc_core::serving::{route, Collected, ServingConfig, ServingTier};
use prcc_core::{ClusterConfig, ThreadedCluster, Value};
use prcc_net::{DelayModel, FaultSchedule, SessionConfig, TICK};
use prcc_sharegraph::{AugmentedShareGraph, ClientAssignment, ClientId, RegisterId, ShareGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

use crate::zipf::Zipf;

/// Configuration of a serving-tier scenario.
#[derive(Debug, Clone)]
pub struct ServingScenarioConfig {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Ops issued per session.
    pub ops_per_session: usize,
    /// Fraction of ops that are writes.
    pub write_ratio: f64,
    /// Zipf skew of register popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Driver threads; sessions are partitioned round-robin across them
    /// (a session is always driven by one worker, preserving its service
    /// order).
    pub workers: usize,
    /// Workload / cluster seed.
    pub seed: u64,
    /// Tier tuning.
    pub serving: ServingConfig,
    /// Scripted faults driven against the live cluster: drops and
    /// duplicates via the embedded plan, link outages, and crash/restart
    /// windows. Default: benign.
    pub faults: FaultSchedule,
    /// Reliable-delivery session layer (required for convergence under
    /// drops, outages, or crash windows). `None` with a non-benign fault
    /// schedule auto-arms a fast configuration tuned to the runner's
    /// fixed 1-tick delay model.
    pub session: Option<SessionConfig>,
    /// Arms per-replica durable recovery logs with this compaction
    /// interval — required when `faults` scripts crashes.
    pub durability: Option<usize>,
}

impl Default for ServingScenarioConfig {
    fn default() -> Self {
        ServingScenarioConfig {
            sessions: 64,
            ops_per_session: 50,
            write_ratio: 0.1,
            zipf_theta: 1.0,
            workers: 4,
            seed: 0,
            serving: ServingConfig::default(),
            faults: FaultSchedule::default(),
            session: None,
            durability: None,
        }
    }
}

/// One generated session op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// Write this register with this value.
    Write(RegisterId, Value),
    /// Read this register.
    Read(RegisterId),
}

/// Generates every session's op stream deterministically from the
/// config: register popularity is Zipf-skewed over the whole register
/// space, and each session's stream is seeded independently, so the
/// threaded tier and the lockstep oracle replay *identical* workloads.
pub fn generate_session_ops(
    graph: &ShareGraph,
    cfg: &ServingScenarioConfig,
) -> Vec<Vec<SessionOp>> {
    let n = graph.placement().num_registers();
    let zipf = Zipf::new(n, cfg.zipf_theta);
    (0..cfg.sessions as u64)
        .map(|sid| {
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (sid.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            (0..cfg.ops_per_session as u64)
                .map(|k| {
                    let x = RegisterId::new(zipf.sample(&mut rng) as u32);
                    if rng.gen_bool(cfg.write_ratio.clamp(0.0, 1.0)) {
                        SessionOp::Write(x, Value::from(sid * 1_000_000_000 + k))
                    } else {
                        SessionOp::Read(x)
                    }
                })
                .collect()
        })
        .collect()
}

/// Measured outcome of a threaded serving-tier run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRunReport {
    /// Sessions driven.
    pub sessions: usize,
    /// Total client ops served.
    pub ops: u64,
    /// Total client ops attempted (served + rejected + timed
    /// out). Equals `ops` on a fault-free run.
    pub attempted: u64,
    /// Attempted ops that were not acked.
    pub failed: u64,
    /// `ops / attempted` — the serving tier's availability under the
    /// scripted fault storm.
    pub availability: f64,
    /// Wall-clock driving time in seconds (first op through the last
    /// one's acknowledgement).
    pub elapsed_secs: f64,
    /// Aggregate client ops per second.
    pub ops_per_sec: f64,
    /// Client-visible read latency, median (ns).
    pub read_p50_ns: u64,
    /// Client-visible read latency, 99th percentile (ns).
    pub read_p99_ns: u64,
    /// Client-visible write latency, median (ns).
    pub write_p50_ns: u64,
    /// Client-visible write latency, 99th percentile (ns).
    pub write_p99_ns: u64,
    /// Failover latency (op entry to ack on a non-preferred replica),
    /// median (ns). Zero when nothing failed over.
    pub failover_p50_ns: u64,
    /// Failover latency, maximum (ns).
    pub failover_max_ns: u64,
    /// Tier counters (routing, guarantee-block, and resilience stats).
    pub stats: prcc_core::ServingStats,
    /// Causal-consistency verdict of the cluster trace.
    pub consistent: bool,
    /// Session-guarantee violations found by replaying the served-op log
    /// against the recomputed happened-before relation (must be 0).
    pub session_violations: usize,
    /// Acked writes missing from some holder's converged final store
    /// (must be 0: acked ⇒ durable ⇒ survives).
    pub acked_write_loss: usize,
    /// Completed crash/restart cycles during the run.
    pub restarts: usize,
}

impl fmt::Display for ServingRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sessions, {}/{} ops (availability {:.4}) in {:.2}s = {:.0} ops/s, \
             read p50/p99 {}µs/{}µs, write p50/p99 {}µs/{}µs, local/forwarded {}/{}, \
             blocks ryw={} mr={}, failovers={} shed={} timeouts={} restarts={}, \
             consistent={}, session_violations={}, acked_write_loss={}",
            self.sessions,
            self.ops,
            self.attempted,
            self.availability,
            self.elapsed_secs,
            self.ops_per_sec,
            self.read_p50_ns / 1_000,
            self.read_p99_ns / 1_000,
            self.write_p50_ns / 1_000,
            self.write_p99_ns / 1_000,
            self.stats.ops_routed_local,
            self.stats.ops_forwarded,
            self.stats.ryw_blocks,
            self.stats.mr_blocks,
            self.stats.failovers,
            self.stats.ops_shed,
            self.stats.op_timeouts,
            self.restarts,
            self.consistent,
            self.session_violations,
            self.acked_write_loss
        )
    }
}

/// Drives the generated workload through a [`ServingTier`] over a fresh
/// [`ThreadedCluster`] — with any scripted fault storm live underneath —
/// and reports throughput, latency, availability, and verdicts.
///
/// Under faults, individual ops may degrade to typed errors; the run
/// keeps going and the report carries the availability split. After the
/// drivers finish, the runner waits out the schedule's horizon (so
/// scripted restarts fire), settles the cluster, and checks three things
/// differentially: the causal trace, the session-guarantee log of acked
/// ops, and that every acked write survived into each holder's final
/// store.
///
/// # Panics
///
/// Panics if a worker thread dies.
pub fn run_serving_scenario(graph: &ShareGraph, cfg: &ServingScenarioConfig) -> ServingRunReport {
    let ops = generate_session_ops(graph, cfg);
    // A fault storm without a session layer can strand an update whose
    // causal predecessor was lost in a crash window: the orphan parks in
    // `pending` forever and settle never converges. The runner always
    // drives `DelayModel::Fixed(1)`, so a tight retransmission timer is
    // safe — arm one whenever faults are live and the caller didn't.
    let session = cfg.session.or_else(|| {
        (!cfg.faults.is_benign()).then_some(SessionConfig {
            rto_base: 10,
            rto_max: 80,
            jitter: 3,
            ack_delay: 0,
        })
    });
    let cluster = ThreadedCluster::with_config(
        graph.clone(),
        DelayModel::Fixed(1),
        cfg.seed,
        ClusterConfig {
            schedule: cfg.faults.clone(),
            session,
            durability: cfg.durability,
            ..ClusterConfig::default()
        },
    );
    let epoch = Instant::now();
    let tier = ServingTier::new(&cluster, cfg.serving.clone());
    let workers = cfg.workers.max(1);
    let start = Instant::now();
    let (mut collected, attempted) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tier = &tier;
                let ops = &ops;
                std::thread::Builder::new()
                    .name(format!("serve-{w}"))
                    .spawn_scoped(s, move || {
                        let mut worker = tier.worker();
                        let mut attempted = 0u64;
                        // Round-major on purpose: op k of every owned session
                        // before op k+1 of any, so sessions interleave.
                        #[allow(clippy::needless_range_loop)]
                        for k in 0..cfg.ops_per_session {
                            let mut sid = w;
                            while sid < cfg.sessions {
                                attempted += 1;
                                // A typed failure (crashed, timed out) fails
                                // that op only; the session keeps going.
                                match &ops[sid][k] {
                                    SessionOp::Write(x, v) => {
                                        let _ = worker.write(sid as u64, *x, v.clone());
                                    }
                                    SessionOp::Read(x) => {
                                        let _ = worker.read(sid as u64, *x, k as u64);
                                    }
                                }
                                sid += workers;
                            }
                        }
                        (worker.finish(), attempted)
                    })
                    .expect("spawn serving worker thread")
            })
            .collect();
        let mut all = Collected::default();
        let mut attempted = 0u64;
        for h in handles {
            let (c, a) = h.join().expect("serving worker");
            all.absorb(c);
            attempted += a;
        }
        (all, attempted)
    });
    let elapsed = start.elapsed();
    // Scheduled restarts may lie beyond the workload: wait out the
    // horizon so every crash window closes before convergence is judged.
    let horizon = epoch + TICK * cfg.faults.horizon().min(u32::MAX as u64) as u32;
    if let Some(rem) = horizon.checked_duration_since(Instant::now()) {
        std::thread::sleep(rem + TICK * 50);
    }
    cluster.settle();
    let trace = cluster.trace_snapshot();
    let hb = HbGraph::build(&trace);
    let check = prcc_checker::check_with_hb(&trace, graph.placement(), &hb);
    let violations = prcc_checker::check_sessions_with_hb(&hb, &collected.events);
    // Durability gate: acked ⇒ survives into every holder's final store.
    let placement = graph.placement();
    let acked = prcc_checker::acked_writes(&collected.events);
    let mut acked_write_loss = 0usize;
    for &(uid, x) in &acked {
        for &h in placement.holders(x) {
            if !cluster.store_snapshot(h).covers(uid) {
                acked_write_loss += 1;
            }
        }
    }
    let secs = elapsed.as_secs_f64();
    let failed = attempted - collected.ops;
    ServingRunReport {
        sessions: cfg.sessions,
        ops: collected.ops,
        attempted,
        failed,
        availability: if attempted > 0 {
            collected.ops as f64 / attempted as f64
        } else {
            1.0
        },
        elapsed_secs: secs,
        ops_per_sec: if secs > 0.0 {
            collected.ops as f64 / secs
        } else {
            0.0
        },
        read_p50_ns: collected.read_lat.p50(),
        read_p99_ns: collected.read_lat.p99(),
        write_p50_ns: collected.write_lat.p50(),
        write_p99_ns: collected.write_lat.p99(),
        failover_p50_ns: collected.failover_lat.p50(),
        failover_max_ns: collected.failover_lat.max(),
        stats: tier.stats(),
        consistent: check.is_consistent(),
        session_violations: violations.len(),
        acked_write_loss,
        restarts: cluster.total_restarts(),
    }
}

/// Verdicts of the lockstep oracle replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleReport {
    /// Causal-consistency verdict of the oracle's server trace.
    pub consistent: bool,
    /// Session-guarantee violations in the oracle's served-op log.
    pub session_violations: usize,
    /// Requests still blocked at the end (must be 0).
    pub blocked: usize,
}

/// Replays the *same* generated workload through the lockstep
/// [`ClientServerSystem`], using the tier's exact routing rule
/// ([`route`]): ops land on the first attach replica storing the
/// register, detouring to a holder otherwise. Clients are attached to
/// every replica so the detour stays within the oracle's model. The
/// differential claim: on the same seeded workload, the threaded tier
/// and the oracle must both come back clean.
pub fn run_serving_oracle(graph: &ShareGraph, cfg: &ServingScenarioConfig) -> OracleReport {
    let ops = generate_session_ops(graph, cfg);
    let mut clients = ClientAssignment::new(graph.num_replicas());
    for sid in 0..cfg.sessions as u32 {
        clients.assign(ClientId::new(sid), graph.replicas().collect::<Vec<_>>());
    }
    let aug = AugmentedShareGraph::new(graph.clone(), clients);
    let mut sys = ClientServerSystem::new(aug, DelayModel::Fixed(1), cfg.seed);
    // Round-major to mirror the threaded run's interleaving.
    #[allow(clippy::needless_range_loop)]
    for k in 0..cfg.ops_per_session {
        for sid in 0..cfg.sessions {
            let c = ClientId::new(sid as u32);
            let (target, _) = match &ops[sid][k] {
                SessionOp::Write(x, _) | SessionOp::Read(x) => {
                    route(graph, sid as u64, cfg.serving.attach_span, *x)
                }
            };
            match &ops[sid][k] {
                SessionOp::Write(x, v) => {
                    sys.write(c, target, *x, v.clone());
                }
                SessionOp::Read(x) => {
                    sys.read(c, target, *x);
                }
            }
        }
        // Let the network make progress between rounds.
        sys.step();
    }
    sys.run_to_quiescence();
    OracleReport {
        consistent: sys.check().is_consistent(),
        session_violations: sys.check_sessions().len(),
        blocked: sys.blocked_requests(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::topology;

    #[test]
    fn op_generation_is_deterministic() {
        let g = topology::clique_full(4, 8);
        let cfg = ServingScenarioConfig {
            sessions: 8,
            ops_per_session: 30,
            seed: 42,
            ..Default::default()
        };
        assert_eq!(
            generate_session_ops(&g, &cfg),
            generate_session_ops(&g, &cfg)
        );
        let other = generate_session_ops(
            &g,
            &ServingScenarioConfig {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert_ne!(generate_session_ops(&g, &cfg), other);
    }

    #[test]
    fn zipf_skew_concentrates_ops() {
        let g = topology::clique_full(4, 16);
        let cfg = ServingScenarioConfig {
            sessions: 32,
            ops_per_session: 100,
            zipf_theta: 1.0,
            write_ratio: 0.0,
            seed: 7,
            ..Default::default()
        };
        let ops = generate_session_ops(&g, &cfg);
        let mut counts = [0usize; 16];
        for stream in &ops {
            for op in stream {
                if let SessionOp::Read(x) = op {
                    counts[x.index()] += 1;
                }
            }
        }
        // Rank 1 must dominate the tail rank under s = 1.0.
        assert!(
            counts[0] > 4 * counts[15],
            "no skew: head={} tail={}",
            counts[0],
            counts[15]
        );
    }

    #[test]
    fn threaded_serving_run_is_clean() {
        let report = run_serving_scenario(
            &topology::clique_full(4, 4),
            &ServingScenarioConfig {
                sessions: 32,
                ops_per_session: 40,
                workers: 4,
                write_ratio: 0.2,
                seed: 5,
                ..Default::default()
            },
        );
        assert!(report.consistent, "{report}");
        assert_eq!(report.session_violations, 0, "{report}");
        assert_eq!(report.ops, 32 * 40);
        assert!(report.ops_per_sec > 0.0);
    }

    #[test]
    fn partial_replication_routes_and_stays_clean() {
        let report = run_serving_scenario(
            &topology::ring(6),
            &ServingScenarioConfig {
                sessions: 24,
                ops_per_session: 40,
                workers: 3,
                write_ratio: 0.25,
                zipf_theta: 0.5,
                seed: 9,
                ..Default::default()
            },
        );
        assert!(report.consistent, "{report}");
        assert_eq!(report.session_violations, 0, "{report}");
        // On a ring most registers are outside a 2-replica attach window:
        // the forwarded path must actually be exercised.
        assert!(report.stats.ops_forwarded > 0, "{report}");
        assert!(report.stats.ops_routed_local > 0, "{report}");
    }
}
