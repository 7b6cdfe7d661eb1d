//! The benchmark's fixed definitions: the four workloads, the metric
//! tables (name, unit, direction, regression bound), and the run shape.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`--print-benchmark-json`) and a unit test keeps the two equal.

use prcc_core::ClusterConfig;
use prcc_net::{FaultPlan, FaultSchedule, SessionConfig};
use prcc_sharegraph::topology::{self, RandomPlacementConfig};
use prcc_sharegraph::{ReplicaId, ShareGraph};
use std::time::Duration;

/// Generator threads. Fixed (not `nproc`) so the op streams — which are
/// partitioned by generator — are the same on every host; the reference
/// host has two cores and the header records the real `nproc`.
pub const GENERATORS: usize = 2;
/// Repetitions per workload; a metric's value is their median.
pub const REPETITIONS: usize = 3;
/// Paced warm-up at the workload's rate before each measured window.
pub const WARM_UP: Duration = Duration::from_millis(500);
/// Cluster construction → first paced tick. Fixed so that the scripted
/// crash instants (ticks from construction) land at the same offsets in
/// every measured window. Set-up work (1–25 ms) normally fits inside it;
/// when it does not, the first tick — and with it `setup_s` — is late.
pub const LEAD: Duration = Duration::from_millis(50);
/// `settle()` after load stops must return within this, or the run fails.
pub const SETTLE_LIMIT: Duration = Duration::from_secs(30);
/// Default `--seconds`: total measured time of one run, split evenly
/// over the repetitions (three 8 s windows).
pub const RUN_SECONDS: u64 = 24;
/// Writes the verify pass replays through the full (quadratic) checkers.
pub const VERIFY_WRITES: usize = 4_000;
/// Updates pushed through the single-threaded stack replay.
pub const REPLAY_UPDATES: usize = 100_000;
/// One `ThreadNet` / `FaultSchedule` tick.
pub const NET_TICK: Duration = prcc_net::TICK;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process `ThreadNet` router, `DelayModel::Fixed(1)`: one 200 µs
    /// router tick one-way.
    Router,
    /// Kernel loopback sockets (`ThreadedCluster::with_tcp`).
    Tcp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `ServingTier` with this many client sessions (Zipf 1.0 registers).
    Serving { sessions: usize },
    /// No serving tier: each generator walks its replicas round-robin,
    /// one `write_burst` of `quota` writes per tick.
    WriteBurst,
}

/// Crash windows as fractions of the measured window: `(replica, start,
/// length in seconds)`.
pub type Crash = (u32, f64, f64);

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: fn() -> ShareGraph,
    pub transport: Transport,
    pub front: Front,
    pub write_ratio: f64,
    pub tick: Duration,
    /// Ops (updates for `WriteBurst`) per tick per generator.
    pub quota: usize,
    /// Drops, crashes, durability and the fast-retransmit session.
    pub faulty: bool,
    /// Listed in `BENCHMARK.json`: every end-to-end metric repeats on it.
    /// The driver has each listed workload report every metric within its
    /// bound; the two unlisted workloads keep both cores less than busy,
    /// and there per-op CPU and median latency follow the host's wake-up
    /// cost, which drifts (README, "Which cells gate"). They are run,
    /// verified, printed and gated by `--repeat-check` all the same.
    pub listed: bool,
}

/// 2.0 s and 4.8 s into an 8 s window, 0.5 s each (scaled with the window).
pub const CRASHES: [Crash; 2] = [(1, 2.0 / 8.0, 0.5), (5, 4.8 / 8.0, 0.5)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-read-mostly",
        why: "full replication, 2 registers, 10% writes at 100k ops/s: the serving snapshot-read path and session table carry the load, replication does little per op",
        graph: || topology::clique_full(8, 2),
        transport: Transport::Router,
        front: Front::Serving { sessions: 10_000 },
        write_ratio: 0.10,
        tick: Duration::from_micros(500),
        quota: 25,
        faulty: false,
        listed: true,
    },
    Workload {
        name: "serve-write-heavy-partial",
        why: "the paper's setting: 4096 registers at replication factor 3, 50% writes at 32k ops/s; replica apply, codec fan-out and COW publish carry the load, the read path does little",
        graph: || {
            topology::random_connected_placement(RandomPlacementConfig {
                replicas: 8,
                registers: 4096,
                replication_factor: 3,
                seed: 7,
            })
        },
        transport: Transport::Router,
        front: Front::Serving { sessions: 10_000 },
        write_ratio: 0.50,
        tick: Duration::from_micros(500),
        quota: 8,
        faulty: false,
        listed: true,
    },
    Workload {
        name: "replicate-tcp-clique",
        why: "write_burst over real loopback sockets on an 8-clique with 64 registers, 20k updates/s: dense timestamps, 7-way fan-out, session and TCP framing; the serving tier is bypassed",
        graph: || topology::clique_full(8, 64),
        transport: Transport::Tcp,
        front: Front::WriteBurst,
        write_ratio: 1.0,
        tick: Duration::from_millis(1),
        quota: 10,
        faulty: false,
        listed: false,
    },
    Workload {
        name: "serve-crash-durable",
        why: "12k ops/s with 5% frame loss, durable logs and two replica crashes per window: the only path through recovery, retransmission, serving failover and the inline replica loop",
        graph: || topology::clique_full(8, 2),
        transport: Transport::Router,
        front: Front::Serving { sessions: 10_000 },
        write_ratio: 0.20,
        tick: Duration::from_micros(500),
        quota: 3,
        faulty: true,
        listed: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Offered client ops (updates for `WriteBurst`) per second.
    pub fn offered_rate(&self) -> f64 {
        (self.quota * GENERATORS) as f64 / self.tick.as_secs_f64()
    }

    /// Expected writes per second (for sizing the verify pass).
    pub fn write_rate(&self) -> f64 {
        self.offered_rate() * self.write_ratio
    }

    /// The cluster configuration: the shipped defaults, plus only what
    /// the workload's definition names. `window_start`/`window` place
    /// the crash script (offsets from cluster construction).
    pub fn cluster_config(&self, window_start: Duration, window: Duration) -> ClusterConfig {
        let mut cfg = ClusterConfig::default();
        if self.transport == Transport::Tcp {
            cfg.session = Some(SessionConfig::default());
        }
        if self.faulty {
            cfg.durability = Some(1024);
            cfg.session = Some(SessionConfig {
                rto_base: 10,
                rto_max: 80,
                jitter: 3,
                ack_delay: 0,
            });
            let mut schedule = FaultSchedule::from_plan(FaultPlan::dropping(0.05));
            for (replica, at, restart) in self.crash_times(window_start, window) {
                schedule = schedule.crash(ReplicaId::new(replica), ticks(at), ticks(restart));
            }
            cfg.schedule = schedule;
        }
        cfg
    }

    /// `(replica, crash offset, restart offset)` from cluster construction.
    pub fn crash_times(
        &self,
        window_start: Duration,
        window: Duration,
    ) -> Vec<(u32, Duration, Duration)> {
        if !self.faulty {
            return Vec::new();
        }
        // Outage lengths scale with the window like their start offsets.
        let scale = window.as_secs_f64() / 8.0;
        CRASHES
            .iter()
            .map(|&(r, at, len)| {
                let at = window_start + window.mul_f64(at);
                (r, at, at + Duration::from_secs_f64(len * scale))
            })
            .collect()
    }
}

fn ticks(d: Duration) -> u64 {
    (d.as_nanos() / NET_TICK.as_nanos()) as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The table row of any value a run reports: a table metric, or an
/// issue-table cell that only the `diag.*` rows list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name || m.name.strip_prefix("diag.") == Some(name))
}

/// The end-to-end metrics, with the workloads (in [`WORKLOADS`] order)
/// on which each repeats within its bound and therefore gates. All six
/// gate on both workloads `BENCHMARK.json` lists, so the driver sees all
/// six; `--repeat-check` gates each workload on its own cells. Every
/// untraced run measures and prints all of them regardless.
pub const END_TO_END: [(Metric, [bool; 4]); 6] = [
    (e2e("setup_s", "s", 0.25), [true, true, true, true]),
    (e2e("write_p50_us", "us", 0.25), [true, true, false, false]),
    (
        e2e("visibility_p50_us", "us", 0.25),
        [true, true, false, true],
    ),
    (e2e("cpu_us_per_op", "us", 0.15), [true, true, false, false]),
    (
        e2e("wire_bytes_per_update", "B", 0.02),
        [true, true, true, true],
    ),
    (e2e("peak_rss_mb", "MiB", 0.10), [true, true, true, true]),
];

/// The end-to-end cells that gate on `w`.
pub fn gated_cells(w: &Workload) -> impl Iterator<Item = &'static Metric> {
    let i = WORKLOADS
        .iter()
        .position(|x| x.name == w.name)
        .expect("a workload of the table");
    END_TO_END
        .iter()
        .filter(move |(_, on)| on[i])
        .map(|(m, _)| m)
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Metric; 70] = [
    layer("sharegraph.tsgraph_build_ms", "ms", Lower),
    layer("sharegraph.tracked_edges_mean", "count", Lower),
    layer("timestamp.registry_build_ms", "ms", Lower),
    layer("timestamp.advance_ns", "ns", Lower),
    layer("timestamp.ready_merge_ns", "ns", Lower),
    layer("timestamp.wire_encode_ns_per_msg", "ns", Lower),
    layer("timestamp.wire_decode_ns_per_msg", "ns", Lower),
    layer("timestamp.counters_per_msg", "count", Lower),
    layer("replica.write_ns", "ns", Lower),
    layer("replica.receive_ns_per_update", "ns", Lower),
    layer("replica.predicate_evals_per_apply", "count", Lower),
    layer("replica.batch_fast_share", "ratio", Higher),
    layer("codec.encode_fanout_ns", "ns", Lower),
    layer("codec.bytes_per_msg", "B", Lower),
    layer("codec.shared_frame_share", "ratio", Higher),
    layer("store_cow.publish_ns", "ns", Lower),
    layer("store_cow.cow_clones_per_publish", "count", Lower),
    layer("recovery.record_ns_per_update", "ns", Lower),
    layer("recovery.recover_ms", "ms", Lower),
    layer("recovery.catchup_ms", "ms", Lower),
    layer("recovery.restarts", "count", Lower),
    layer("session.send_ns", "ns", Lower),
    layer("session.on_frame_ns", "ns", Lower),
    layer("session.overhead_bytes_per_frame", "B", Lower),
    layer("session.retransmits_per_k_frames", "count", Lower),
    layer("session.piggyback_share", "ratio", Higher),
    layer("thread_net.pump_frames_per_s", "1/s", Higher),
    layer("thread_net.hop_p50_us", "us", Lower),
    layer("tcp_net.pump_frames_per_s", "1/s", Higher),
    layer("tcp_net.syscalls_per_update", "count", Lower),
    layer("tcp_net.bytes_per_frame", "B", Lower),
    layer("tcp_net.shed_outbound", "count", Lower),
    layer("tcp_net.reconnects", "count", Lower),
    layer("runtime.setup_ms", "ms", Lower),
    layer("runtime.write_rtt_p50_us", "us", Lower),
    layer("runtime.write_burst_ns_per_update", "ns", Lower),
    layer("runtime.snapshot_read_ns", "ns", Lower),
    layer("runtime.drain_s", "s", Lower),
    layer("runtime.cpu_share.apply", "ratio", Lower),
    layer("runtime.cpu_share.io", "ratio", Lower),
    layer("runtime.cpu_share.router", "ratio", Lower),
    layer("runtime.cpu_share.tcp", "ratio", Lower),
    layer("runtime.cpu_share.serve", "ratio", Lower),
    layer("runtime.ctx_switches_per_op", "count", Lower),
    layer("runtime.closed_loop_ops_per_s", "1/s", Higher),
    layer("serving.read_call_ns_p50", "ns", Lower),
    layer("serving.write_call_ns_p50", "ns", Lower),
    layer("serving.flush_call_us_p50", "us", Lower),
    layer("serving.flush_park_share", "ratio", Lower),
    layer("serving.gen_late_p99_us", "us", Lower),
    layer("serving.forwarded_share", "ratio", Lower),
    layer("serving.ryw_blocks_per_k_reads", "count", Lower),
    layer("serving.mr_blocks_per_k_reads", "count", Lower),
    layer("serving.dep_evictions", "count", Lower),
    layer("serving.failovers", "count", Lower),
    layer("serving.failover_p99_us", "us", Lower),
    layer("serving.ops_shed", "count", Lower),
    layer("serving.op_timeouts", "count", Lower),
    layer("serving.writes_abandoned", "count", Lower),
    layer("checker.verify_s", "s", Lower),
    layer("checker.verify_ops", "count", Higher),
    layer("stack.sum_ns_per_update", "ns", Lower),
    layer("stack.cpu_explained_share", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("diag.read_p50_us", "us", Lower),
    layer("diag.read_p99_us", "us", Lower),
    layer("diag.write_p99_us", "us", Lower),
    layer("diag.write_p999_us", "us", Lower),
    layer("diag.visibility_p99_us", "us", Lower),
    layer("diag.failed_ops_ratio", "ratio", Lower),
];
