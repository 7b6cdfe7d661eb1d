//! The byte and speed gates the workspace holds itself to, one test
//! each, at the sizes, seeds and repetition counts they were set at.
//!
//! Byte gates are functions of their seeds and run as plain tests.
//! Wall-clock gates only mean something in an optimised build: they are
//! ignored under `debug_assertions` and run by
//! `cargo test --workspace --release`. They take [`WALL_CLOCK`] first,
//! so no two of them measure at the same time.

use prcc_core::{
    cluster_codec, BatchMsg, BatchPolicy, ClusterConfig, Metadata, System, ThreadedCluster,
    UpdateMsg, Value, WireMode,
};
use prcc_net::{
    BoundListener, DelayModel, SessionConfig, SessionFrame, TcpEndpoint, TcpNetConfig, Transport,
};
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_sim::netrun::{write_value, NetWorkload};
use prcc_sim::serving::{run_serving_scenario, ServingRunReport, ServingScenarioConfig};
use prcc_timestamp::{TsRegistry, VectorClock};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Held by every wall-clock gate for its whole run.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

/// Runs a wall-clock gate repeats before it reports the median run.
const REPS: usize = 3;

fn wall_clock() -> MutexGuard<'static, ()> {
    // The lock guards no data: a gate that failed while holding it left
    // nothing half-written, so the next gate may take it.
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The median of [`REPS`] runs, ordered by `key`.
fn median_of<T>(mut run: impl FnMut() -> T, key: impl Fn(&T) -> f64) -> T {
    let mut runs: Vec<T> = (0..REPS).map(|_| run()).collect();
    runs.sort_by(|a, b| key(a).total_cmp(&key(b)));
    runs.swap_remove(REPS / 2)
}

// ---------------------------------------------------------------------
// Wire codec on the lockstep System: ten rounds in which every replica
// writes one of its registers, drained between rounds.

const WIRE_ROUNDS: usize = 10;

struct WireRun {
    writes: usize,
    messages: usize,
    bytes: usize,
    send_ns: u128,
}

impl WireRun {
    fn bytes_per_update(&self) -> f64 {
        self.bytes as f64 / self.writes as f64
    }
    fn bytes_per_message(&self) -> f64 {
        self.bytes as f64 / self.messages as f64
    }
    fn ns_per_send(&self) -> f64 {
        self.send_ns as f64 / self.writes as f64
    }
}

fn wire_graph(topology: &str, n: usize) -> ShareGraph {
    match topology {
        "ring" => topology::ring(n),
        "tree" => topology::binary_tree(n),
        "clique" => topology::clique_full(n, 2),
        _ => unreachable!(),
    }
}

fn wire_run(g: &ShareGraph, mode: WireMode) -> WireRun {
    let mut sys = System::builder(g.clone())
        .wire_mode(mode)
        .delay(DelayModel::Fixed(1))
        .seed(42)
        .build();
    let writers: Vec<_> = g
        .replicas()
        .map(|i| (i, g.placement().registers_of(i).iter().next().unwrap()))
        .collect();
    let mut send_ns = 0;
    for round in 0..WIRE_ROUNDS {
        for &(i, x) in &writers {
            let t = Instant::now();
            sys.write(i, x, Value::from(round as u64));
            send_ns += t.elapsed().as_nanos();
        }
        for _ in 0..writers.len() {
            sys.step();
        }
    }
    sys.run_to_quiescence();
    let run = format!("{} replicas, {mode:?}", g.num_replicas());
    assert!(sys.check().is_consistent(), "{run}");
    assert_eq!(sys.codec_stats().demotions, 0, "{run}");
    let m = sys.metrics();
    WireRun {
        writes: WIRE_ROUNDS * writers.len(),
        messages: m.data_messages + m.meta_messages,
        bytes: m.metadata_bytes,
        send_ns,
    }
}

#[test]
fn ring12_compressed_ships_fewer_bytes_per_update_than_raw() {
    let g = wire_graph("ring", 12);
    let raw = wire_run(&g, WireMode::Raw).bytes_per_update();
    let comp = wire_run(&g, WireMode::Compressed).bytes_per_update();
    assert!(comp < raw, "compressed {comp:.2} B/update >= raw {raw:.2}");
}

#[test]
fn clique24_compresses_8x_within_530_bytes_per_message() {
    let g = wire_graph("clique", 24);
    let raw = wire_run(&g, WireMode::Raw).bytes_per_message();
    let comp = wire_run(&g, WireMode::Compressed).bytes_per_message();
    assert!(raw / comp >= 8.0, "ratio {:.2}x < 8x", raw / comp);
    assert!(comp <= 530.0, "compressed {comp:.2} B/message > 530");
}

#[test]
fn registry_layouts_never_demote() {
    // `wire_run` asserts zero demotions and a consistent trace.
    for topology in ["ring", "tree", "clique"] {
        for n in [12, 24] {
            for mode in [WireMode::Raw, WireMode::Compressed] {
                wire_run(&wire_graph(topology, n), mode);
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release only")]
fn clique24_compressed_send_costs_at_most_5x_raw() {
    let _clock = wall_clock();
    let g = wire_graph("clique", 24);
    let ns = |mode| median_of(|| wire_run(&g, mode), |r| r.send_ns as f64).ns_per_send();
    let (raw, comp) = (ns(WireMode::Raw), ns(WireMode::Compressed));
    assert!(
        comp <= 5.0 * raw.max(1.0),
        "compressed {comp:.0} ns/send is {:.1}x raw {raw:.0}",
        comp / raw
    );
}

// ---------------------------------------------------------------------
// Batched shipping on the threaded runtime.

/// Updates per second, first issue to last remote apply: `writers`
/// threads each burst `writes` writes at their own replica's register.
fn burst_updates_per_sec(g: &ShareGraph, batch: BatchPolicy, writers: u32, writes: u64) -> f64 {
    let cluster = ThreadedCluster::with_config(
        g.clone(),
        DelayModel::Fixed(1),
        42,
        ClusterConfig {
            session: Some(SessionConfig::default()),
            batch,
            ..ClusterConfig::default()
        },
    );
    // One register per writer while they last, then shared.
    let mut assignments: Vec<(ReplicaId, RegisterId)> = Vec::new();
    for w in 0..writers {
        let r = ReplicaId::new(w);
        let regs = g.placement().registers_of(r);
        let x = regs
            .iter()
            .find(|x| assignments.iter().all(|&(_, y)| y != *x))
            .or_else(|| regs.first())
            .unwrap();
        assignments.push((r, x));
    }
    let expected: usize = assignments
        .iter()
        .map(|&(_, x)| writes as usize * (g.placement().holders(x).len() - 1))
        .sum();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for &(r, x) in &assignments {
            let cluster = &cluster;
            s.spawn(move || {
                let burst: Vec<_> = (0..writes).map(|k| (x, Value::from(k))).collect();
                cluster.write_burst(r, &burst);
            });
        }
    });
    while cluster.total_applied() < expected {
        assert!(t0.elapsed() < Duration::from_secs(120), "run stalled");
        std::thread::sleep(Duration::from_micros(500));
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(cluster.total_retransmits(), 0, "a shed frame cost an RTO");
    assert!(cluster.check().is_consistent());
    (writers as u64 * writes) as f64 / secs
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release only")]
fn batching_at_least_doubles_clique8_throughput_at_8_writers() {
    let _clock = wall_clock();
    let g = topology::clique_full(8, 2);
    let ups = |batch: BatchPolicy| median_of(|| burst_updates_per_sec(&g, batch, 8, 300), |&u| u);
    let (on, off) = (ups(BatchPolicy::default()), ups(BatchPolicy::unbatched()));
    assert!(
        on >= 2.0 * off,
        "batched {on:.0} up/s < 2x unbatched {off:.0}"
    );
}

// ---------------------------------------------------------------------
// The serving tier: Zipf-skewed open-loop sessions on clique(8).

fn serve(g: &ShareGraph, sessions: usize, ops_per_session: usize) -> ServingRunReport {
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().clamp(2, 8));
    let report = run_serving_scenario(
        g,
        &ServingScenarioConfig {
            sessions,
            ops_per_session,
            write_ratio: 0.1,
            zipf_theta: 1.0,
            workers,
            seed: 42,
            ..Default::default()
        },
    );
    assert!(
        report.consistent && report.session_violations == 0,
        "{report}"
    );
    report
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release only")]
fn serving_write_p50_within_2ms_and_flat_from_64_to_16384_registers() {
    let _clock = wall_clock();
    let headline = serve(&topology::clique_full(8, 2), 2_000, 20);
    assert!(headline.write_p50_ns <= 2_000_000, "{headline}");
    let small = serve(&topology::clique_full(8, 64), 1_000, 15).write_p50_ns;
    let big = serve(&topology::clique_full(8, 16_384), 1_000, 15).write_p50_ns;
    assert!(
        big <= 2 * small.max(1),
        "write p50 {big} ns at 16384 registers > 2x {small} ns at 64"
    );
}

// ---------------------------------------------------------------------
// The real-socket transport.

/// Bytes written to the kernel per delivered update, for the median-
/// throughput run of three: clique(24) compressed, 150 designated-writer
/// rounds, one update per session frame.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release only")]
fn tcp_clique24_compressed_within_530_bytes_per_message_on_the_wire() {
    let _clock = wall_clock();
    let g = topology::clique_full(24, 2);
    let rounds = 150;
    let wl = NetWorkload::new(&g, rounds);
    let (_ups, bytes_per_message) = median_of(
        || {
            let config = ClusterConfig {
                wire: WireMode::Compressed,
                // An RTO well above a loopback round trip on a contended
                // host, so retransmits stay rare and the bytes measure
                // the codec rather than recovery.
                session: Some(SessionConfig {
                    rto_base: 400,
                    rto_max: 2000,
                    jitter: 20,
                    ack_delay: 0,
                }),
                batch: BatchPolicy {
                    batch_count: 1,
                    ..BatchPolicy::default()
                },
                ..ClusterConfig::default()
            };
            let cluster = ThreadedCluster::with_tcp(g.clone(), config, TcpNetConfig::default())
                .expect("loopback cluster");
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for i in g.replicas() {
                    let regs = wl.registers_of(i);
                    if regs.is_empty() {
                        continue;
                    }
                    let cluster = &cluster;
                    s.spawn(move || {
                        let burst: Vec<_> = (0..rounds)
                            .flat_map(|k| regs.iter().map(move |&x| (x, write_value(x, k))))
                            .collect();
                        cluster.write_burst(i, &burst);
                    });
                }
            });
            cluster.settle();
            let deliveries = cluster.total_applied() as f64;
            let secs = t0.elapsed().as_secs_f64();
            let stats = cluster.tcp_stats().expect("tcp cluster");
            assert!(cluster.check().is_consistent());
            let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
            (deliveries / secs, bytes as f64 / deliveries)
        },
        |&(ups, _)| ups,
    );
    assert!(
        bytes_per_message <= 530.0,
        "{bytes_per_message:.2} B/message"
    );
}

/// Write syscalls per frame when one-update frames are pumped through a
/// single loopback socket with the cluster codec: the time from first
/// submission until every frame is handed to the kernel.
fn pump(frames: u64) -> (f64, f64) {
    let g = topology::path(2);
    let registry = Arc::new(TsRegistry::new(
        &g,
        TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
    ));
    let (src, dst) = (ReplicaId::new(0), ReplicaId::new(1));
    // Queues that hold the whole pump, so neither side waits on
    // backpressure inside the timed window.
    let cfg = TcpNetConfig {
        outbox_depth: frames as usize + 16,
        ingress_depth: frames as usize + 16,
    };
    let b0 = BoundListener::bind(src, ([127, 0, 0, 1], 0).into()).unwrap();
    let b1 = BoundListener::bind(dst, ([127, 0, 0, 1], 0).into()).unwrap();
    let (a0, a1) = (b0.local_addr(), b1.local_addr());
    let codec = |id| cluster_codec(id, registry.clone());
    let e0 = TcpEndpoint::start(b0, HashMap::from([(dst, a1)]), cfg.clone(), codec(src)).unwrap();
    let e1 = TcpEndpoint::start(b1, HashMap::from([(src, a0)]), cfg, codec(dst)).unwrap();
    let (h0, h1) = (e0.handle(), e1.handle());
    let meta = Arc::new(Metadata::Vector(VectorClock::from_values(vec![1, 0])));
    let frame = |seq: u64| {
        SessionFrame::Bare(BatchMsg {
            updates: vec![UpdateMsg {
                issuer: src,
                seq,
                register: RegisterId::new(0),
                value: Some(Value::U64(seq)),
                meta: meta.clone(),
                transit: None,
            }],
        })
    };
    // The handshake stays outside the timed window.
    assert!(h0.send(dst, frame(0)));
    assert!(h1.recv_timeout(Duration::from_secs(10)).is_some());
    let receiver = std::thread::spawn(move || {
        for got in 0..frames {
            assert!(
                h1.recv_timeout(Duration::from_secs(10)).is_some(),
                "pump lost frames at {got}"
            );
        }
    });
    let t0 = Instant::now();
    for seq in 1..=frames {
        while !h0.send(dst, frame(seq)) {
            std::thread::yield_now();
        }
    }
    while e0.stats().frames_sent < frames + 1 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let frames_per_sec = frames as f64 / t0.elapsed().as_secs_f64();
    receiver.join().unwrap();
    let syscalls_per_frame = e0.stats().write_syscalls as f64 / frames as f64;
    e0.shutdown();
    e1.shutdown();
    (frames_per_sec, syscalls_per_frame)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: release only")]
fn pump_coalesces_at_most_one_write_per_10_frames() {
    let _clock = wall_clock();
    let (fps, spf) = median_of(|| pump(20_000), |&(fps, _)| fps);
    assert!(spf <= 0.1, "{spf:.3} syscalls/frame at {fps:.0} frames/s");
}
