//! Generates `BENCH_throughput.json`: end-to-end update throughput and
//! read latency of the threaded runtime, ring / tree / clique at n = 8,
//! batched pipeline on vs off, 1..8 concurrent writer threads.
//!
//! Each writer owns one replica and one of its registers and issues its
//! writes as pipelined bursts ([`ThreadedCluster::write_burst`]), so the
//! replica threads coalesce under the configured [`BatchPolicy`].
//! Throughput is measured over the whole pipeline — first issue until
//! every remote holder has applied every update — and read latency is
//! sampled from a separate thread hammering the lock-free snapshot
//! path *while* the cluster is under load.
//!
//! Usage:
//!   cargo run --release -p prcc-bench --bin throughput_report > BENCH_throughput.json
//!
//! Flags:
//!   --quick   small sweep (CI smoke: 1 and 8 writers, fewer writes;
//!             still the median of three runs per cell — one 300-write
//!             run swings the clique ratio 1.7–3.8× on a two-core host)
//!   --check   exit non-zero unless batched updates/sec beats unbatched
//!             by >= 2x on clique(8) at the maximum writer count

use prcc_core::{BatchPolicy, ClusterConfig, ThreadedCluster, Value};
use prcc_net::{DelayModel, SessionConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId, ShareGraph};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const N: usize = 8;
/// Runs per cell; a cell reports the median.
const REPS: usize = 3;

struct Row {
    topology: &'static str,
    batch: &'static str,
    writers: usize,
    writes: usize,
    updates_per_sec: f64,
    applies_per_sec: f64,
    read_ns: f64,
    wire_bytes: usize,
    retransmits: usize,
}

fn build(topology: &str) -> ShareGraph {
    match topology {
        "ring" => topology::ring(N),
        "tree" => topology::binary_tree(N),
        "clique" => topology::clique_full(N, 2),
        _ => unreachable!(),
    }
}

/// One register per writer, claimed greedily so writers mostly avoid
/// sharing a register. A topology with fewer registers than writers
/// (e.g. a tree's leaf) falls back to sharing — concurrent writers are
/// fine for causal consistency, the workload just stops being
/// single-writer there.
fn claim_registers(g: &ShareGraph, writers: usize) -> Vec<(ReplicaId, RegisterId)> {
    let mut used = Vec::new();
    let mut out = Vec::new();
    for w in 0..writers {
        let r = ReplicaId::new((w % N) as u32);
        let regs = g.placement().registers_of(r);
        let x = regs
            .iter()
            .find(|x| !used.contains(x))
            .or_else(|| regs.first())
            .expect("every replica stores a register");
        used.push(x);
        out.push((r, x));
    }
    out
}

fn run_once(g: &ShareGraph, batch: bool, writers: usize, writes_per_writer: usize) -> Row {
    let cfg = ClusterConfig {
        session: Some(SessionConfig::default()),
        batch: if batch {
            BatchPolicy::default()
        } else {
            BatchPolicy::unbatched()
        },
        ingress_depth: 8192,
        ..ClusterConfig::default()
    };
    let cluster = ThreadedCluster::with_config(g.clone(), DelayModel::Fixed(1), 42, cfg);
    let assignments = claim_registers(g, writers);
    let expected_applies: usize = assignments
        .iter()
        .map(|&(_, x)| writes_per_writer * (g.placement().holders(x).len() - 1))
        .sum();
    let total_writes = writers * writes_per_writer;

    let done = AtomicBool::new(false);
    let row = {
        let cluster = &cluster;
        let done = &done;
        let (probe_r, probe_x) = assignments[0];
        std::thread::scope(|s| {
            // Latency probe: reads the lock-free snapshot while writers
            // and appliers are running flat out.
            let probe = s.spawn(move || {
                let mut ns = 0u128;
                let mut count = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    std::hint::black_box(cluster.read(probe_r, probe_x));
                    ns += t.elapsed().as_nanos();
                    count += 1;
                }
                (ns, count)
            });

            let t0 = Instant::now();
            std::thread::scope(|inner| {
                for &(r, x) in &assignments {
                    inner.spawn(move || {
                        let burst: Vec<_> = (0..writes_per_writer)
                            .map(|k| (x, Value::from(k as u64)))
                            .collect();
                        cluster.write_burst(r, &burst);
                    });
                }
            });
            // Drain: every remote holder applies every update (the
            // session layer repairs any shed frame, so this terminates).
            let deadline = t0 + Duration::from_secs(120);
            while cluster.total_applied() < expected_applies {
                if Instant::now() > deadline {
                    eprintln!(
                        "throughput run stalled: {}/{} applies",
                        cluster.total_applied(),
                        expected_applies
                    );
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            let elapsed = t0.elapsed();
            done.store(true, Ordering::Relaxed);
            let (ns, count) = probe.join().expect("probe thread");
            let secs = elapsed.as_secs_f64();
            Row {
                topology: "",
                batch: "",
                writers,
                writes: total_writes,
                updates_per_sec: total_writes as f64 / secs,
                applies_per_sec: expected_applies as f64 / secs,
                read_ns: ns as f64 / count.max(1) as f64,
                wire_bytes: cluster.total_wire_bytes(),
                retransmits: cluster.total_retransmits(),
            }
        })
    };
    assert!(
        cluster.check().is_consistent(),
        "throughput run must stay causally consistent"
    );
    row
}

fn measure(topology: &'static str, batch: bool, writers: usize, writes_per_writer: usize) -> Row {
    let g = build(topology);
    let mut rows: Vec<Row> = (0..REPS)
        .map(|_| run_once(&g, batch, writers, writes_per_writer))
        .collect();
    rows.sort_by(|a, b| a.updates_per_sec.total_cmp(&b.updates_per_sec));
    let mut row = rows.remove(rows.len() / 2);
    row.topology = topology;
    row.batch = if batch { "on" } else { "off" };
    row
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let writer_counts: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    let writes_per_writer = if quick { 300 } else { 800 };

    let mut rows = Vec::new();
    for &topology in &["ring", "tree", "clique"] {
        for batch in [true, false] {
            for &w in writer_counts {
                rows.push(measure(topology, batch, w, writes_per_writer));
            }
        }
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"bench\":\"throughput/{}\",\"n\":{},\"batch\":\"{}\",\"writers\":{},\
\"writes\":{},\"updates_per_sec\":{:.0},\"applies_per_sec\":{:.0},\
\"read_ns\":{:.0},\"wire_bytes\":{},\"retransmits\":{}}}",
                r.topology,
                N,
                r.batch,
                r.writers,
                r.writes,
                r.updates_per_sec,
                r.applies_per_sec,
                r.read_ns,
                r.wire_bytes,
                r.retransmits
            )
        })
        .collect();

    println!("{{");
    println!(
        "  \"description\": \"threaded-runtime pipeline throughput: pipelined writer bursts, \
batched vs unbatched shipping, lock-free snapshot reads probed under load; updates/sec is \
first-issue to last-remote-apply\","
    );
    println!("  \"command\": \"cargo run --release -p prcc-bench --bin throughput_report\",");
    println!("  \"results\": [");
    println!("{}", json_rows.join(",\n"));
    println!("  ]");
    println!("}}");

    if check {
        let max_w = *writer_counts.last().expect("writer counts");
        let find = |batch: &str| {
            rows.iter()
                .find(|r| r.topology == "clique" && r.writers == max_w && r.batch == batch)
                .unwrap_or_else(|| {
                    eprintln!("check: clique({N}) writers={max_w} batch={batch} row missing");
                    std::process::exit(1);
                })
        };
        let on = find("on").updates_per_sec;
        let off = find("off").updates_per_sec;
        if on < 2.0 * off {
            eprintln!(
                "check FAILED: clique({N}) batched {on:.0} up/s < 2x unbatched {off:.0} up/s"
            );
            std::process::exit(1);
        }
        eprintln!(
            "check ok: clique({N}) batched {on:.0} up/s vs unbatched {off:.0} ({:.1}x)",
            on / off
        );
    }
}
