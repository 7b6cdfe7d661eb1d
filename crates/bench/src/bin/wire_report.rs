//! Generates `BENCH_wire.json`: metadata wire cost and send / receive
//! wall-clock for the two wire modes (raw, compressed) across ring /
//! binary-tree / clique share graphs.
//!
//! Two byte metrics, two denominators:
//! * `bytes_per_update` — total metadata bytes / client **writes**: what
//!   one write costs across its whole fan-out (the README/DESIGN
//!   framing).
//! * `bytes_per_message` — total metadata bytes / **messages**: what one
//!   per-recipient frame carries on the wire.
//!
//! Earlier revisions reported the per-message number under the
//! per-update label; both are now emitted explicitly.
//!
//! Usage:
//!   cargo run --release -p prcc-bench --bin wire_report > BENCH_wire.json
//!
//! Flags:
//!   --quick   small sweep (CI smoke: ring/tree/clique at n = 12 and 24)
//!   --check   exit non-zero unless, on ring(12), compressed beats raw on
//!             bytes, and on clique(24): compressed ns/send stays within
//!             5x of raw, the compression ratio stays >= 8x, and
//!             bytes_per_message stays <= 530

use prcc_core::{System, Value, WireMode};
use prcc_net::DelayModel;
use prcc_sharegraph::{topology, ShareGraph};
use std::time::Instant;

struct Row {
    topology: &'static str,
    n: usize,
    mode: &'static str,
    writes: usize,
    messages: usize,
    metadata_bytes: usize,
    bytes_per_update: f64,
    bytes_per_message: f64,
    ns_per_send: f64,
    ns_per_receive: f64,
}

fn build(topology: &str, n: usize) -> ShareGraph {
    match topology {
        "ring" => topology::ring(n),
        "tree" => topology::binary_tree(n),
        "clique" => topology::clique_full(n, 2),
        _ => unreachable!(),
    }
}

/// One measured run: every replica writes one of its registers,
/// `rounds` times, with the network drained after the write phase.
fn run_once(g: &ShareGraph, mode: WireMode, rounds: usize) -> (usize, usize, u128, u128, usize) {
    let mut sys = System::builder(g.clone())
        .wire_mode(mode)
        .delay(DelayModel::Fixed(1))
        .seed(42)
        .build();
    let per_replica: Vec<_> = g
        .replicas()
        .map(|i| {
            (
                i,
                g.placement()
                    .registers_of(i)
                    .iter()
                    .next()
                    .expect("every replica stores a register"),
            )
        })
        .collect();

    let mut send_ns = 0u128;
    let mut recv_ns = 0u128;
    let mut writes = 0usize;
    for round in 0..rounds {
        for &(i, x) in &per_replica {
            let t = Instant::now();
            sys.write(i, x, Value::from(round as u64));
            send_ns += t.elapsed().as_nanos();
            writes += 1;
        }
        // Interleaved drain so timestamps accumulate causal structure
        // (and delta frames see realistic counter movement).
        let t = Instant::now();
        for _ in 0..per_replica.len() {
            sys.step();
        }
        recv_ns += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    sys.run_to_quiescence();
    recv_ns += t.elapsed().as_nanos();

    assert!(
        sys.check().is_consistent(),
        "bench run must stay consistent"
    );
    assert_eq!(
        sys.net_stats().codec_demotions,
        0,
        "registry layouts must never demote"
    );
    let m = sys.metrics();
    let messages = m.data_messages + m.meta_messages;
    (writes, messages, send_ns, recv_ns, m.metadata_bytes)
}

fn measure(topology: &'static str, n: usize, mode: WireMode, rounds: usize, reps: usize) -> Row {
    let g = build(topology, n);
    let mut send_times = Vec::new();
    let mut recv_times = Vec::new();
    let (mut writes, mut messages, mut bytes) = (0, 0, 0);
    for _ in 0..reps {
        let (w, msg, s, r, b) = run_once(&g, mode, rounds);
        writes = w;
        messages = msg;
        bytes = b;
        send_times.push(s);
        recv_times.push(r);
    }
    send_times.sort_unstable();
    recv_times.sort_unstable();
    Row {
        topology,
        n,
        mode: mode.name(),
        writes,
        messages,
        metadata_bytes: bytes,
        bytes_per_update: bytes as f64 / writes.max(1) as f64,
        bytes_per_message: bytes as f64 / messages.max(1) as f64,
        ns_per_send: send_times[send_times.len() / 2] as f64 / writes.max(1) as f64,
        ns_per_receive: recv_times[recv_times.len() / 2] as f64 / messages.max(1) as f64,
    }
}

const MODES: [WireMode; 2] = [WireMode::Raw, WireMode::Compressed];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    // The quick sweep keeps n = 24 so the CI gate exercises the dense
    // fan-out the encode-once path exists for.
    let sizes: &[usize] = if quick { &[12, 24] } else { &[6, 12, 24] };
    let (rounds, reps) = if quick { (10, 3) } else { (40, 5) };

    let mut rows = Vec::new();
    for &topology in &["ring", "tree", "clique"] {
        for &n in sizes {
            for mode in MODES {
                rows.push(measure(topology, n, mode, rounds, reps));
            }
        }
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"bench\":\"wire/{}\",\"n\":{},\"mode\":\"{}\",\"writes\":{},\
\"messages\":{},\"metadata_bytes\":{},\"bytes_per_update\":{:.2},\
\"bytes_per_message\":{:.2},\"ns_per_send\":{:.0},\"ns_per_receive\":{:.0}}}",
                r.topology,
                r.n,
                r.mode,
                r.writes,
                r.messages,
                r.metadata_bytes,
                r.bytes_per_update,
                r.bytes_per_message,
                r.ns_per_send,
                r.ns_per_receive
            )
        })
        .collect();

    println!("{{");
    println!(
        "  \"description\": \"metadata wire cost under raw / compressed \
framing; bytes_per_update divides by client writes (whole fan-out), bytes_per_message by \
per-recipient messages; ns/send covers advance+encode+enqueue per write, ns/receive covers \
delivery+J+merge+apply per message\","
    );
    println!("  \"command\": \"cargo run --release -p prcc-bench --bin wire_report\",");
    println!("  \"results\": [");
    println!("{}", json_rows.join(",\n"));
    println!("  ]");
    println!("}}");

    if check {
        let find = |topology: &str, n: usize, mode: &str| {
            rows.iter()
                .find(|r| r.topology == topology && r.n == n && r.mode == mode)
                .unwrap_or_else(|| {
                    eprintln!("check: {topology}({n}) {mode} row missing");
                    std::process::exit(1);
                })
        };
        let mut failed = false;

        // Gate 1: the codec's headline byte win on ring(12).
        let raw = find("ring", 12, "raw");
        let comp = find("ring", 12, "compressed");
        if comp.bytes_per_update >= raw.bytes_per_update {
            eprintln!(
                "check FAILED: ring(12) compressed {:.2} B/update >= raw {:.2}",
                comp.bytes_per_update, raw.bytes_per_update
            );
            failed = true;
        } else {
            eprintln!(
                "check ok: ring(12) compressed {:.2} B/update vs raw {:.2} ({:.1}x)",
                comp.bytes_per_update,
                raw.bytes_per_update,
                raw.bytes_per_update / comp.bytes_per_update
            );
        }

        // Gate 2: dense-graph CPU tax. Encode-once fan-out must keep
        // clique(24) compressed sends within 5x of raw.
        let raw24 = find("clique", 24, "raw");
        let comp24 = find("clique", 24, "compressed");
        let tax = comp24.ns_per_send / raw24.ns_per_send.max(1.0);
        if tax > 5.0 {
            eprintln!(
                "check FAILED: clique(24) compressed {:.0} ns/send is {tax:.1}x raw {:.0} (> 5x)",
                comp24.ns_per_send, raw24.ns_per_send
            );
            failed = true;
        } else {
            eprintln!(
                "check ok: clique(24) compressed {:.0} ns/send is {tax:.1}x raw {:.0}",
                comp24.ns_per_send, raw24.ns_per_send
            );
        }

        // Gate 3: the byte win must not regress while chasing CPU.
        let ratio = raw24.bytes_per_message / comp24.bytes_per_message.max(1.0);
        if ratio < 8.0 {
            eprintln!(
                "check FAILED: clique(24) compression ratio {ratio:.1}x < 8x \
(raw {:.2} vs compressed {:.2} B/message)",
                raw24.bytes_per_message, comp24.bytes_per_message
            );
            failed = true;
        } else {
            eprintln!("check ok: clique(24) compression ratio {ratio:.1}x");
        }
        if comp24.bytes_per_message > 530.0 {
            eprintln!(
                "check FAILED: clique(24) compressed {:.2} B/message > 530",
                comp24.bytes_per_message
            );
            failed = true;
        } else {
            eprintln!(
                "check ok: clique(24) compressed {:.2} B/message <= 530",
                comp24.bytes_per_message
            );
        }

        if failed {
            std::process::exit(1);
        }
    }
}
