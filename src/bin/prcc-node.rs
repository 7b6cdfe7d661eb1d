//! `prcc-node` — one replica of a PRCC cluster as a real OS process,
//! its peers reachable over TCP.
//!
//! ```text
//! prcc-node --config cluster.toml --id 2     # run replica 2 of the cluster
//! prcc-node --launch 3 [--topology ring:3] [--wire compressed] [--rounds 6]
//! ```
//!
//! **Node mode** reads a static cluster config (a small TOML subset, see
//! below), starts a [`NodeRuntime`] on the configured listen address,
//! drives its share of the seeded single-writer workload
//! ([`NetWorkload`] — a pure function of the share graph, so processes
//! never exchange it), waits for quiescence, and emits a line-oriented
//! report on stdout: store fingerprint, canonical store lines, the
//! node's event log, and socket statistics. It then blocks until the
//! driver writes a line on stdin (or closes it) before shutting down —
//! a node must outlive its peers' retransmission windows even after it
//! is locally quiescent.
//!
//! **Driver mode** (`--launch n`) picks n loopback ports, writes the
//! config, spawns n child `prcc-node` processes, collects their
//! reports, and gates them differentially: every node's store must be
//! byte-identical to an in-process [`ThreadedCluster`] oracle run of
//! the same workload, and the merged cross-process event trace must
//! pass the causal-consistency checker. The summary is printed as JSON;
//! the exit status is non-zero on any mismatch.
//!
//! Config format:
//!
//! ```toml
//! [cluster]
//! topology = "ring:3"      # ring:n path:n star:leaves tree:n grid:wxh clique:nxr
//! wire = "compressed"      # raw | compressed
//! rounds = 6               # writes per register
//! session = true           # arm per-link retransmission (recommended)
//!
//! [[node]]
//! id = 0
//! addr = "127.0.0.1:47311"
//! # ... one [[node]] per replica
//! ```

use prcc::checker::{check, UpdateId};
use prcc::core::runtime::{NodeRuntime, ThreadedCluster};
use prcc::core::{merge_node_events, ClusterConfig, NodeEvent, WireMode};
use prcc::net::{BoundListener, DelayModel, SessionConfig, TcpNetConfig, TcpStatsSnapshot};
use prcc::sharegraph::{topology, RegisterId, ReplicaId};
use prcc::sim::netrun::{store_fingerprint, store_lines, NetWorkload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "prcc-node — one replica of a PRCC cluster over real TCP\n\
     \n\
     usage: prcc-node --config <file> --id <n>        run one replica\n\
     \x20      prcc-node --launch <n> [options]          drive an n-process loopback cluster\n\
     \n\
     driver options:\n\
     \x20  --topology <spec>     ring:n path:n star:n tree:n grid:wxh clique:nxr (default ring:<n>)\n\
     \x20  --wire <mode>         raw | compressed (default compressed)\n\
     \x20  --rounds <k>          writes per register (default 6)\n\
     \x20  --timeout-secs <s>    per-node quiescence timeout (default 60)\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{USAGE}");
        return;
    }
    let code = if flag(&args, "--launch").is_some() {
        run_driver(&args)
    } else {
        run_node(&args)
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// A session tuned for loopback round trips, so any startup shed is
/// repaired within a few tens of milliseconds.
fn loopback_session() -> SessionConfig {
    SessionConfig {
        rto_base: 20,
        rto_max: 200,
        jitter: 5,
        ack_delay: 0,
    }
}

// ---------------------------------------------------------------------------
// Cluster config: a hand-rolled parser for the tiny TOML subset above.
// The build is fully offline, so no external TOML crate is available —
// and the subset (two table kinds, string/int/bool values) does not
// justify vendoring one.
// ---------------------------------------------------------------------------

struct ClusterSpec {
    topology: String,
    wire: WireMode,
    rounds: u64,
    session: bool,
    /// `(id, addr)` per node, sorted by id after parsing.
    nodes: Vec<(u32, SocketAddr)>,
}

impl ClusterSpec {
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            wire: self.wire,
            session: self.session.then(loopback_session),
            ..ClusterConfig::default()
        }
    }

    fn to_toml(&self) -> String {
        let mut s = format!(
            "[cluster]\ntopology = \"{}\"\nwire = \"{}\"\nrounds = {}\nsession = {}\n",
            self.topology,
            self.wire.name(),
            self.rounds,
            self.session
        );
        for (id, addr) in &self.nodes {
            s.push_str(&format!("\n[[node]]\nid = {id}\naddr = \"{addr}\"\n"));
        }
        s
    }
}

fn parse_config(text: &str) -> Result<ClusterSpec, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Cluster,
        Node,
    }
    let mut section = Section::None;
    let mut topology_spec = None;
    let mut wire = WireMode::Compressed;
    let mut rounds = 6u64;
    let mut session = true;
    let mut nodes: Vec<(Option<u32>, Option<SocketAddr>)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("config line {}: {msg}", lineno + 1);
        if line == "[cluster]" {
            section = Section::Cluster;
            continue;
        }
        if line == "[[node]]" {
            section = Section::Node;
            nodes.push((None, None));
            continue;
        }
        if line.starts_with('[') {
            return Err(at(format!("unknown section '{line}'")));
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| at(format!("expected key = value, got '{line}'")))?;
        let unquote = |v: &str| -> Result<String, String> {
            let inner = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| at(format!("expected a quoted string for '{key}'")))?;
            Ok(inner.to_string())
        };
        match section {
            Section::Cluster => match key {
                "topology" => topology_spec = Some(unquote(value)?),
                "wire" => wire = unquote(value)?.parse().map_err(at)?,
                "rounds" => {
                    rounds = value
                        .parse()
                        .map_err(|_| at(format!("bad integer '{value}'")))?
                }
                "session" => {
                    session = value
                        .parse()
                        .map_err(|_| at(format!("bad bool '{value}'")))?
                }
                other => return Err(at(format!("unknown cluster key '{other}'"))),
            },
            Section::Node => {
                let node = nodes.last_mut().expect("section implies an entry");
                match key {
                    "id" => {
                        node.0 = Some(
                            value
                                .parse()
                                .map_err(|_| at(format!("bad integer '{value}'")))?,
                        )
                    }
                    "addr" => {
                        node.1 = Some(
                            unquote(value)?
                                .parse()
                                .map_err(|_| at(format!("bad socket address '{value}'")))?,
                        )
                    }
                    other => return Err(at(format!("unknown node key '{other}'"))),
                }
            }
            Section::None => return Err(at("key outside any section".into())),
        }
    }

    let topology = topology_spec.ok_or("config is missing cluster.topology")?;
    let mut resolved = Vec::with_capacity(nodes.len());
    for (i, (id, addr)) in nodes.into_iter().enumerate() {
        resolved.push((
            id.ok_or(format!("node entry {i} is missing 'id'"))?,
            addr.ok_or(format!("node entry {i} is missing 'addr'"))?,
        ));
    }
    resolved.sort_by_key(|(id, _)| *id);
    Ok(ClusterSpec {
        topology,
        wire,
        rounds,
        session,
        nodes: resolved,
    })
}

// ---------------------------------------------------------------------------
// Node mode
// ---------------------------------------------------------------------------

fn run_node(args: &[String]) -> i32 {
    match try_run_node(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("prcc-node: {e}");
            1
        }
    }
}

fn try_run_node(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--config").ok_or("node mode needs --config <file>")?;
    let id: u32 = flag(args, "--id")
        .ok_or("node mode needs --id <n>")?
        .parse()
        .map_err(|_| "bad --id")?;
    let timeout = Duration::from_secs(
        flag(args, "--timeout-secs")
            .map(|s| s.parse().map_err(|_| "bad --timeout-secs"))
            .transpose()?
            .unwrap_or(60),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let spec = parse_config(&text)?;
    let g = topology::parse(&spec.topology)?;
    if spec.nodes.len() != g.num_replicas() {
        return Err(format!(
            "config has {} node entries but topology '{}' has {} replicas",
            spec.nodes.len(),
            spec.topology,
            g.num_replicas()
        ));
    }
    let me = ReplicaId::new(id);
    let my_addr = spec
        .nodes
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, a)| *a)
        .ok_or(format!("config has no node entry for id {id}"))?;
    let peers: HashMap<ReplicaId, SocketAddr> = spec
        .nodes
        .iter()
        .filter(|(i, _)| *i != id)
        .map(|(i, a)| (ReplicaId::new(*i), *a))
        .collect();

    let wl = NetWorkload::new(&g, spec.rounds);
    let expected = wl.expected_applies(&g, me);
    let bound = BoundListener::bind(me, my_addr).map_err(|e| format!("bind {my_addr}: {e}"))?;
    let rt = NodeRuntime::start(
        g.clone(),
        spec.cluster_config(),
        TcpNetConfig::default(),
        bound,
        peers,
    )
    .map_err(|e| format!("start node {id}: {e}"))?;

    for round in 0..spec.rounds {
        for &x in wl.registers_of(me) {
            rt.write(x, prcc::sim::netrun::write_value(x, round));
        }
    }
    let quiescent = rt.wait_quiescent(expected, timeout);

    let view = rt.store_snapshot();
    let stats = rt.tcp_stats();
    let mut out = String::new();
    out.push_str(&format!("node {id}\n"));
    out.push_str(&format!("fingerprint {:016x}\n", store_fingerprint(&view)));
    out.push_str(&format!("applied {}\n", rt.total_applied()));
    out.push_str(&format!("sent {}\n", rt.total_sent()));
    out.push_str(&format!("quiescent {quiescent}\n"));
    for line in store_lines(&view) {
        out.push_str(&format!("store {line}\n"));
    }
    for ev in rt.events() {
        match ev {
            NodeEvent::Issue { id, register } => out.push_str(&format!(
                "event I {} {} {}\n",
                id.issuer.raw(),
                id.seq,
                register.raw()
            )),
            NodeEvent::Apply { id } => {
                out.push_str(&format!("event A {} {}\n", id.issuer.raw(), id.seq))
            }
        }
    }
    out.push_str(&format!(
        "stats {} {} {} {} {} {} {} {} {}\n",
        stats.write_syscalls,
        stats.read_syscalls,
        stats.bytes_sent,
        stats.bytes_received,
        stats.frames_sent,
        stats.frames_received,
        stats.reconnects,
        stats.shed_outbound,
        stats.decode_errors,
    ));
    out.push_str("end\n");
    let stdout = std::io::stdout();
    let mut h = stdout.lock();
    h.write_all(out.as_bytes()).map_err(|e| e.to_string())?;
    h.flush().map_err(|e| e.to_string())?;

    // Stay up until the driver releases us (or closes our stdin): peers
    // may still be pulling this node's frames through retransmission.
    let applied = rt.total_applied();
    let mut release = String::new();
    let _ = std::io::stdin().lock().read_line(&mut release);
    drop(rt);
    if quiescent {
        Ok(())
    } else {
        Err(format!(
            "node {id} timed out before quiescence ({applied} / {expected} applies)"
        ))
    }
}

// ---------------------------------------------------------------------------
// Driver mode
// ---------------------------------------------------------------------------

struct NodeReport {
    id: u32,
    fingerprint: String,
    quiescent: bool,
    store: Vec<String>,
    events: Vec<NodeEvent>,
    stats: TcpStatsSnapshot,
}

fn parse_report(lines: &[String]) -> Result<NodeReport, String> {
    let mut id = None;
    let mut fingerprint = String::new();
    let mut quiescent = false;
    let mut store = Vec::new();
    let mut events = Vec::new();
    let mut stats = TcpStatsSnapshot::default();
    let mut saw_end = false;
    for line in lines {
        let mut parts = line.split(' ');
        let key = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let int = |s: &&str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad report line '{line}'"))
        };
        match key {
            "node" => id = Some(int(&rest[0])? as u32),
            "fingerprint" => fingerprint = rest[0].to_string(),
            "applied" | "sent" => {}
            "quiescent" => quiescent = rest[0] == "true",
            "store" => store.push(rest.join(" ")),
            "event" => {
                let uid = UpdateId {
                    issuer: ReplicaId::new(int(&rest[1])? as u32),
                    seq: int(&rest[2])?,
                };
                events.push(match rest[0] {
                    "I" => NodeEvent::Issue {
                        id: uid,
                        register: RegisterId::new(int(&rest[3])? as u32),
                    },
                    "A" => NodeEvent::Apply { id: uid },
                    other => return Err(format!("bad event kind '{other}'")),
                });
            }
            "stats" => {
                let v: Vec<u64> = rest.iter().map(int).collect::<Result<_, _>>()?;
                if v.len() != 9 {
                    return Err(format!("bad stats line '{line}'"));
                }
                stats = TcpStatsSnapshot {
                    write_syscalls: v[0],
                    read_syscalls: v[1],
                    bytes_sent: v[2],
                    bytes_received: v[3],
                    frames_sent: v[4],
                    frames_received: v[5],
                    reconnects: v[6],
                    shed_outbound: v[7],
                    decode_errors: v[8],
                };
            }
            "end" => saw_end = true,
            other => return Err(format!("unknown report key '{other}'")),
        }
    }
    if !saw_end {
        return Err("truncated report (no 'end' line)".into());
    }
    Ok(NodeReport {
        id: id.ok_or("report has no 'node' line")?,
        fingerprint,
        quiescent,
        store,
        events,
        stats,
    })
}

fn run_driver(args: &[String]) -> i32 {
    match try_run_driver(args) {
        Ok(ok) => {
            if ok {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("prcc-node --launch: {e}");
            1
        }
    }
}

fn try_run_driver(args: &[String]) -> Result<bool, String> {
    let n: usize = flag(args, "--launch")
        .expect("checked by caller")
        .parse()
        .map_err(|_| "bad --launch <n>")?;
    if n < 2 {
        return Err("--launch needs at least 2 nodes".into());
    }
    let topology_spec = flag(args, "--topology").unwrap_or_else(|| format!("ring:{n}"));
    let wire: WireMode = flag(args, "--wire")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or_default();
    let rounds: u64 = flag(args, "--rounds")
        .map(|s| s.parse().map_err(|_| "bad --rounds"))
        .transpose()?
        .unwrap_or(6);
    let timeout_secs: u64 = flag(args, "--timeout-secs")
        .map(|s| s.parse().map_err(|_| "bad --timeout-secs"))
        .transpose()?
        .unwrap_or(60);

    let g = topology::parse(&topology_spec)?;
    if g.num_replicas() != n {
        return Err(format!(
            "--launch {n} but topology '{topology_spec}' has {} replicas",
            g.num_replicas()
        ));
    }

    // Pick n free loopback ports: bind ephemeral, record, release. The
    // children re-bind them from the written config; on loopback the
    // window for another process to steal one is negligible.
    let addrs: Vec<SocketAddr> = (0..n)
        .map(|_| {
            let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
            l.local_addr().map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let spec = ClusterSpec {
        topology: topology_spec.clone(),
        wire,
        rounds,
        session: true,
        nodes: (0..n).map(|i| (i as u32, addrs[i])).collect(),
    };
    let config_path =
        std::env::temp_dir().join(format!("prcc-cluster-{}-{n}.toml", std::process::id()));
    std::fs::write(&config_path, spec.to_toml()).map_err(|e| e.to_string())?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let child = Command::new(&exe)
            .arg("--config")
            .arg(&config_path)
            .arg("--id")
            .arg(i.to_string())
            .arg("--timeout-secs")
            .arg(timeout_secs.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn node {i}: {e}"))?;
        children.push(child);
    }

    // Pull each child's report on its own thread — a node's report must
    // never back up behind another node's unread pipe.
    let mut readers = Vec::with_capacity(n);
    for child in &mut children {
        let stdout = child.stdout.take().expect("stdout was piped");
        readers.push(std::thread::spawn(
            move || -> Result<Vec<String>, String> {
                let mut lines = Vec::new();
                for line in BufReader::new(stdout).lines() {
                    let line = line.map_err(|e| e.to_string())?;
                    let done = line == "end";
                    lines.push(line);
                    if done {
                        break;
                    }
                }
                Ok(lines)
            },
        ));
    }
    let mut reports: Vec<NodeReport> = Vec::with_capacity(n);
    let mut failures: Vec<String> = Vec::new();
    for (i, reader) in readers.into_iter().enumerate() {
        match reader.join().expect("reader thread must not panic") {
            Ok(lines) => match parse_report(&lines) {
                Ok(r) => reports.push(r),
                Err(e) => failures.push(format!("node {i}: {e}")),
            },
            Err(e) => failures.push(format!("node {i}: read report: {e}")),
        }
    }
    // All reports are in (every node quiescent), so every update has
    // landed everywhere — release the children.
    for child in &mut children {
        if let Some(stdin) = child.stdin.as_mut() {
            let _ = stdin.write_all(b"exit\n");
        }
    }
    for (i, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if !status.success() => {
                failures.push(format!("node {i} exited with {status}"))
            }
            Err(e) => failures.push(format!("wait node {i}: {e}")),
            _ => {}
        }
    }
    let _ = std::fs::remove_file(&config_path);
    let elapsed = started.elapsed();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("prcc-node --launch: {f}");
        }
        return Ok(false);
    }
    reports.sort_by_key(|r| r.id);

    // Differential gate 1: every socket-run store is byte-identical to
    // the in-process oracle's.
    let oracle =
        ThreadedCluster::with_config(g.clone(), DelayModel::Fixed(0), 1, spec.cluster_config());
    let wl = NetWorkload::new(&g, rounds);
    wl.drive(&oracle);
    oracle.settle();
    let mut stores_match = true;
    for r in &reports {
        let want = store_lines(&oracle.store_snapshot(ReplicaId::new(r.id)));
        if r.store != want {
            stores_match = false;
            eprintln!(
                "prcc-node --launch: node {} store diverges from oracle\n  got:  {:?}\n  want: {:?}",
                r.id, r.store, want
            );
        }
    }
    let oracle_consistent = oracle.check().is_consistent();

    // Differential gate 2: the merged cross-process trace is causally
    // consistent.
    let logs: Vec<Vec<NodeEvent>> = reports.iter().map(|r| r.events.clone()).collect();
    let trace = merge_node_events(&logs);
    let report = check(&trace, g.placement());
    let consistent = report.is_consistent();
    if !consistent {
        eprintln!(
            "prcc-node --launch: merged trace violates causal consistency: {:?}",
            report.violations
        );
    }

    let all_quiescent = reports.iter().all(|r| r.quiescent);
    let bytes_on_wire: u64 = reports.iter().map(|r| r.stats.bytes_sent).sum();
    let write_syscalls: u64 = reports.iter().map(|r| r.stats.write_syscalls).sum();
    let sheds: u64 = reports.iter().map(|r| r.stats.shed_outbound).sum();
    let decode_errors: u64 = reports.iter().map(|r| r.stats.decode_errors).sum();
    let fingerprints: Vec<String> = reports.iter().map(|r| r.fingerprint.clone()).collect();
    let ok = stores_match && consistent && oracle_consistent && all_quiescent;

    println!("{{");
    println!("  \"topology\": \"{topology_spec}\",");
    println!("  \"wire\": \"{}\",", wire.name());
    println!("  \"nodes\": {n},");
    println!("  \"rounds\": {rounds},");
    println!("  \"total_writes\": {},", wl.total_writes());
    println!("  \"elapsed_ms\": {},", elapsed.as_millis());
    println!("  \"all_quiescent\": {all_quiescent},");
    println!("  \"stores_match\": {stores_match},");
    println!("  \"consistent\": {consistent},");
    println!("  \"bytes_on_wire\": {bytes_on_wire},");
    println!("  \"write_syscalls\": {write_syscalls},");
    println!("  \"shed_outbound\": {sheds},");
    println!("  \"decode_errors\": {decode_errors},");
    println!(
        "  \"fingerprints\": [{}],",
        fingerprints
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  \"ok\": {ok}");
    println!("}}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: &str = "[cluster]\ntopology = \"ring:2\"\nwire = \"raw\"\n\n\
                          [[node]]\nid = 0\naddr = \"127.0.0.1:1\"\n\n\
                          [[node]]\nid = 1\naddr = \"127.0.0.1:2\"\n";

    #[test]
    fn config_round_trips_every_wire_mode() {
        for wire in [WireMode::Raw, WireMode::Compressed] {
            let spec = ClusterSpec {
                wire,
                ..parse_config(CONFIG).unwrap()
            };
            assert_eq!(parse_config(&spec.to_toml()).unwrap().wire, wire);
        }
    }

    #[test]
    fn config_rejects_a_deleted_wire_mode_with_its_line() {
        let text = CONFIG.replace("\"raw\"", "\"adaptive\"");
        let err = parse_config(&text)
            .err()
            .expect("adaptive is not a wire mode");
        assert!(err.starts_with("config line 3: "), "{err}");
        assert!(
            err.contains("adaptive") && err.contains("compressed"),
            "{err}"
        );
    }
}
