//! The socket transport's correctness gate, in-process: the same
//! designated-single-writer workload driven through a TCP-backed cluster
//! (real loopback sockets, kernel framing, link codec) and through the
//! in-process `ThreadedCluster` must end in **byte-identical** stores on
//! every replica, with identical causal-consistency verdicts.

use prcc::checker::check;
use prcc::core::runtime::ThreadedCluster;
use prcc::core::{merge_node_events, ClusterConfig, WireMode};
use prcc::net::{BoundListener, DelayModel, SessionConfig, TcpNetConfig};
use prcc::sharegraph::{topology, ReplicaId};
use prcc::sim::netrun::{store_lines, write_value, NetWorkload};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A session config tuned for loopback RTTs, so any startup shed is
/// repaired quickly.
fn loopback_session() -> SessionConfig {
    SessionConfig {
        rto_base: 20,
        rto_max: 200,
        jitter: 5,
        ack_delay: 0,
    }
}

fn run_differential(g: prcc::sharegraph::ShareGraph, wire: WireMode, rounds: u64) {
    let wl = NetWorkload::new(&g, rounds);
    let config = ClusterConfig {
        wire,
        session: Some(loopback_session()),
        ..ClusterConfig::default()
    };

    // Oracle: the in-process `ThreadNet` with zero-tick delays.
    let oracle = ThreadedCluster::with_config(g.clone(), DelayModel::Fixed(0), 1, config.clone());
    wl.drive(&oracle);
    oracle.settle();

    // Subject: the same replicas over real kernel sockets.
    let tcp = ThreadedCluster::with_tcp(g.clone(), config, TcpNetConfig::default())
        .expect("loopback TCP cluster must start");
    wl.drive(&tcp);
    tcp.settle();

    assert_eq!(
        oracle.total_codec_demotions(),
        0,
        "oracle demoted ({wire:?})"
    );
    assert_eq!(tcp.total_codec_demotions(), 0, "tcp demoted ({wire:?})");
    for i in g.replicas() {
        assert_eq!(
            store_lines(&oracle.store_snapshot(i)),
            store_lines(&tcp.store_snapshot(i)),
            "replica {i} stores diverge between ThreadNet and TCP runs ({wire:?})"
        );
    }
    let oracle_report = oracle.check();
    let tcp_report = tcp.check();
    assert_eq!(
        oracle_report.is_consistent(),
        tcp_report.is_consistent(),
        "checker verdicts diverge ({wire:?}): oracle {:?}, tcp {:?}",
        oracle_report.violations,
        tcp_report.violations
    );
    assert!(
        tcp_report.is_consistent(),
        "TCP run is causally inconsistent: {:?}",
        tcp_report.violations
    );
    // The TCP run really went over sockets.
    let stats = tcp.tcp_stats().expect("tcp cluster reports stats");
    let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    assert!(bytes > 0, "no bytes crossed the kernel");
}

#[test]
fn tcp_matches_router_on_ring_compressed() {
    run_differential(topology::ring(5), WireMode::Compressed, 6);
}

#[test]
fn tcp_matches_router_on_ring_raw() {
    run_differential(topology::ring(4), WireMode::Raw, 5);
}

#[test]
fn tcp_matches_router_on_clique_compressed() {
    run_differential(topology::clique_full(6, 3), WireMode::Compressed, 4);
}

#[test]
fn tcp_matches_router_on_grid_compressed() {
    run_differential(topology::grid(3, 3), WireMode::Compressed, 4);
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// `clique:4x2` split the way two `prcc-node` processes would run it: one
/// cluster runs replica 0 and another runs replicas 1..3, over loopback.
/// Each side drives its own share of the workload and waits for its own
/// expected applies; the merged event logs must be checker-clean and
/// every store must equal the in-process oracle's.
#[test]
fn clusters_split_over_listeners_match_the_oracle() {
    let g = topology::parse("clique:4x2").expect("clique:4x2 parses");
    let wl = NetWorkload::new(&g, 4);
    let config = ClusterConfig {
        session: Some(loopback_session()),
        ..ClusterConfig::default()
    };
    let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
    let mut listeners: Vec<BoundListener> = g
        .replicas()
        .map(|i| BoundListener::bind(i, loopback).expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(BoundListener::local_addr).collect();
    let rest = listeners.split_off(1);
    let start = |listeners| {
        ThreadedCluster::with_listeners(
            g.clone(),
            config.clone(),
            TcpNetConfig::default(),
            listeners,
            &addrs,
        )
        .expect("start a partial cluster")
    };
    let sides = [start(listeners), start(rest)];
    let side_of = |i: ReplicaId| &sides[usize::from(i.index() > 0)];
    for round in 0..wl.rounds() {
        for i in g.replicas() {
            for &x in wl.registers_of(i) {
                side_of(i).write(i, x, write_value(x, round));
            }
        }
    }
    for (side, replicas) in sides.iter().zip([0..1, 1..g.num_replicas()]) {
        let expected: usize = replicas
            .map(|i| wl.expected_applies(&g, ReplicaId::new(i as u32)))
            .sum();
        assert!(
            side.wait_quiescent(expected, Duration::from_secs(30)),
            "a side never applied its {expected} expected updates"
        );
    }

    let logs: Vec<_> = g.replicas().map(|i| side_of(i).events(i)).collect();
    let trace = merge_node_events(&logs);
    assert_eq!(trace.num_updates(), wl.total_writes());
    let report = check(&trace, g.placement());
    assert!(report.is_consistent(), "{:?}", report.violations);

    let oracle = ThreadedCluster::with_config(g.clone(), DelayModel::Fixed(0), 1, config.clone());
    wl.drive(&oracle);
    oracle.settle();
    for i in g.replicas() {
        assert_eq!(
            store_lines(&side_of(i).store_snapshot(i)),
            store_lines(&oracle.store_snapshot(i)),
            "replica {i} diverges from the oracle"
        );
    }

    let whole = panic_message(|| {
        sides[1].trace_snapshot();
    });
    assert!(
        whole.starts_with("trace_snapshot needs every replica") && whole.contains("wait_quiescent"),
        "{whole}"
    );
    let remote = panic_message(|| {
        sides[0].store_snapshot(ReplicaId::new(1));
    });
    assert_eq!(remote, "replica r1 is not run by this process");
}
