//! The socket transport's correctness gate, in-process: the same
//! designated-single-writer workload driven through a TCP-backed cluster
//! (real loopback sockets, kernel framing, link codec) and through the
//! in-process `ThreadedCluster` must end in **byte-identical** stores on
//! every replica, with identical causal-consistency verdicts.

use prcc::core::runtime::ThreadedCluster;
use prcc::core::{ClusterConfig, WireMode};
use prcc::net::{DelayModel, SessionConfig, TcpNetConfig};
use prcc::sharegraph::topology;
use prcc::sim::netrun::{store_lines, NetWorkload};

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
