//! The worker pool's wait discipline, pinned from outside.
//!
//! A worker has one blocking point: it parks until the next frame or
//! session timer of any of its replicas and is woken early only when a
//! producer pulls its timer in; writes run on the caller's thread and
//! ship their own batches, so no timer holds a batch open. The pass
//! counter counts the passes that serviced a replica, so these budgets
//! hold on any core count (CI also runs this file under `taskset -c 0`,
//! where every replica shares one worker). Four things can go wrong with that and
//! none of them fails a functional test, so each gets a regression test
//! here:
//!
//! * **spinning** — a pass without work (the loop once stayed hot for a
//!   whole coalescing window and polled every 200 µs when idle). Pinned
//!   by the per-replica pass counter;
//! * **a write that wakes its own replica** — a write is an engine call
//!   on the caller's thread; a write routed through the loop would cost
//!   the replica one pass per write;
//! * **a lost wake-up** — an arrival that does not ring the doorbell is
//!   only noticed when the idle park runs out, so it shows as a round
//!   trip that took [`IDLE_PARK`] instead of well under a millisecond;
//! * **a hung shutdown** — the parked loop must notice `Drop` without
//!   being told through `shutdown()`.

use prcc_core::runtime::{ThreadedCluster, IDLE_PARK};
use prcc_core::{ClusterConfig, Value};
use prcc_net::{BoundListener, DelayModel, SessionConfig, TcpNetConfig};
use prcc_sharegraph::{topology, RegisterId, ReplicaId};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

#[test]
fn one_write_costs_a_handful_of_passes_not_a_spin() {
    let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(1), 1);
    let before = cluster.loop_passes(r(0));
    cluster.write(r(0), RegisterId::new(0), Value::from(1u64));
    cluster.settle();
    assert_eq!(
        cluster.read(r(1), RegisterId::new(0)),
        Some(Value::from(1u64))
    );
    // A few idle parks while `settle` waits out its 50 ms grace period;
    // the write itself ran on this thread.
    let passes = cluster.loop_passes(r(0)) - before;
    assert!(
        passes <= 20,
        "writer made {passes} passes for one write — it is spinning"
    );
}

#[test]
fn a_write_wakes_no_thread_at_its_own_replica() {
    // path(2) without a session: a write at r0 ships to r1 and arms no
    // timer, so r0's loop passes only when its idle park runs out.
    let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(1), 5);
    std::thread::sleep(Duration::from_millis(20));
    let before = cluster.loop_passes(r(0));
    let t = Instant::now();
    for k in 0..1_000u64 {
        cluster.write(r(0), RegisterId::new(0), Value::from(k));
    }
    let elapsed = t.elapsed();
    let passes = cluster.loop_passes(r(0)) - before;
    let idle = (elapsed.as_secs_f64() / IDLE_PARK.as_secs_f64()) as u64;
    assert!(
        passes <= 3 + idle,
        "1 000 writes over {elapsed:?} cost their replica {passes} loop passes \
         (at most {} for its idle parks)",
        3 + idle
    );
}

#[test]
fn an_idle_cluster_barely_passes() {
    let g = topology::ring(4);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(1), 2);
    // Let every thread reach its first park.
    std::thread::sleep(Duration::from_millis(50));
    let before: Vec<u64> = g.replicas().map(|i| cluster.loop_passes(i)).collect();
    let t = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let secs = t.elapsed().as_secs_f64();
    for (i, b) in g.replicas().zip(before) {
        let per_sec = (cluster.loop_passes(i) - b) as f64 / secs;
        assert!(
            per_sec <= 200.0,
            "idle replica {i} makes {per_sec:.0} passes/s — it is polling"
        );
    }
}

/// `rounds` sequential write → visible-at-every-holder round trips, each
/// timed. A lost wake-up costs exactly one full idle park; a scheduling
/// hiccup is shorter and does not repeat — so at most two round trips may
/// take longer than half the park.
fn assert_no_round_trip_waits_out_the_idle_park(cluster: &ThreadedCluster, rounds: u64) {
    let g = cluster.graph().clone();
    let n = g.num_replicas() as u64;
    let mut slow = Vec::new();
    for k in 0..rounds {
        let writer = r((k % n) as u32);
        let x = g
            .placement()
            .registers_of(writer)
            .iter()
            .next()
            .expect("every ring replica stores a register");
        let t = Instant::now();
        let uid = cluster.write(writer, x, Value::from(k));
        for &h in g.placement().holders(x) {
            while !cluster.store_snapshot(h).covers(uid) {
                assert!(
                    t.elapsed() < Duration::from_secs(30),
                    "round trip {k}: {uid} never became visible at {h}"
                );
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let took = t.elapsed();
        if took > IDLE_PARK / 2 {
            slow.push((k, took));
        }
    }
    assert!(
        slow.len() <= 2,
        "{} of {rounds} round trips waited out the idle park ({IDLE_PARK:?}) — \
         an arrival is not ringing the doorbell; the first few: {:?}",
        slow.len(),
        &slow[..slow.len().min(8)]
    );
}

#[test]
fn no_lost_wake_up_over_thread_net() {
    let cluster = ThreadedCluster::new(topology::ring(4), DelayModel::Fixed(1), 3);
    assert_no_round_trip_waits_out_the_idle_park(&cluster, 2_000);
}

#[test]
fn no_lost_wake_up_over_loopback_tcp() {
    let g = topology::ring(4);
    let cluster = ThreadedCluster::with_tcp(
        g.clone(),
        ClusterConfig {
            // Repairs a frame shed while a connection is still coming
            // up; its 600 ms RTO is far above the threshold, so it cannot
            // hide a lost wake-up.
            session: Some(SessionConfig::default()),
            ..ClusterConfig::default()
        },
        TcpNetConfig::default(),
    )
    .expect("loopback TCP cluster must start");
    // Connections are lazy: bring every link up outside the timed part.
    for i in g.replicas() {
        let x = g.placement().registers_of(i).iter().next().unwrap();
        cluster.write(i, x, Value::from(0u64));
    }
    cluster.settle();
    assert_no_round_trip_waits_out_the_idle_park(&cluster, 500);
}

#[test]
fn dropping_a_cluster_joins_its_parked_threads() {
    let cluster = ThreadedCluster::new(topology::ring(4), DelayModel::Fixed(1), 4);
    cluster.write(r(0), RegisterId::new(0), Value::from(1u64));
    cluster.settle();
    // Every loop is parked by now. `Drop` joins them.
    let t = Instant::now();
    drop(cluster);
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "drop took {:?}: a parked replica loop missed the shutdown",
        t.elapsed()
    );
}

#[test]
fn dropping_a_partial_cluster_joins_its_parked_thread() {
    // Two single-replica clusters of path(2), each running the replica
    // whose listener it was given — the `prcc-node` shape, in one process.
    let g = topology::path(2);
    let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
    let bounds: Vec<BoundListener> = g
        .replicas()
        .map(|i| BoundListener::bind(i, loopback).expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = bounds.iter().map(BoundListener::local_addr).collect();
    let nodes: Vec<ThreadedCluster> = bounds
        .into_iter()
        .map(|bound| {
            ThreadedCluster::with_listeners(
                g.clone(),
                ClusterConfig::default(),
                TcpNetConfig::default(),
                vec![bound],
                &addrs,
            )
            .expect("start node")
        })
        .collect();
    nodes[0].write(r(0), RegisterId::new(0), Value::from(7u64));
    assert!(nodes[1].wait_quiescent(1, Duration::from_secs(10)));
    let t = Instant::now();
    drop(nodes);
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "drop took {:?}: a parked node loop missed the shutdown",
        t.elapsed()
    );
}
