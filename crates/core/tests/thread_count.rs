//! The threaded runtime runs its replicas' engines on one worker thread
//! per core, not one thread per replica. Alone in its own test binary,
//! so no other test starts threads while this one counts them.
//!
//! On a host with 8 or more cores the pool of a ring of 8 has 8 workers,
//! as many as a thread per replica would start: there the gate cannot
//! tell the two designs apart. It bites on smaller hosts (CI runners,
//! `taskset -c 0`).

#[cfg(target_os = "linux")]
#[test]
fn a_cluster_starts_one_thread_per_core_and_drop_ends_them() {
    use prcc_core::runtime::ThreadedCluster;
    use prcc_net::DelayModel;
    use prcc_sharegraph::topology;
    use std::time::{Duration, Instant};

    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = threads();
    let cluster = ThreadedCluster::new(topology::ring(8), DelayModel::Fixed(1), 1);
    let started = threads() - before;
    assert!(
        started <= cores.min(8),
        "a ring of 8 started {started} threads on {cores} cores"
    );
    drop(cluster);
    // A joined thread can linger in /proc for a moment after its exit.
    let t = Instant::now();
    while threads() > before && t.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads(),
        before,
        "dropping the cluster left threads running"
    );
}
