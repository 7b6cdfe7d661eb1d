//! Breaking the ring (Appendix D, Figure 13): trade metadata size for
//! propagation latency by routing one register's updates through virtual
//! registers instead of a direct link.
//!
//! ```text
//! cargo run --example ring_breaking
//! ```

use prcc::core::{RoutedSystem, System, TrackerKind, Value};
use prcc::net::DelayModel;
use prcc::sharegraph::{topology, LoopConfig, RegisterId, ReplicaId};

fn main() {
    let n = 8;
    let r = ReplicaId::new;
    let x = RegisterId::new;

    // Plain ring: every replica must track all 2n directed edges.
    let mut plain = System::builder(topology::ring(n))
        .tracker(TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE))
        .delay(DelayModel::Fixed(5))
        .seed(1)
        .build();
    println!(
        "plain ring(n={n}):   counters per replica = {:?}",
        plain.timestamp_counters()
    );

    // Broken ring: the edge between r7 and r0 is severed; writes to their
    // shared register ride virtual registers the long way around.
    let last = r(n as u32 - 1);
    let mut routed =
        RoutedSystem::new(&topology::ring(n), &[(last, r(0))], DelayModel::Fixed(5), 1)
            .expect("a ring edge is breakable");
    println!(
        "broken ring(n={n}):  counters per replica = {:?}",
        routed.timestamp_counters()
    );

    // Same write load on both.
    for round in 0..5u64 {
        for i in 0..n as u32 {
            plain.write(r(i), x(i), Value::from(round));
            routed.write(r(i), x(i), Value::from(round));
        }
        plain.run_to_quiescence();
        routed.run_to_quiescence();
    }

    let pm = plain.metrics();
    let rm = routed.metrics();
    println!("\n                       plain      broken");
    println!(
        "metadata bytes:   {:>10} {:>10}",
        pm.metadata_bytes, rm.metadata_bytes
    );
    println!(
        "messages:         {:>10} {:>10}",
        pm.data_messages + pm.meta_messages,
        rm.data_messages + rm.meta_messages
    );
    println!(
        "max visibility:   {:>10} {:>10}",
        pm.max_visibility, rm.max_visibility
    );
    println!(
        "mean visibility:  {:>10.1} {:>10.1}",
        pm.mean_visibility(),
        rm.mean_visibility()
    );
    println!(
        "consistent:       {:>10} {:>10}",
        plain.check().is_consistent(),
        routed.check().is_consistent()
    );

    // The broken register (shared by r7 and r0) still converges across
    // the severed edge.
    let broken = x(n as u32 - 1);
    routed.write(r(0), broken, Value::from(12345u64));
    routed.run_to_quiescence();
    println!(
        "\nwrite at r0 to the broken register, read at r{}: {:?}",
        n - 1,
        routed.read(last, broken)
    );
    assert!(plain.check().is_consistent());
    assert!(routed.check().is_consistent());
}
