//! Parameter sweeps producing CSV series — the figure-shaped data behind
//! experiments E7, E8 and E10.
//!
//! ```text
//! sweep ring      # ring size n vs counters & visibility (plain vs broken)
//! sweep rf        # replication factor vs messages & metadata (edge vs VC)
//! sweep zipf      # workload skew vs staleness & visibility
//! sweep cap       # loop cap vs counters & adversarial violations (ring 8)
//! ```

#![forbid(unsafe_code)]

use prcc_core::{RoutedSystem, System, TrackerKind, Value};
use prcc_net::DelayModel;
use prcc_sharegraph::topology::{self, RandomPlacementConfig};
use prcc_sharegraph::{LoopConfig, RegisterId, ReplicaId, TimestampGraphs};
use prcc_sim::{run_head_to_head, run_scenario, ScenarioConfig, WorkloadConfig};

fn sweep_ring() {
    println!("n,plain_counters,broken_counters,plain_max_vis,broken_max_vis");
    for n in [4usize, 6, 8, 10, 12, 16] {
        let mut plain = System::builder(topology::ring(n))
            .delay(DelayModel::Fixed(5))
            .seed(1)
            .build();
        let severed = (ReplicaId::new(n as u32 - 1), ReplicaId::new(0));
        let mut routed = RoutedSystem::new(&topology::ring(n), &[severed], DelayModel::Fixed(5), 1)
            .expect("a ring edge is breakable");
        for round in 0..3u64 {
            for i in 0..n as u32 {
                plain.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
                routed.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
            }
            plain.run_to_quiescence();
            routed.run_to_quiescence();
        }
        assert!(plain.check().is_consistent() && routed.check().is_consistent());
        println!(
            "{n},{},{},{},{}",
            plain.timestamp_counters().iter().max().unwrap(),
            routed.timestamp_counters().iter().max().unwrap(),
            plain.metrics().max_visibility,
            routed.metrics().max_visibility,
        );
    }
}

fn sweep_rf() {
    println!(
        "rf,edge_msgs,vc_msgs,edge_meta_bytes,vc_meta_bytes,edge_bytes_per_msg,vc_bytes_per_msg"
    );
    for rf in [2usize, 3, 4, 5, 7, 10] {
        let g = topology::random_connected_placement(RandomPlacementConfig {
            replicas: 10,
            registers: 30,
            replication_factor: rf,
            seed: rf as u64,
        });
        let cfg = ScenarioConfig {
            workload: WorkloadConfig {
                writes_per_replica: 20,
                zipf_theta: 0.9,
                seed: 11,
            },
            net_seed: 11,
            steps_between_ops: 3,
            ..Default::default()
        };
        let (edge, vc) = run_head_to_head(&g, &cfg);
        assert!(edge.consistent && vc.consistent, "rf={rf}");
        let em = edge.data_messages + edge.meta_messages;
        let vm = vc.data_messages + vc.meta_messages;
        println!(
            "{rf},{em},{vm},{},{},{:.1},{:.1}",
            edge.metadata_bytes,
            vc.metadata_bytes,
            edge.metadata_bytes as f64 / em.max(1) as f64,
            vc.metadata_bytes as f64 / vm.max(1) as f64,
        );
    }
}

fn sweep_zipf() {
    println!("theta,mean_staleness,max_staleness,p50_vis,p99_vis");
    let g = topology::geo_placement(5, 4, 1, 2);
    for theta in [0.0f64, 0.5, 0.9, 1.2, 1.5] {
        let report = run_scenario(
            &g,
            &ScenarioConfig {
                workload: WorkloadConfig {
                    writes_per_replica: 40,
                    zipf_theta: theta,
                    seed: 5,
                },
                delay: DelayModel::LongTail {
                    base: 5,
                    p_slow: 0.1,
                    slow_factor: 20,
                },
                net_seed: 5,
                steps_between_ops: 1,
                staleness_probes: 10,
                ..Default::default()
            },
        );
        assert!(report.consistent, "theta={theta}");
        println!(
            "{theta},{:.2},{},{},{}",
            report.mean_staleness,
            report.max_staleness,
            report.p50_visibility,
            report.p99_visibility,
        );
    }
}

fn sweep_cap() {
    const N: usize = 8;
    println!("cap,counters_per_replica,adversarial_violations");
    for cap in 3..=N {
        let cfg = if cap == N {
            LoopConfig::EXHAUSTIVE
        } else {
            LoopConfig::bounded(cap)
        };
        let graphs = TimestampGraphs::build(&topology::ring(N), cfg);
        let counters = graphs.of(ReplicaId::new(0)).len();
        // The held-link adversarial chain (Appendix D / Theorem 8).
        let mut sys = System::builder(topology::ring(N))
            .tracker(TrackerKind::EdgeIndexed(cfg))
            .delay(DelayModel::Fixed(1))
            .seed(0)
            .build();
        sys.hold_link(ReplicaId::new(1), ReplicaId::new(0));
        sys.write(ReplicaId::new(1), RegisterId::new(0), Value::from(1u64));
        for i in 1..N as u32 {
            sys.write(ReplicaId::new(i), RegisterId::new(i), Value::from(2u64));
            sys.run_to_quiescence();
        }
        sys.release_link(ReplicaId::new(1), ReplicaId::new(0));
        sys.run_to_quiescence();
        let violations = sys.check().safety_violations().count();
        println!("{cap},{counters},{violations}");
    }
}

fn sweep_clients() {
    // A client spanning k replicas of a path(8): its timestamp indexes
    // the union of the augmented graphs of everything it touches.
    use prcc_sharegraph::{AugmentedShareGraph, ClientAssignment, ClientId};
    use prcc_timestamp::ClientTsRegistry;
    println!("span,client_counters,max_replica_counters");
    let n = 8;
    for span in 1..=n {
        let g = topology::path(n);
        let mut clients = ClientAssignment::new(n);
        let replicas: Vec<ReplicaId> = (0..span as u32).map(ReplicaId::new).collect();
        clients.assign(ClientId::new(0), replicas);
        let aug = AugmentedShareGraph::new(g, clients);
        let reg = ClientTsRegistry::new(&aug);
        let client_counters = reg.client_edges(ClientId::new(0)).len();
        let max_replica = (0..n as u32)
            .map(|i| reg.peer().graphs().of(ReplicaId::new(i)).len())
            .max()
            .unwrap();
        println!("{span},{client_counters},{max_replica}");
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    match arg.as_str() {
        "ring" => sweep_ring(),
        "rf" => sweep_rf(),
        "zipf" => sweep_zipf(),
        "cap" => sweep_cap(),
        "clients" => sweep_clients(),
        "all" | "" => {
            sweep_ring();
            println!();
            sweep_rf();
            println!();
            sweep_zipf();
            println!();
            sweep_cap();
            println!();
            sweep_clients();
        }
        other => {
            eprintln!("unknown sweep '{other}' (expected ring|rf|zipf|cap|clients|all)");
            std::process::exit(2);
        }
    }
}
