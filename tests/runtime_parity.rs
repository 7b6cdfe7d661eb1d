//! The threaded runtime and the deterministic simulator implement the
//! same protocol: both stay causally consistent, and sequential workloads
//! produce identical final states.

use prcc::core::runtime::ThreadedCluster;
use prcc::core::{ClusterConfig, System, Value};
use prcc::net::{DelayModel, FaultSchedule, SessionConfig};
use prcc::sharegraph::{topology, RegisterId, ReplicaId};

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}
fn x(i: u32) -> RegisterId {
    RegisterId::new(i)
}

#[test]
fn sequential_workload_same_final_state() {
    let g = topology::ring(4);
    // Simulated run.
    let mut sim = System::builder(g.clone())
        .delay(DelayModel::Fixed(2))
        .seed(4)
        .build();
    // Threaded run.
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Fixed(1), 4);

    for round in 0..5u64 {
        for i in 0..4u32 {
            let v = Value::from(round * 4 + u64::from(i));
            sim.write(r(i), x(i), v.clone());
            cluster.write(r(i), x(i), v);
        }
        sim.run_to_quiescence();
        cluster.settle();
    }

    for reg in 0..4u32 {
        for &h in g.placement().holders(x(reg)) {
            assert_eq!(
                sim.read(h, x(reg)).cloned(),
                cluster.read(h, x(reg)),
                "register {reg} at {h}"
            );
        }
    }
    assert!(sim.check().is_consistent());
    assert!(cluster.check().is_consistent());
}

#[test]
fn threaded_concurrent_hammering_stays_consistent() {
    let g = topology::grid(3, 2);
    let cluster = ThreadedCluster::new(g.clone(), DelayModel::Uniform { min: 0, max: 4 }, 17);
    std::thread::scope(|s| {
        for i in g.replicas() {
            let c = &cluster;
            let menu: Vec<RegisterId> = g.placement().registers_of(i).iter().collect();
            s.spawn(move || {
                for round in 0..8u64 {
                    for &reg in &menu {
                        c.write(i, reg, Value::from(round));
                    }
                }
            });
        }
    });
    cluster.settle();
    let rep = cluster.check();
    assert!(rep.is_consistent(), "{:?}", rep.violations);
    let trace = cluster.shutdown();
    // 6 replicas × 8 rounds × 2-3 registers each.
    assert!(trace.num_updates() >= 6 * 8 * 2);
}

#[test]
fn threaded_cluster_read_blocking_semantics() {
    // Reads are local (step 1 of the prototype): they return whatever the
    // replica has applied, never blocking.
    let g = topology::path(2);
    let cluster = ThreadedCluster::new(g, DelayModel::Fixed(5), 0);
    assert_eq!(cluster.read(r(1), x(0)), None); // nothing written yet
    cluster.write(r(0), x(0), Value::from(1u64));
    cluster.settle();
    assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(1u64)));
}

#[test]
fn session_crash_restart_same_final_state() {
    // Replica 1 is down for round 2: its own writes that round are not
    // issued, and its peers' frames to it die in the crash window until
    // the restart's WAL replay and `CatchUp` re-feed them. Both drivers
    // run the same engine, so they must converge to the same stores.
    let g = topology::ring(4);
    let (down, crash_round) = (r(1), 2u64);
    let mut sim = System::builder(g.clone())
        .delay(DelayModel::Fixed(2))
        .seed(4)
        .session(SessionConfig::default())
        .fault_schedule(FaultSchedule::none().crash(down, 1500, 2500))
        .build();
    let cluster = ThreadedCluster::with_config(
        g.clone(),
        DelayModel::Fixed(1),
        4,
        ClusterConfig {
            session: Some(SessionConfig {
                rto_base: 20,
                rto_max: 160,
                jitter: 3,
                ack_delay: 0,
            }),
            durability: Some(4),
            ..ClusterConfig::default()
        },
    );

    for round in 0..5u64 {
        if round == crash_round {
            cluster.crash(down);
            // Round boundaries are 1 000 ticks apart in the simulation;
            // its replica 1 is scripted down from 1 500 to 2 500.
            assert!(sim.is_crashed(down));
        }
        for i in 0..4u32 {
            if r(i) == down && round == crash_round {
                continue;
            }
            let v = Value::from(round * 4 + u64::from(i));
            sim.write(r(i), x(i), v.clone());
            cluster.write(r(i), x(i), v);
        }
        if round == crash_round {
            cluster.restart(down);
        }
        sim.run_until(round * 1000 + 999);
        cluster.settle();
    }
    sim.run_to_quiescence();
    assert!(sim.is_settled());
    assert_eq!(cluster.total_restarts(), 1);

    for reg in 0..4u32 {
        for &h in g.placement().holders(x(reg)) {
            assert_eq!(
                sim.read(h, x(reg)).cloned(),
                cluster.read(h, x(reg)),
                "register {reg} at {h}"
            );
        }
    }
    // The crash window really cost the simulated replica frames, which
    // only the session layer's catch-up could have repaired.
    assert!(sim.lost_to_crash() > 0);
    assert!(sim.check().is_consistent());
    assert!(cluster.check().is_consistent());
}
