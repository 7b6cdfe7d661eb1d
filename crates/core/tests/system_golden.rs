//! Golden values for the lockstep [`System`]: two seeded fault cells in
//! the shape of E13's sweep (ring(8), session layer on, 30 % drops +
//! 10 % duplicates, 0 or 2 crash/restart windows).
//!
//! The simulation is deterministic, so every session counter and the
//! visibility percentiles are exact functions of the seed. They pin the
//! lockstep driver's event order — crash, restart, open-batch flush,
//! delivery, retransmission timer at equal instants — and the engine's
//! send, WAL and restart rules underneath it. A change that moves any of
//! these numbers changed the simulated protocol, not just its code.
//!
//! Both cells coalesce: the writes between two steps share a batch,
//! shipped at the next step, and a crash ships its replica's open
//! batches before it goes down. So the first of each write's two steps
//! ships that write's batch. In the two-crash cell the clock enters the
//! first crash window (200–600) in the first round, where one write
//! waits for its replica's restart, and the write loop ends at
//! simulated tick 642; two frames reach a down replica.

use prcc_core::{System, Value};
use prcc_net::{FaultPlan, FaultSchedule, SessionConfig, SessionStats};
use prcc_sharegraph::{topology, RegisterId, ReplicaId};

const N: u32 = 8;
const ROUNDS: u32 = 12;

struct Cell {
    session: SessionStats,
    vis_p50: u64,
    vis_p99: u64,
    lost_to_crash: usize,
}

fn run_cell(crashes: u32) -> Cell {
    let mut schedule = FaultSchedule::from_plan(FaultPlan {
        drop_prob: 0.3,
        duplicate_prob: 0.1,
        ..Default::default()
    });
    for c in 0..crashes {
        let at = 200 + 700 * u64::from(c);
        schedule = schedule.crash(ReplicaId::new((1 + 2 * c) % N), at, at + 400);
    }
    let mut sys = System::builder(topology::ring(N as usize))
        .seed(13)
        .session(SessionConfig::default())
        .fault_schedule(schedule)
        .build();
    // Writes aimed at a crashed replica wait for its restart, as in the
    // scenario runner behind E13.
    let mut deferred = Vec::new();
    for round in 0..ROUNDS {
        for k in 0..N {
            let r = ReplicaId::new((k * 3 + round) % N);
            // Replica i stores registers i and i-1 on the ring.
            let x = RegisterId::new((r.raw() + N - round % 2) % N);
            let v = Value::from(u64::from(round * N + k));
            if sys.is_crashed(r) {
                deferred.push((r, x, v));
            } else {
                sys.write(r, x, v);
            }
            for _ in 0..2 {
                sys.step();
            }
        }
    }
    sys.run_to_quiescence();
    for (r, x, v) in deferred {
        sys.write(r, x, v);
    }
    sys.run_to_quiescence();
    assert!(sys.is_settled(), "stuck: {}", sys.stuck_pending());
    let rep = sys.check();
    assert!(rep.is_consistent(), "{:?}", rep.violations);
    let mut vis = sys.visibility_stats();
    Cell {
        session: sys.session_stats().expect("session layer is on"),
        vis_p50: vis.p50(),
        vis_p99: vis.p99(),
        lost_to_crash: sys.lost_to_crash(),
    }
}

#[test]
fn lossy_ring_without_crashes_matches_golden_values() {
    let c = run_cell(0);
    assert_eq!(
        c.session,
        SessionStats {
            data_sent: 96,
            retransmits: 65,
            acks_sent: 122,
            dup_suppressed: 26,
            out_of_order: 40,
            delivered: 96,
            catch_up_sent: 0,
            catch_up_served: 0,
            acks_piggybacked: 0,
        }
    );
    assert_eq!((c.vis_p50, c.vis_p99), (611, 13929));
    assert_eq!(c.lost_to_crash, 0);
}

#[test]
fn lossy_ring_with_two_crashes_matches_golden_values() {
    let c = run_cell(2);
    // Two restarts, each announcing its durable cum to both ring
    // neighbours: four `CatchUp` frames. The drop plan loses one; that
    // peer's retransmission timer re-sends what it would have.
    assert_eq!(
        c.session,
        SessionStats {
            data_sent: 96,
            retransmits: 62,
            acks_sent: 118,
            dup_suppressed: 20,
            out_of_order: 33,
            delivered: 96,
            catch_up_sent: 4,
            catch_up_served: 3,
            acks_piggybacked: 0,
        }
    );
    assert_eq!((c.vis_p50, c.vis_p99), (603, 9121));
    // Frames that reached a replica inside its crash window; the
    // session layer re-sends every one.
    assert_eq!(c.lost_to_crash, 2);
}
