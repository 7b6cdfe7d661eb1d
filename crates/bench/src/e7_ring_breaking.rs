//! E7 — breaking the ring (Appendix D, Figure 13): metadata shrinks from
//! `2n` counters to tree-sized `2·N_i`, while writes to the broken
//! register pay multi-hop propagation latency.

use crate::table::Experiment;
use prcc_core::{RoutedSystem, System, TrackerKind, Value};
use prcc_net::DelayModel;
use prcc_sharegraph::{topology, LoopConfig, RegisterId, ReplicaId};

/// Per-deployment sample: (max counters, mean visibility, max visibility,
/// consistent).
type DeploymentSample = (usize, f64, u64, bool);

/// Drives the same per-register write load through a plain ring and a
/// broken ring, returning one [`DeploymentSample`] per deployment.
fn measure(n: usize, seed: u64) -> (DeploymentSample, DeploymentSample) {
    let writes_per_reg = 5u64;

    // Plain ring.
    let mut plain = System::builder(topology::ring(n))
        .tracker(TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE))
        .delay(DelayModel::Fixed(5))
        .seed(seed)
        .build();
    for round in 0..writes_per_reg {
        for i in 0..n as u32 {
            plain.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
        }
        plain.run_to_quiescence();
    }
    let pm = plain.metrics();
    let p = (
        plain.timestamp_counters().into_iter().max().unwrap_or(0),
        pm.mean_visibility(),
        pm.max_visibility,
        plain.check().is_consistent(),
    );

    // Broken ring: the edge between replicas n−1 and 0 severed (Fig 13).
    let severed = (ReplicaId::new(n as u32 - 1), ReplicaId::new(0));
    let mut routed = RoutedSystem::new(&topology::ring(n), &[severed], DelayModel::Fixed(5), seed)
        .expect("a ring edge is breakable");
    for round in 0..writes_per_reg {
        for i in 0..n as u32 {
            routed.write(ReplicaId::new(i), RegisterId::new(i), Value::from(round));
        }
        routed.run_to_quiescence();
    }
    let rm = routed.metrics();
    let r = (
        routed.timestamp_counters().into_iter().max().unwrap_or(0),
        rm.mean_visibility(),
        rm.max_visibility,
        routed.check().is_consistent(),
    );
    (p, r)
}

/// Runs E7.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "E7",
        "Breaking the ring via virtual registers (App. D, Fig 13)",
        "Ring: every timestamp has 2n counters. Broken ring (tree): at \
         most 4 counters regardless of n — but the broken register's \
         updates traverse n−1 hops, inflating worst-case visibility.",
        &[
            "n",
            "ring counters",
            "broken counters",
            "ring max vis",
            "broken max vis",
            "ring consistent",
            "broken consistent",
        ],
    );

    let mut all_ok = true;
    let mut counters_shrink = true;
    let mut latency_grows = true;
    for n in [4usize, 6, 8, 10] {
        let ((pc, _pmean, pmax, pok), (rc, _rmean, rmax, rok)) = measure(n, 7);
        e.row([
            n.to_string(),
            pc.to_string(),
            rc.to_string(),
            pmax.to_string(),
            rmax.to_string(),
            pok.to_string(),
            rok.to_string(),
        ]);
        all_ok &= pok && rok;
        counters_shrink &= rc < pc && pc == 2 * n && rc <= 4;
        latency_grows &= rmax > pmax;
    }
    e.check(all_ok, "both deployments causally consistent at every n");
    e.check(
        counters_shrink,
        "broken ring: counters ≤ 4 (tree bound) vs 2n in the ring",
    );
    e.check(
        latency_grows,
        "broken register pays multi-hop latency (max visibility grows)",
    );
    e.note("The counter gap widens linearly in n — the paper's motivation for restricted communication.");
    e
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_matches_paper() {
        let e = super::run();
        assert!(e.verdict, "{e}");
    }
}
