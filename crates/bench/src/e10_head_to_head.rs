//! E10 — partial replication (edge-indexed) vs emulated full replication
//! (vector clock + metadata broadcast) across replication factors.
//!
//! The trade-off the paper's introduction motivates: partial replication
//! saves storage and update traffic; its price is larger per-replica
//! timestamps on densely-shared graphs — while on sparse graphs
//! (tree/ring-like placements) the edge-indexed timestamp is competitive
//! with, and the message count strictly better than, the full-replication
//! baseline.

use crate::table::Experiment;
use prcc_core::{TrackerKind, WireMode};
use prcc_sharegraph::topology::{self, RandomPlacementConfig};
use prcc_sharegraph::{LoopConfig, ShareGraph, TimestampGraphs};
use prcc_sim::{run_head_to_head, run_scenario, ScenarioConfig, WorkloadConfig};
use prcc_timestamp::TsRegistry;

/// Runs E10.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "E10",
        "Partial vs full replication: storage, traffic, metadata, latency",
        "Partial replication wins storage cells and message count at every \
         replication factor; the vector-clock baseline wins per-message \
         metadata only when the share graph is dense. Both stay causally \
         consistent.",
        &[
            "placement",
            "tracker",
            "storage",
            "msgs",
            "meta bytes",
            "bytes/msg",
            "vis p50/p99",
            "staleness",
            "consistent",
        ],
    );

    let replicas = 10;
    let mut all_consistent = true;
    let mut partial_fewer_msgs = true;

    let mut run_case = |name: &str, g: &prcc_sharegraph::ShareGraph| {
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
        let (edge, vc) = run_head_to_head(g, &cfg);
        for r in [&edge, &vc] {
            let msgs = r.data_messages + r.meta_messages;
            e.row([
                name.to_owned(),
                r.tracker.clone(),
                r.storage_cells.to_string(),
                msgs.to_string(),
                r.metadata_bytes.to_string(),
                format!("{:.0}", r.metadata_bytes as f64 / msgs.max(1) as f64),
                format!("{}/{}", r.p50_visibility, r.p99_visibility),
                format!("{:.2}", r.mean_staleness),
                r.consistent.to_string(),
            ]);
        }
        (edge, vc)
    };

    for (name, factor) in [("rf=2", 2usize), ("rf=3", 3), ("rf=5", 5)] {
        let g = topology::random_connected_placement(RandomPlacementConfig {
            replicas,
            registers: 30,
            replication_factor: factor,
            seed: factor as u64,
        });
        let (edge, vc) = run_case(name, &g);
        all_consistent &= edge.consistent && vc.consistent;
        partial_fewer_msgs &=
            edge.data_messages + edge.meta_messages < vc.data_messages + vc.meta_messages;
    }
    // A sparse placement where the edge-indexed timestamp is small.
    let tree = topology::binary_tree(replicas);
    let (edge_t, vc_t) = run_case("binary tree", &tree);
    all_consistent &= edge_t.consistent && vc_t.consistent;

    // Wire-codec ablation on the tree: the same edge-indexed run under
    // raw and compressed metadata framing. `meta bytes` is what each mode
    // actually put on the wire.
    let mut wire_bytes = std::collections::HashMap::new();
    for (label, mode) in [
        ("tree [wire=raw]", WireMode::Raw),
        ("tree [wire=compressed]", WireMode::Compressed),
    ] {
        let r = run_scenario(
            &tree,
            &ScenarioConfig {
                workload: WorkloadConfig {
                    writes_per_replica: 20,
                    zipf_theta: 0.9,
                    seed: 11,
                },
                net_seed: 11,
                steps_between_ops: 3,
                wire_mode: mode,
                ..Default::default()
            },
        );
        let msgs = r.data_messages + r.meta_messages;
        e.row([
            label.to_owned(),
            r.tracker.clone(),
            r.storage_cells.to_string(),
            msgs.to_string(),
            r.metadata_bytes.to_string(),
            format!("{:.0}", r.metadata_bytes as f64 / msgs.max(1) as f64),
            format!("{}/{}", r.p50_visibility, r.p99_visibility),
            format!("{:.2}", r.mean_staleness),
            r.consistent.to_string(),
        ]);
        all_consistent &= r.consistent;
        wire_bytes.insert(mode, r.metadata_bytes);
    }
    e.check(
        wire_bytes[&WireMode::Compressed] < wire_bytes[&WireMode::Raw],
        "wire codec: compressed < raw metadata bytes on the tree",
    );
    // Where the compressed bytes come from, as counters summed over
    // every directed share-graph pair: projection to `E_i ∩ E_k` keeps
    // the common slice, and Section 5's derived-row elimination keeps
    // only the explicit counters of that slice. Delta/varint framing
    // accounts for the rest of the byte drop. On the tree projection
    // removes every dropped counter; under full replication Section 5
    // removes them all.
    for (name, g) in [
        ("binary tree", tree.clone()),
        ("full clique", topology::clique_full(replicas, 2)),
    ] {
        let [full, common, explicit] = layout_sums(&g);
        e.note(format!(
            "{name}: counters per message summed over its {} directed pairs — \
             full timestamp {full}, after projection to E_i ∩ E_k {common}, after \
             Section 5's derived-row elimination {explicit}.",
            g.edges().len()
        ));
        e.check(
            explicit <= common && common <= full,
            format!("{name}: explicit ≤ common ≤ full counters per pair layout"),
        );
    }

    // Third comparator: Full-Track-style explicit dependency lists at two
    // workload lengths — metadata grows with history, unlike both
    // timestamp schemes.
    let dep_cfg = |writes: usize| ScenarioConfig {
        tracker: TrackerKind::FullDeps,
        workload: WorkloadConfig {
            writes_per_replica: writes,
            zipf_theta: 0.9,
            seed: 11,
        },
        net_seed: 11,
        steps_between_ops: 3,
        ..Default::default()
    };
    let g_dep = topology::ring(8);
    let dep_short = run_scenario(&g_dep, &dep_cfg(10));
    let dep_long = run_scenario(&g_dep, &dep_cfg(40));
    for (label, r) in [
        ("ring8 (80 writes)", &dep_short),
        ("ring8 (320 writes)", &dep_long),
    ] {
        let msgs = r.data_messages + r.meta_messages;
        e.row([
            label.to_owned(),
            r.tracker.clone(),
            r.storage_cells.to_string(),
            msgs.to_string(),
            r.metadata_bytes.to_string(),
            format!("{:.0}", r.metadata_bytes as f64 / msgs.max(1) as f64),
            format!("{}/{}", r.p50_visibility, r.p99_visibility),
            format!("{:.2}", r.mean_staleness),
            r.consistent.to_string(),
        ]);
    }
    e.check(
        dep_short.consistent && dep_long.consistent,
        "full-deps baseline is causally consistent (it carries the whole closure)",
    );
    let short_bpm = dep_short.metadata_bytes as f64
        / (dep_short.data_messages + dep_short.meta_messages) as f64;
    let long_bpm =
        dep_long.metadata_bytes as f64 / (dep_long.data_messages + dep_long.meta_messages) as f64;
    e.check(
        long_bpm > 2.0 * short_bpm,
        "full-deps metadata per message grows with history (4x writes ⇒ >2x bytes/msg)",
    );

    e.check(all_consistent, "every configuration is causally consistent");
    e.check(
        partial_fewer_msgs,
        "partial replication sends fewer messages at every replication factor",
    );
    let edge_bpm =
        edge_t.metadata_bytes as f64 / (edge_t.data_messages + edge_t.meta_messages).max(1) as f64;
    let vc_bpm =
        vc_t.metadata_bytes as f64 / (vc_t.data_messages + vc_t.meta_messages).max(1) as f64;
    e.check(
        edge_bpm <= vc_bpm,
        "on a tree, edge-indexed metadata per message ≤ the R-length vector clock's",
    );
    e.note(
        "Crossover: as the share graph densifies (higher rf), edge-indexed \
         bytes/msg overtake the R-vector — the paper's flexibility-vs-\
         metadata trade-off.",
    );
    e
}

/// `[Σ |E_i|, Σ common_len, Σ num_explicit]` over `g`'s directed
/// share-graph pairs `i → k`, from the registry's wire layouts.
fn layout_sums(g: &ShareGraph) -> [usize; 3] {
    let registry = TsRegistry::new(g, TimestampGraphs::build(g, LoopConfig::EXHAUSTIVE));
    let mut sums = [0; 3];
    for edge in g.edges() {
        let layout = registry.wire_layout(edge.to, edge.from);
        sums[0] += registry.new_timestamp(edge.from).num_counters();
        sums[1] += layout.common_len();
        sums[2] += layout.num_explicit();
    }
    sums
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_matches_paper() {
        let e = super::run();
        assert!(e.verdict, "{e}");
    }
}
