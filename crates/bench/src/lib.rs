//! Experiment harness for the PRCC reproduction: one module per
//! experiment (see `DESIGN.md` for the per-experiment index), a shared
//! table type, and the `report` binary that regenerates every table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod e10_head_to_head;
pub mod e11_exhaustive;
pub mod e12_density;
pub mod e13_faults;
pub mod e1_structure;
pub mod e2_oblivious;
pub mod e3_helary_milani;
pub mod e4_sizes;
pub mod e5_compression;
pub mod e6_dummies;
pub mod e7_ring_breaking;
pub mod e8_truncation;
pub mod e9_client_server;
pub mod table;

pub use table::{experiments_to_json, Experiment};

/// One experiment's entry point.
type Run = fn() -> Experiment;

/// Every experiment by id, in report order: the one list [`run_all`],
/// [`run_one`] and [`experiment_ids`] read.
static EXPERIMENTS: [(&str, Run); 13] = [
    ("e1", e1_structure::run),
    ("e2", e2_oblivious::run),
    ("e3", e3_helary_milani::run),
    ("e4", e4_sizes::run),
    ("e5", e5_compression::run),
    ("e6", e6_dummies::run),
    ("e7", e7_ring_breaking::run),
    ("e8", e8_truncation::run),
    ("e9", e9_client_server::run),
    ("e10", e10_head_to_head::run),
    ("e11", e11_exhaustive::run),
    ("e12", e12_density::run),
    ("e13", e13_faults::run),
];

/// The experiment ids, in report order.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Runs every experiment in order.
pub fn run_all() -> Vec<Experiment> {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

/// Runs one experiment by id (one of [`experiment_ids`],
/// case-insensitive).
pub fn run_one(id: &str) -> Option<Experiment> {
    let id = id.to_ascii_lowercase();
    EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, run)| run())
}

#[cfg(test)]
mod tests {
    #[test]
    fn ids_are_e1_to_e13_and_nothing_else_runs() {
        let ids: Vec<&str> = super::experiment_ids().collect();
        let expected: Vec<String> = (1..=13).map(|i| format!("e{i}")).collect();
        assert_eq!(ids, expected);
        assert!(super::run_one("e14").is_none());
    }
}
