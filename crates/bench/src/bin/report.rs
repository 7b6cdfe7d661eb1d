//! Regenerates the experiment tables of the PRCC reproduction.
//!
//! Usage:
//!
//! ```text
//! report              # run all experiments, print tables
//! report e4 e7        # run selected experiments
//! report --json all   # machine-readable output
//! ```

#![forbid(unsafe_code)]

use prcc_bench::{run_all, run_one, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let experiments: Vec<Experiment> = if ids.is_empty() || ids.iter().any(|a| *a == "all") {
        run_all()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match run_one(id) {
                Some(e) => out.push(e),
                None => {
                    let known: Vec<&str> = prcc_bench::experiment_ids().collect();
                    eprintln!(
                        "unknown experiment '{id}' (expected one of {} or all)",
                        known.join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };

    if json {
        println!("{}", prcc_bench::experiments_to_json(&experiments));
    } else {
        let mut all_ok = true;
        for e in &experiments {
            println!("{e}");
            all_ok &= e.verdict;
        }
        println!(
            "== summary: {}/{} experiments match the paper ==",
            experiments.iter().filter(|e| e.verdict).count(),
            experiments.len()
        );
        if !all_ok {
            std::process::exit(1);
        }
    }
}
