//! Output: `name value unit` lines for people, `results.json` for tools,
//! and the driver's one-line result object. Every output starts with a
//! header that says where, when and how the numbers were taken.

use crate::spec::{self, Better, Metric};
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a run was taken; printed with everything it produced.
#[derive(Debug, Clone)]
pub struct Header {
    pub host: String,
    pub nproc: usize,
    pub commit: String,
    pub date: String,
    pub seed: u64,
    pub window_s: f64,
    pub repetitions: usize,
    pub warm_up_s: f64,
    pub quick: bool,
    pub traced: bool,
}

impl Header {
    pub fn json(&self) -> String {
        format!(
            "{{\"host\":{},\"nproc\":{},\"commit\":{},\"date\":{},\"seed\":{},\"window_s\":{},\
             \"repetitions\":{},\"warm_up_s\":{},\"generators\":{},\"link\":\"ThreadNet \
             DelayModel::Fixed(1) = 200us one-way; TCP = kernel loopback\",\"quick\":{},\
             \"traced\":{},\"claim\":null}}",
            quote(&self.host),
            self.nproc,
            quote(&self.commit),
            quote(&self.date),
            self.seed,
            self.window_s,
            self.repetitions,
            self.warm_up_s,
            spec::GENERATORS,
            self.quick,
            self.traced
        )
    }
}

/// One workload's numbers: per metric, the value of every repetition
/// (one entry for numbers taken once) and their median.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Vec<f64>>,
}

impl WorkloadResult {
    /// The metric's value: the median of its repetitions; 0 when never
    /// measured.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |v| median(v))
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.entry(name.to_owned()).or_default().push(value);
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured (never `NaN`/`inf`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `name value unit` lines with every repetition's value beside the
/// median: the table the run gates on first (end-to-end, or per-layer
/// for a traced run, where a bypassed layer reads 0), then everything
/// else the run measured.
pub fn print_lines(r: &WorkloadResult, traced: bool) {
    println!(
        "# {} workload_fingerprint={:016x} attempted={} failed={}",
        r.name, r.fingerprint, r.attempted, r.failed
    );
    let line = |name: &str, unit: &str| {
        let values = r.metrics.get(name).map_or(&[][..], Vec::as_slice);
        let reps: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{} {name} {:.4} {unit}  [{}]",
            r.name,
            r.value(name),
            reps.join(" ")
        );
    };
    let table = table(traced);
    table.iter().for_each(|m| line(m.name, m.unit));
    for name in r
        .metrics
        .keys()
        .filter(|n| !table.iter().any(|m| m.name == *n))
    {
        line(name, spec::metric(name).map_or("", |m| m.unit));
    }
}

/// The table a run reports to the driver: end-to-end metrics untraced,
/// per-layer metrics traced.
fn table(traced: bool) -> Vec<&'static Metric> {
    if traced {
        spec::PER_LAYER.iter().collect()
    } else {
        spec::END_TO_END.iter().map(|(m, _)| m).collect()
    }
}

/// The driver's contract: one JSON object, last line of standard output,
/// holding exactly the end-to-end metrics (untraced) or exactly the
/// per-layer metrics (traced).
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<String> = table(traced)
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(r.value(m.name)),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

pub fn results_json(header: &Header, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, values)| {
                    let reps: Vec<String> = values.iter().map(|&v| num(v)).collect();
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"repetitions\":[{}]}}",
                        quote(name),
                        num(r.value(name)),
                        quote(spec::metric(name).map_or("", |m| m.unit)),
                        reps.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"name\":{},\"workload_fingerprint\":\"{:016x}\",\"attempted\":{},\"failed\":{},\
                 \"metrics\":{{{}}}}}",
                quote(r.name),
                r.fingerprint,
                r.attempted,
                r.failed,
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"header\":{},\n\"workloads\":[\n{}\n]}}\n",
        header.json(),
        workloads.join(",\n")
    )
}

/// `BENCHMARK.json`, generated from the tables in [`spec`].
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .filter(|w| w.listed)
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let e2e: Vec<String> = spec::END_TO_END
        .iter()
        .map(|(m, _)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                better(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = spec::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(m.name),
                quote(m.unit),
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// One cell of the `--repeat-check` table.
pub struct Cell {
    pub metric: &'static Metric,
    pub a: f64,
    pub b: f64,
}

impl Cell {
    /// Relative difference of set B from set A.
    pub fn diff(&self) -> f64 {
        if self.a == 0.0 {
            if self.b == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.b - self.a).abs() / self.a.abs()
        }
    }

    pub fn pass(&self) -> bool {
        self.diff() <= self.metric.bound
    }
}

/// Prints the per-cell table of two sets of runs of the same code — for
/// each workload the end-to-end cells that gate on it — and returns
/// whether every cell agrees within its bound.
pub fn print_repeat_table(a: &[WorkloadResult], b: &[WorkloadResult]) -> bool {
    println!(
        "{:<28} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    let mut all = true;
    for (ra, rb) in a.iter().zip(b) {
        let w = spec::workload(ra.name).expect("results come from table workloads");
        for m in spec::gated_cells(w) {
            let cell = Cell {
                metric: m,
                a: ra.value(m.name),
                b: rb.value(m.name),
            };
            all &= cell.pass();
            println!(
                "{:<28} {:<24} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%  {}",
                ra.name,
                m.name,
                cell.a,
                cell.b,
                cell.diff() * 100.0,
                m.bound * 100.0,
                if cell.pass() { "PASS" } else { "FAIL" }
            );
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let e2e = spec::END_TO_END.iter().map(|(m, _)| m);
        for m in e2e.chain(spec::PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(spec::END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s"));
        assert!(spec::END_TO_END
            .iter()
            .all(|(m, _)| m.bound > 0.0 && m.bound <= 0.25));
        assert!(spec::WORKLOADS.iter().all(|w| w.why.len() <= 200));
        // The driver has every listed workload report every end-to-end
        // metric, so each must gate on each.
        for (i, w) in spec::WORKLOADS.iter().enumerate().filter(|(_, w)| w.listed) {
            assert!(spec::END_TO_END.iter().all(|(_, on)| on[i]), "{}", w.name);
        }
    }

    #[test]
    fn driver_line_lists_exactly_the_table() {
        let mut r = WorkloadResult {
            name: "w",
            attempted: 10,
            ..WorkloadResult::default()
        };
        for setup in [0.25, 0.75, 0.5] {
            r.push("setup_s", setup);
        }
        let line = driver_line(&r, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        for (m, _) in &spec::END_TO_END {
            assert!(line.contains(&format!("\"{}\":", m.name)));
        }
        assert!(!line.contains(spec::PER_LAYER[0].name));
    }

    #[test]
    fn repeat_cells_compare_against_the_bound() {
        let m = &spec::END_TO_END[0].0;
        let cell = |a, b| Cell { metric: m, a, b };
        assert!(cell(1.0, 1.2).pass());
        assert!(!cell(1.0, 1.3).pass());
        assert!(cell(0.0, 0.0).pass());
        assert!(!cell(0.0, 0.1).pass());
    }
}
