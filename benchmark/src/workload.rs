//! One workload end to end: verify pass → the timed repetitions
//! (untraced) or one untraced + one traced repetition and the layer
//! probes (`--trace`).
//!
//! Every repetition runs in a **process of its own** (this program,
//! re-executed with `--child`): peak RSS, process CPU time and allocator
//! state then belong to that repetition alone, and nothing a previous
//! cluster left behind (lingering socket threads, retained heap) leaks
//! into the next measurement. The parent only orchestrates and waits.

use crate::layers;
use crate::ops;
use crate::pacer::Schedule;
use crate::rep::{self, Plan, Values};
use crate::report::WorkloadResult;
use crate::span;
use crate::spec::{self, Workload};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// How the measured seconds are split.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub repetitions: usize,
    pub window: Duration,
}

impl Shape {
    pub fn new(seconds: u64, quick: bool) -> Self {
        if quick {
            Shape {
                repetitions: 1,
                window: Duration::from_secs(2),
            }
        } else {
            Shape {
                repetitions: spec::REPETITIONS,
                window: Duration::from_secs(seconds) / spec::REPETITIONS as u32,
            }
        }
    }

    /// Paced ticks every stream of the workload holds.
    fn stream_ticks(&self, w: &Workload) -> u64 {
        Schedule::ticks_in(w.tick, spec::WARM_UP) + Schedule::ticks_in(w.tick, self.window)
    }
}

/// Spans kept per trace file; the metrics use every span recorded.
const TRACE_FILE_SPANS: usize = 100_000;

/// What a child is asked to do (`--child` and what follows it).
#[derive(Debug, Clone)]
pub enum Job {
    Rep {
        plan: Plan,
        trace_file: Option<PathBuf>,
    },
    Probes {
        live_cpu_ns_per_update: f64,
        trace_file: PathBuf,
    },
}

/// What a child reports back on its standard output.
#[derive(Debug, Default)]
struct Report {
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    shape: &Shape,
    trace_dir: Option<&Path>,
) -> Result<WorkloadResult, String> {
    let ticks = shape.stream_ticks(w);
    let spawn = |job: Job| spawn(w, seed, ticks, &job);
    let plan = Plan {
        warm: spec::WARM_UP,
        window: shape.window,
        traced: false,
        full_check: false,
    };
    // Before anything is timed: the first ~4 000 writes' worth of the
    // same streams (faults included, crash script scaled to the shorter
    // window) on a fresh cluster, through the full checkers.
    let verify = spawn(Job::Rep {
        plan: Plan {
            warm: Duration::ZERO,
            window: Duration::from_secs_f64(spec::VERIFY_WRITES as f64 / w.write_rate())
                .min(w.tick * ticks as u32),
            traced: false,
            full_check: true,
        },
        trace_file: None,
    })
    .map_err(|e| format!("verify pass: {e}"))?;
    let mut result = WorkloadResult {
        name: w.name,
        fingerprint: verify.fingerprint,
        ..WorkloadResult::default()
    };
    let same_inputs = |r: &Report| {
        if r.fingerprint == verify.fingerprint {
            Ok(())
        } else {
            Err(format!(
                "op streams differ between repetitions: {:016x} vs {:016x}",
                r.fingerprint, verify.fingerprint
            ))
        }
    };

    let Some(dir) = trace_dir else {
        for _ in 0..shape.repetitions {
            let rep = spawn(Job::Rep {
                plan,
                trace_file: None,
            })?;
            same_inputs(&rep)?;
            result.attempted += rep.attempted;
            result.failed += rep.failed;
            for (name, v) in rep.values {
                result.push(&name, v);
            }
        }
        return Ok(result);
    };

    // Traced run: end-to-end numbers still come from an untraced
    // repetition (reported as `diag.*`); the traced one gives the spans.
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let trace_file = dir.join(format!("trace-{}.jsonl", w.name));
    let plain = spawn(Job::Rep {
        plan,
        trace_file: None,
    })?;
    let traced = spawn(Job::Rep {
        plan: Plan {
            traced: true,
            ..plan
        },
        trace_file: Some(trace_file.clone()),
    })?;
    same_inputs(&plain)?;
    same_inputs(&traced)?;
    result.attempted = traced.attempted;
    result.failed = traced.failed;
    let (cpu_plain, cpu_traced) = (
        plain.values["cpu_us_per_op"],
        traced.values["cpu_us_per_op"],
    );
    let writes_in_window = w.write_rate() * shape.window.as_secs_f64();
    let probes = spawn(Job::Probes {
        live_cpu_ns_per_update: cpu_plain * 1e3 * plain.attempted as f64 / writes_in_window,
        trace_file,
    })?;
    // Only the per-layer table is reported by a traced run. A cell of the
    // end-to-end table listed there as `diag.*` comes from the untraced
    // repetition; live per-layer numbers come from the traced one.
    for m in &spec::PER_LAYER {
        let v = match m.name.strip_prefix("diag.") {
            Some(cell) => plain.values.get(cell),
            None => [&probes, &traced, &verify]
                .iter()
                .find_map(|r| r.values.get(m.name)),
        };
        if let Some(&v) = v {
            result.push(m.name, v);
        }
    }
    result.push(
        "trace.overhead_pct",
        (cpu_traced - cpu_plain) / cpu_plain * 100.0,
    );
    Ok(result)
}

/// Re-executes this program as a child doing `job`, waits for it to end
/// and parses what it printed. A child that fails a check exits non-zero
/// (its message is on the shared standard error) and fails the run.
fn spawn(w: &Workload, seed: u64, stream_ticks: u64, job: &Job) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--stream-ticks", &stream_ticks.to_string()]);
    match job {
        Job::Rep { plan, trace_file } => {
            cmd.args(["--child", "rep"])
                .args(["--warm-us", &plan.warm.as_micros().to_string()])
                .args(["--window-us", &plan.window.as_micros().to_string()])
                .args(["--traced", &u8::from(plan.traced).to_string()])
                .args(["--full-check", &u8::from(plan.full_check).to_string()]);
            if let Some(f) = trace_file {
                cmd.arg("--trace-file").arg(f);
            }
        }
        Job::Probes {
            live_cpu_ns_per_update,
            trace_file,
        } => {
            cmd.args(["--child", "probes"])
                .args(["--live-cpu-ns", &live_cpu_ns_per_update.to_string()])
                .arg("--trace-file")
                .arg(trace_file);
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("a child ended with {}", out.status));
    }
    parse_report(&String::from_utf8_lossy(&out.stdout))
}

fn parse_report(text: &str) -> Result<Report, String> {
    let mut r = Report::default();
    let bad = |line: &str| format!("unreadable line from a child: {line:?}");
    for line in text.lines() {
        let mut f = line.split_ascii_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some("F"), Some(h), None) => {
                r.fingerprint = u64::from_str_radix(h, 16).map_err(|_| bad(line))?;
            }
            (Some("A"), Some(a), Some(b)) => {
                r.attempted = a.parse().map_err(|_| bad(line))?;
                r.failed = b.parse().map_err(|_| bad(line))?;
            }
            (Some("V"), Some(name), Some(v)) => {
                r.values
                    .insert(name.to_owned(), v.parse().map_err(|_| bad(line))?);
            }
            _ => return Err(bad(line)),
        }
    }
    Ok(r)
}

fn print_report(fingerprint: u64, attempted: u64, failed: u64, values: &Values) {
    println!("F {fingerprint:016x}");
    println!("A {attempted} {failed}");
    for (name, v) in values {
        println!("V {name} {v}");
    }
}

/// The child's side: do `job` for `w` and print the report.
pub fn child(w: &Workload, seed: u64, stream_ticks: u64, job: Job) -> Result<(), String> {
    // Inputs are generated here, before anything is timed.
    let inputs = || {
        let graph = (w.graph)();
        let streams = ops::generate_all(w, &graph, seed, stream_ticks);
        let fingerprint = ops::fingerprint(&streams);
        (graph, streams, fingerprint)
    };
    let write_spans = |path: &Path, append: bool, spans: &[span::Span]| {
        OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)
            .and_then(|f| span::write_jsonl(BufWriter::new(f), spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    match job {
        Job::Rep { plan, trace_file } => {
            let (_, streams, fingerprint) = inputs();
            let mut rep = rep::run(w, &streams, seed, &plan)?;
            if let Some(path) = trace_file {
                rep.spans.truncate(TRACE_FILE_SPANS);
                write_spans(&path, false, &rep.spans)?;
            }
            print_report(fingerprint, rep.attempted, rep.failed, &rep.values);
        }
        Job::Probes {
            live_cpu_ns_per_update,
            trace_file,
        } => {
            let (graph, streams, fingerprint) = inputs();
            let probes = layers::probe(w, &graph, &streams, seed, live_cpu_ns_per_update)?;
            write_spans(&trace_file, true, &probes.spans)?;
            print_report(fingerprint, 0, 0, &probes.values);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_report_round_trips() {
        let r = parse_report("F 00000000000000ff\nA 10 1\nV setup_s 0.25\nV cpu_us_per_op 17\n")
            .unwrap();
        assert_eq!((r.fingerprint, r.attempted, r.failed), (255, 10, 1));
        assert_eq!(r.values["setup_s"], 0.25);
        assert_eq!(r.values["cpu_us_per_op"], 17.0);
        assert!(parse_report("V setup_s\n").is_err());
        assert!(parse_report("hello world\n").is_err());
    }

    #[test]
    fn the_measured_seconds_split_over_three_windows() {
        let s = Shape::new(18, false);
        assert_eq!((s.repetitions, s.window), (3, Duration::from_secs(6)));
        let q = Shape::new(18, true);
        assert_eq!((q.repetitions, q.window), (1, Duration::from_secs(2)));
    }
}
