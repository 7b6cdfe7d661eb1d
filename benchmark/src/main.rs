//! `prcc-benchmark`: the repo's one repeatable benchmark. Four paced
//! workloads drive the public API with the shipped default
//! configurations; the untraced run reports the end-to-end metrics, the
//! traced run (`--trace`) the per-layer ones. See `README.md`.

mod layers;
mod ops;
mod pacer;
mod procfs;
mod rep;
mod report;
mod span;
mod spec;
mod stats;
mod workload;

use report::{Header, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
              [--quick] [--repeat-check] [--out DIR] [--print-benchmark-json]
  --workload NAME   run one workload (and end with the driver's result line)
  --seed N          op-stream seed (default 7)
  --seconds S       measured seconds per workload, split over 3 repetitions (default 18)
  --trace [0|1]     traced run: per-layer metrics, spans written to <out>/trace-<workload>.jsonl
  --quick           1 repetition x 2 s, smoke only; results are marked \"quick\": true
  --repeat-check    run the untraced suite twice, print the per-cell table, fail on disagreement
  --out DIR         where results.json and traces go (default benchmark/out)";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    out: PathBuf,
    /// Set when this process is a child doing one job for its parent.
    child: Option<ChildArgs>,
}

/// What a parent passes its children (see `workload::spawn`).
#[derive(Debug, Default)]
struct ChildArgs {
    kind: String,
    stream_ticks: u64,
    warm_us: u64,
    window_us: u64,
    traced: bool,
    full_check: bool,
    live_cpu_ns: f64,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        repeat_check: false,
        out: PathBuf::from("benchmark/out"),
        child: None,
    };
    let mut child = ChildArgs::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` for people.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--child" => child.kind = value("a job")?,
            "--stream-ticks" | "--warm-us" | "--window-us" | "--traced" | "--full-check" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("{a}: {e}"))?;
                match a.as_str() {
                    "--stream-ticks" => child.stream_ticks = n,
                    "--warm-us" => child.warm_us = n,
                    "--window-us" => child.window_us = n,
                    "--traced" => child.traced = n != 0,
                    _ => child.full_check = n != 0,
                }
            }
            "--live-cpu-ns" => {
                child.live_cpu_ns = value("a number")?
                    .parse()
                    .map_err(|e| format!("{a}: {e}"))?;
            }
            "--trace-file" => child.trace_file = Some(PathBuf::from(value("a path")?)),
            "--print-benchmark-json" => {
                print!("{}", report::benchmark_json());
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of: {}",
                names.join(", ")
            ));
        }
    }
    if !child.kind.is_empty() {
        args.child = Some(child);
    }
    Ok(args)
}

/// A child's whole life: one repetition or the layer probes, for the
/// parent that spawned it.
fn run_child(args: &Args, child: &ChildArgs) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let w = spec::workload(name).expect("workload name was checked");
    let trace_file = || {
        child
            .trace_file
            .clone()
            .ok_or("--child probes needs --trace-file")
    };
    let job = match child.kind.as_str() {
        "rep" => workload::Job::Rep {
            plan: rep::Plan {
                warm: Duration::from_micros(child.warm_us),
                window: Duration::from_micros(child.window_us),
                traced: child.traced,
                full_check: child.full_check,
            },
            trace_file: child.trace_file.clone(),
        },
        "probes" => workload::Job::Probes {
            live_cpu_ns_per_update: child.live_cpu_ns,
            trace_file: trace_file()?,
        },
        other => return Err(format!("unknown child job {other}")),
    };
    workload::child(w, args.seed, child.stream_ticks, job)
}

fn header(args: &Args, shape: &workload::Shape) -> Header {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Header {
        host: std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        commit: env("PRCC_BENCH_COMMIT"),
        date: env("PRCC_BENCH_DATE"),
        seed: args.seed,
        window_s: shape.window.as_secs_f64(),
        repetitions: shape.repetitions,
        warm_up_s: spec::WARM_UP.as_secs_f64(),
        quick: args.quick,
        traced: args.trace,
    }
}

/// Runs the selected workloads once each; the first failure ends the run.
fn run_suite(args: &Args, shape: &workload::Shape) -> Result<Vec<WorkloadResult>, String> {
    spec::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
        .map(|w| {
            workload::run(
                w,
                args.seed,
                shape,
                args.trace.then_some(args.out.as_path()),
            )
            .map_err(|e| format!("{}: {e}", w.name))
        })
        .collect()
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(child) = &args.child {
        return run_child(&args, child).map(|()| true);
    }
    let shape = workload::Shape::new(args.seconds, args.quick);
    let header = header(&args, &shape);
    println!("# header {}", header.json());
    if args.repeat_check {
        let a = run_suite(&args, &shape)?;
        let b = run_suite(&args, &shape)?;
        return Ok(report::print_repeat_table(&a, &b));
    }
    let results = run_suite(&args, &shape)?;
    results
        .iter()
        .for_each(|r| report::print_lines(r, args.trace));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                args.out.join("results.json"),
                report::results_json(&header, &results),
            )
        })
        .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    if let (Some(_), [only]) = (&args.workload, results.as_slice()) {
        println!("{}", report::driver_line(only, args.trace));
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            // No metrics are printed for a run that failed a check.
            eprintln!("prcc-benchmark: FAILED: {e}");
            ExitCode::from(2)
        }
    }
}
