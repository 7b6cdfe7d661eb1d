//! `/proc` readers: per-thread CPU time, context switches, peak resident
//! set. Parsing is split from reading so the parsers are unit-tested on
//! fixed text.
//!
//! CPU time comes from `schedstat` (nanoseconds on a CPU, kept by the
//! scheduler), not from `utime`/`stime` in `stat`: those are sampled at
//! the timer tick on kernels built with `TICK_CPU_ACCOUNTING`, and the
//! program's threads *wake on timers* (200 µs polls, 500 µs ticks), so
//! tick sampling aliases with them — the same run then reads 24 or 43
//! µs/op depending on the phase between the tick and the pollers.

use std::fs;

/// Nanoseconds on a CPU: the first field of a `schedstat` line
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// The numeric value of `key` (e.g. `VmHWM`, in the unit the kernel
/// prints — kB for memory rows) from `/proc/<pid>/status` text.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    pub tid: u32,
    /// Thread name; empty unless the sample asked for details.
    pub comm: String,
    pub run_ns: u64,
}

/// One sample of every live thread of this process.
#[derive(Debug, Default, Clone)]
pub struct ThreadSample {
    pub threads: Vec<ThreadCpu>,
    /// Voluntary + involuntary context switches, all threads; 0 unless
    /// the sample asked for details.
    pub ctx_switches: u64,
}

/// Samples every thread's CPU time; with `details` also its name and
/// context switches (two more files per thread).
pub fn sample_threads(details: bool) -> ThreadSample {
    let mut out = ThreadSample::default();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let Some(run_ns) = fs::read_to_string(p.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
        else {
            continue;
        };
        let mut comm = String::new();
        if details {
            comm = fs::read_to_string(p.join("comm")).map_or(comm, |s| s.trim_end().to_owned());
            if let Ok(status) = fs::read_to_string(p.join("status")) {
                out.ctx_switches += parse_status_field(&status, "voluntary_ctxt_switches")
                    .unwrap_or(0)
                    + parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
        out.threads.push(ThreadCpu { tid, comm, run_ns });
    }
    out
}

/// CPU seconds spent between two samples by the threads alive at the
/// second one whose name starts with `prefix` (`""` = every thread). A
/// thread born in between counts from its birth; one that exited in
/// between is not seen — sample before threads exit.
pub fn cpu_between(before: &ThreadSample, after: &ThreadSample, prefix: &str) -> f64 {
    let earlier: std::collections::HashMap<u32, u64> =
        before.threads.iter().map(|t| (t.tid, t.run_ns)).collect();
    let ns: u64 = after
        .threads
        .iter()
        .filter(|t| t.comm.starts_with(prefix))
        .map(|t| {
            t.run_ns
                .saturating_sub(earlier.get(&t.tid).copied().unwrap_or(0))
        })
        .sum();
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line() {
        assert_eq!(parse_schedstat("621563 45983 2\n"), Some(621_563));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tprcc\nVmHWM:\t  133120 kB\nVmRSS:\t 1000 kB\n\
                    voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_status_field(text, "VmHWM"), Some(133_120));
        assert_eq!(
            parse_status_field(text, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(text, "nonvoluntary_ctxt_switches"),
            Some(4)
        );
        assert_eq!(parse_status_field(text, "VmPeak"), None);
    }

    #[test]
    fn thread_cpu_between_samples() {
        let s = |v: &[(u32, &str, u64)]| ThreadSample {
            threads: v
                .iter()
                .map(|&(tid, c, run_ns)| ThreadCpu {
                    tid,
                    comm: c.to_owned(),
                    run_ns,
                })
                .collect(),
            ctx_switches: 0,
        };
        let a = s(&[
            (1, "io-0", 1_000_000_000),
            (2, "io-1", 2_000_000_000),
            (3, "apply-0", 5_000_000_000),
        ]);
        // Thread 2 exited, thread 4 was born with 0.25 s to its name.
        let b = s(&[
            (1, "io-0", 1_500_000_000),
            (3, "apply-0", 9_000_000_000),
            (4, "io-2", 250_000_000),
        ]);
        assert!((cpu_between(&a, &b, "io-") - 0.75).abs() < 1e-9);
        assert!((cpu_between(&a, &b, "apply-") - 4.0).abs() < 1e-9);
        assert!((cpu_between(&a, &b, "") - 4.75).abs() < 1e-9);
        assert_eq!(cpu_between(&a, &b, "net-router"), 0.0);
    }

    #[test]
    fn live_readers_return_something() {
        assert!(peak_rss_mib() > 0.0);
        let s = sample_threads(true);
        assert!(!s.threads.is_empty());
        assert!(s.threads.iter().all(|t| !t.comm.is_empty()));
        assert!(sample_threads(false)
            .threads
            .iter()
            .all(|t| t.comm.is_empty()));
    }
}
