//! One repetition: fresh cluster → set-up → paced warm-up → measured
//! window → stop → timed `settle()` → checks → metrics.

use crate::ops::{value_of, ServeOp, Stream};
use crate::pacer::{Pacer, Schedule};
use crate::procfs::{self, ThreadSample};
use crate::span::{self, Span, Tracer};
use crate::spec::{Front, Transport, Workload, GENERATORS, LEAD, SETTLE_LIMIT};
use crate::stats::percentile;
use prcc_checker::{HbGraph, SessionEvent, UpdateId};
use prcc_core::serving::{Collected, ServingConfig, ServingStats, ServingTier};
use prcc_core::{ClusterConfig, ThreadedCluster};
use prcc_net::{DelayModel, TcpNetConfig};
use prcc_sharegraph::{RegisterId, ReplicaId, ShareGraph};
use std::collections::BTreeMap;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Duration,
    pub window: Duration,
    /// Record spans and sample per-thread CPU.
    pub traced: bool,
    /// Run the full (quadratic) checkers on the recorded trace.
    pub full_check: bool,
}

#[derive(Debug, Default)]
pub struct Rep {
    pub values: Values,
    /// Client ops (updates for burst workloads) issued in the window.
    pub attempted: u64,
    /// Of those, the ones never acknowledged.
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// What one generator thread brings back.
#[derive(Default)]
struct GenOut {
    /// Due tick → op returned, window only (reads; bursts for `WriteBurst`).
    read_ns: Vec<u64>,
    burst_ns: Vec<u64>,
    /// Tick start − due, window only.
    late_ns: Vec<u64>,
    warm: Collected,
    window: Collected,
    acked_bursts: Vec<(UpdateId, RegisterId)>,
    /// Ops issued / acknowledged inside the window.
    attempted: u64,
    acked: u64,
    end: Option<Instant>,
    spans: Vec<Span>,
}

/// Process-level samples the coordinating thread takes around the window.
#[derive(Default)]
struct WindowSample {
    /// Thread samples at the window's start and end (with thread names
    /// and context switches in a traced run).
    threads: (ThreadSample, ThreadSample),
    catchup_ms: Vec<f64>,
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

pub fn run(w: &Workload, streams: &[Stream], seed: u64, plan: &Plan) -> Result<Rep, String> {
    let warm_ticks = Schedule::ticks_in(w.tick, plan.warm);
    let window_ticks = Schedule::ticks_in(w.tick, plan.window);
    let schedule = Schedule {
        tick: w.tick,
        quota: w.quota,
        ticks: warm_ticks + window_ticks,
    };
    let window_off = LEAD + schedule.due_offset(warm_ticks);
    let window = schedule.due_offset(window_ticks);

    // ---- set-up; `setup_s` and the spans count from here
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, plan.traced.then_some(64), 0);
    let graph = (w.graph)();
    let config = w.cluster_config(window_off, window);
    let cluster = build_cluster(w, &graph, seed, config, &mut tracer)?;
    // The cluster's own epoch (crash ticks count from it) lies inside the
    // constructor call, a few ms back at most.
    let built = Instant::now();
    let tier = front(w, &cluster, &graph)?;
    let setup_work = epoch.elapsed();
    let touch_stats = tier.as_ref().map(ServingTier::stats).unwrap_or_default();
    let touch_applied = cluster.total_applied();

    // ---- paced load. The first tick is due a fixed lead after
    // construction; set-up that overruns the lead delays it.
    let start = (built + LEAD).max(Instant::now() + Duration::from_millis(2));
    let gen_run = GenRun {
        schedule,
        start,
        warm_ticks,
        deadline: None,
        trace_epoch: plan.traced.then_some(epoch),
    };
    let (mut gens, sample) = drive(tier.as_ref(), &cluster, streams, gen_run, || {
        watch_window(w, &cluster, plan, built, start, window_off, window)
    });

    // ---- stop → settle (timed, limited)
    let load_end = gens.iter().filter_map(|g| g.end).max().unwrap_or(start);
    let t_drain = Instant::now();
    tracer.call(0, (0, 0, 0), "core::runtime", "settle", || settle(&cluster))?;
    let drain_s = t_drain.elapsed().as_secs_f64();

    // ---- checks: linear-time ones every repetition, the full checkers
    // in the verify pass
    let mut values = Values::new();
    let load = load_end - (start + schedule.due_offset(warm_ticks));
    let checked = linear_checks(w, plan, &graph, &cluster, &mut gens, load, touch_applied)?;
    let Checked {
        attempted,
        failed,
        deliveries,
        ..
    } = checked;
    if plan.full_check {
        full_checks(&graph, &cluster, &checked.events, &mut tracer, &mut values)?;
    }

    // ---- metrics
    let mut reads: Vec<u64> = gens.iter_mut().flat_map(|g| g.read_ns.drain(..)).collect();
    let mut late: Vec<u64> = gens.iter_mut().flat_map(|g| g.late_ns.drain(..)).collect();
    let mut bursts: Vec<u64> = gens.iter_mut().flat_map(|g| g.burst_ns.drain(..)).collect();
    let mut collected = Collected::default();
    let mut spans = tracer.into_spans();
    for g in gens {
        collected.absorb(g.window);
        spans.extend(g.spans);
    }
    let (write_p50, write_p99, write_p999) = if bursts.is_empty() {
        let l = &mut collected.write_lat;
        (l.p50() as f64, l.p99() as f64, l.percentile(0.999) as f64)
    } else {
        (
            percentile(&mut bursts, 0.50),
            percentile(&mut bursts, 0.99),
            percentile(&mut bursts, 0.999),
        )
    };
    let mut visibility = cluster.delivery_latencies_nanos();
    let wire_bytes = match cluster.tcp_stats() {
        Some(tcp) => tcp.iter().map(|t| t.bytes_sent).sum::<u64>() as f64,
        None => cluster.total_wire_bytes() as f64,
    };
    values.insert("setup_s", (start - epoch).as_secs_f64());
    values.insert("runtime.setup_ms", setup_work.as_secs_f64() * 1e3);
    values.insert("read_p50_us", us(percentile(&mut reads, 0.50)));
    values.insert("read_p99_us", us(percentile(&mut reads, 0.99)));
    values.insert("write_p50_us", us(write_p50));
    values.insert("write_p99_us", us(write_p99));
    values.insert("write_p999_us", us(write_p999));
    values.insert("visibility_p50_us", us(percentile(&mut visibility, 0.50)));
    values.insert("visibility_p99_us", us(percentile(&mut visibility, 0.99)));
    values.insert(
        "cpu_us_per_op",
        sample.cpu_s() * 1e6 / attempted.max(1) as f64,
    );
    values.insert(
        "wire_bytes_per_update",
        wire_bytes / deliveries.max(1) as f64,
    );
    values.insert("peak_rss_mb", procfs::peak_rss_mib());
    values.insert("failed_ops_ratio", failed as f64 / attempted.max(1) as f64);
    values.insert("runtime.drain_s", drain_s);
    values.insert("serving.gen_late_p99_us", us(percentile(&mut late, 0.99)));
    values.insert("recovery.restarts", cluster.total_restarts() as f64);
    values.insert(
        "recovery.catchup_ms",
        crate::stats::median(&sample.catchup_ms),
    );
    live_layer_values(&mut values, w, &cluster, &sample, attempted, deliveries);
    if let Some(tier) = &tier {
        serving_values(
            &mut values,
            &tier.stats(),
            &touch_stats,
            &mut collected,
            reads.len(),
        );
    }
    if plan.traced {
        let window_start = start + schedule.due_offset(warm_ticks);
        span_values(&mut values, &spans, window_start - epoch, window);
    }
    Ok(Rep {
        values,
        attempted,
        failed,
        spans,
    })
}

/// What the linear checks establish on the way.
struct Checked {
    attempted: u64,
    failed: u64,
    /// `total_applied()` after settling.
    deliveries: usize,
    /// Served ops of both generators, warm-up included.
    events: Vec<SessionEvent>,
}

/// The checks every repetition passes, all linear in the ops driven: the
/// generators kept pace, every acked write reached every holder, nothing
/// was lost to a crash, deliveries add up, and no op failed (≤ 0.1 % with
/// both restarts completed on the crash workload). `load` is how long the
/// generators took over the window.
fn linear_checks(
    w: &Workload,
    plan: &Plan,
    graph: &ShareGraph,
    cluster: &ThreadedCluster,
    gens: &mut [GenOut],
    load: Duration,
    touch_applied: usize,
) -> Result<Checked, String> {
    let attempted: u64 = gens.iter().map(|g| g.attempted).sum();
    let acked: u64 = gens.iter().map(|g| g.acked).sum();
    let failed = attempted.saturating_sub(acked);
    let offered = attempted as f64 / plan.window.as_secs_f64();
    let achieved = attempted as f64 / load.as_secs_f64();
    // The verify pass runs cold and short; only timed repetitions must keep pace.
    if !plan.full_check && achieved < 0.99 * offered {
        return Err(format!(
            "generators fell behind: achieved {achieved:.0} ops/s of {offered:.0} offered"
        ));
    }
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut acked_writes: Vec<(UpdateId, RegisterId)> = Vec::new();
    for g in gens {
        events.append(&mut g.warm.events);
        events.append(&mut g.window.events);
        acked_writes.append(&mut g.acked_bursts);
    }
    acked_writes.extend(prcc_checker::acked_writes(&events));
    let placement = graph.placement();
    let views: Vec<_> = graph
        .replicas()
        .map(|r| cluster.store_snapshot(r))
        .collect();
    let uncovered = acked_writes
        .iter()
        .flat_map(|&(uid, x)| placement.holders(x).iter().map(move |h| (uid, h)))
        .filter(|&(uid, h)| !views[h.index()].covers(uid))
        .count();
    if uncovered > 0 {
        return Err(format!(
            "{uncovered} acked writes missing from a holder's final view"
        ));
    }
    if cluster.total_lost_to_crash() > 0 {
        return Err(format!(
            "{} updates lost to a crash",
            cluster.total_lost_to_crash()
        ));
    }
    let deliveries = cluster.total_applied();
    if !w.faulty {
        if failed > 0 {
            return Err(format!(
                "{failed} of {attempted} ops failed on a fault-free workload"
            ));
        }
        let expected: usize = acked_writes
            .iter()
            .map(|&(_, x)| placement.holders(x).len() - 1)
            .sum();
        if deliveries - touch_applied != expected {
            return Err(format!(
                "applied {} deliveries, the acked writes call for {expected}",
                deliveries - touch_applied
            ));
        }
    } else {
        let (restarts, scripted) = (cluster.total_restarts(), crate::spec::CRASHES.len());
        if restarts != scripted {
            return Err(format!(
                "{restarts} restarts completed, the script has {scripted}"
            ));
        }
        if failed as f64 > 0.001 * attempted as f64 {
            return Err(format!("{failed} of {attempted} ops failed (limit 0.1%)"));
        }
    }
    Ok(Checked {
        attempted,
        failed,
        deliveries,
        events,
    })
}

/// The full (quadratic) checkers over the recorded trace: causal
/// consistency and the session guarantees of every served op.
fn full_checks(
    graph: &ShareGraph,
    cluster: &ThreadedCluster,
    events: &[SessionEvent],
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let t = Instant::now();
    let trace = cluster.trace_snapshot();
    let hb = HbGraph::build(&trace);
    let report = tracer.call(0, (0, 0, 0), "core::runtime", "check", || {
        prcc_checker::check_with_hb(&trace, graph.placement(), &hb)
    });
    if !report.is_consistent() {
        return Err(format!(
            "causal consistency violated: {} safety, {} liveness",
            report.safety_violations().count(),
            report.liveness_violations().count()
        ));
    }
    let violations = prcc_checker::check_sessions_with_hb(&hb, events);
    if let Some(v) = violations.first() {
        return Err(format!(
            "{} session-guarantee violations, first: {v}",
            violations.len()
        ));
    }
    values.insert("checker.verify_s", t.elapsed().as_secs_f64());
    values.insert("checker.verify_ops", trace.events().len() as f64);
    Ok(())
}

/// The workload's cluster over its transport, with the shipped defaults
/// for everything `config` does not name.
pub fn build_cluster(
    w: &Workload,
    graph: &ShareGraph,
    seed: u64,
    config: ClusterConfig,
    tracer: &mut Tracer,
) -> Result<ThreadedCluster, String> {
    match w.transport {
        Transport::Router => Ok(
            tracer.call(0, (0, 0, 0), "core::runtime", "with_config", || {
                ThreadedCluster::with_config(graph.clone(), DelayModel::Fixed(1), seed, config)
            }),
        ),
        Transport::Tcp => tracer
            .call(0, (0, 0, 0), "core::runtime", "with_tcp", || {
                ThreadedCluster::with_tcp(graph.clone(), config, TcpNetConfig::default())
            })
            .map_err(|e| format!("with_tcp: {e}")),
    }
}

/// Set-up after the cluster exists: the serving tier with every session
/// touched once, or — without a tier — every TCP connection established.
fn front<'c>(
    w: &Workload,
    cluster: &'c ThreadedCluster,
    graph: &ShareGraph,
) -> Result<Option<ServingTier<'c>>, String> {
    match w.front {
        Front::Serving { sessions } => {
            let tier = ServingTier::new(cluster, ServingConfig::default());
            let mut toucher = tier.worker();
            for sid in 0..sessions as u64 {
                toucher
                    .read(sid, RegisterId::new(0), 0)
                    .map_err(|e| format!("first touch of session {sid}: {e}"))?;
            }
            toucher.finish();
            Ok(Some(tier))
        }
        Front::WriteBurst => {
            connect_all(cluster, graph)?;
            Ok(None)
        }
    }
}

/// Runs the generators over `streams` on their own threads; `watch` runs
/// on the calling thread meanwhile, and the generators stay alive until
/// it returns (so it can sample their CPU).
fn drive<W>(
    tier: Option<&ServingTier<'_>>,
    cluster: &ThreadedCluster,
    streams: &[Stream],
    run: GenRun,
    watch: impl FnOnce() -> W,
) -> (Vec<GenOut>, W) {
    let exit_gate = Barrier::new(streams.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(g, stream)| {
                let exit_gate = &exit_gate;
                std::thread::Builder::new()
                    .name(format!("serve-{g}"))
                    .spawn_scoped(s, move || {
                        let out = match (stream, tier) {
                            (Stream::Serve(ops), Some(tier)) => serve(g, tier, ops, run),
                            (Stream::Bursts(bursts), _) => burst(g, cluster, bursts, run),
                            (Stream::Serve(_), None) => {
                                unreachable!("serving stream without a tier")
                            }
                        };
                        exit_gate.wait();
                        out
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        let watched = watch();
        exit_gate.wait();
        let gens = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (gens, watched)
    })
}

/// What every generator of one drive shares.
#[derive(Clone, Copy)]
struct GenRun {
    schedule: Schedule,
    start: Instant,
    warm_ticks: u64,
    /// Stop issuing at this instant even if ticks remain (closed loop).
    deadline: Option<Instant>,
    /// Span epoch, when spans are recorded.
    trace_epoch: Option<Instant>,
}

impl WindowSample {
    /// CPU seconds of every thread over the window.
    fn cpu_s(&self) -> f64 {
        procfs::cpu_between(&self.threads.0, &self.threads.1, "")
    }
}

impl GenRun {
    fn tracer(&self, g: usize) -> Tracer {
        let spans = self.schedule.total_ops() + 4 * self.schedule.ticks as usize;
        match self.trace_epoch {
            Some(epoch) => Tracer::new(epoch, Some(spans), (g as u32 + 1) << 28),
            None => Tracer::off(),
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Saturating closed loop (context only): the generators issue `schedule`
/// back to back for `length`; returns acknowledged ops per second.
pub fn closed_loop(
    w: &Workload,
    graph: &ShareGraph,
    streams: &[Stream],
    seed: u64,
    schedule: Schedule,
    length: Duration,
) -> Result<f64, String> {
    let mut config = w.cluster_config(Duration::ZERO, Duration::from_secs(8));
    config.schedule.crashes.clear();
    let cluster = build_cluster(w, graph, seed, config, &mut Tracer::off())?;
    let tier = front(w, &cluster, graph)?;
    let start = Instant::now();
    let run = GenRun {
        schedule,
        start,
        warm_ticks: 0,
        deadline: Some(start + length),
        trace_epoch: None,
    };
    let (gens, ()) = drive(tier.as_ref(), &cluster, streams, run, || ());
    let end = gens.iter().filter_map(|g| g.end).max().unwrap_or(start);
    let acked: u64 = gens.iter().map(|g| g.acked).sum();
    Ok(acked as f64 / (end - start).as_secs_f64())
}

/// TCP set-up's "first touch": one write at every replica and a wait
/// until each has reached every peer, so all connections (and their delta
/// streams) exist before the first paced tick.
fn connect_all(cluster: &ThreadedCluster, graph: &ShareGraph) -> Result<(), String> {
    let n = graph.num_replicas();
    for r in graph.replicas() {
        cluster.write_burst(r, &[(RegisterId::new(0), value_of(GENERATORS, r.index()))]);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.total_applied() < n * (n - 1) {
        if Instant::now() > deadline {
            return Err("TCP set-up: first writes did not reach every peer in 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// `settle()` has no timeout of its own; run it under a watchdog. A
/// cluster that does not quiesce is a failed run (the stuck thread is
/// abandoned — the process is about to exit non-zero).
fn settle(cluster: &ThreadedCluster) -> Result<(), String> {
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            cluster.settle();
            let _ = tx.send(());
        });
        rx.recv_timeout(SETTLE_LIMIT).map_err(|_| {
            eprintln!(
                "prcc-benchmark: settle() did not return within {} s",
                SETTLE_LIMIT.as_secs()
            );
            std::process::exit(3)
        })
    })
}

fn serve(g: usize, tier: &ServingTier<'_>, ops: &[ServeOp], run: GenRun) -> GenOut {
    let GenRun {
        schedule,
        start,
        warm_ticks,
        ..
    } = run;
    let mut tracer = run.tracer(g);
    let window_ops = schedule.quota * (schedule.ticks - warm_ticks) as usize;
    let mut out = GenOut {
        read_ns: Vec::with_capacity(window_ops),
        late_ns: Vec::with_capacity((schedule.ticks - warm_ticks) as usize),
        ..GenOut::default()
    };
    let gen = g as u32;
    let mut worker = tier.worker();
    let mut pacer = Pacer::new(start, schedule);
    while let Some((k, due)) = pacer.next_tick() {
        if run.expired() {
            break;
        }
        if k == warm_ticks && warm_ticks > 0 {
            // The window gets its own worker so its latency bag holds no
            // warm-up sample; the stall of finishing the old one is
            // charged to this tick's ops like any other stall.
            let old = std::mem::replace(&mut worker, tier.worker());
            out.warm = old.finish();
        }
        let in_window = k >= warm_ticks;
        if in_window {
            out.late_ns.push(due.elapsed().as_nanos() as u64);
        }
        let tick = tracer.open(0, (gen, k, 0), "bench", "tick");
        for (j, i) in schedule.ops_of(k).enumerate() {
            let op = ops[i];
            let req = (gen, k, j as u32);
            let (sid, x) = (u64::from(op.sid), RegisterId::new(op.reg));
            out.attempted += u64::from(in_window);
            if op.write {
                // A shed or rejected write is a failed op: it is counted
                // as attempted and never shows up as acked.
                let _ = tracer.call(tick, req, "core::serving", "write", || {
                    worker.write(sid, x, value_of(g, i))
                });
            } else {
                let ok = tracer
                    .call(tick, req, "core::serving", "read", || {
                        worker.read(sid, x, k)
                    })
                    .is_ok();
                if ok && in_window {
                    out.read_ns.push(due.elapsed().as_nanos() as u64);
                }
            }
        }
        tracer.call(tick, (gen, k, 0), "core::serving", "flush", || {
            worker.flush()
        });
        tracer.call(tick, (gen, k, 0), "core::serving", "poll", || worker.poll());
        tracer.close(tick);
    }
    out.end = Some(Instant::now());
    out.window = tracer.call(
        0,
        (gen, schedule.ticks, 0),
        "core::serving",
        "finish",
        || worker.finish(),
    );
    out.acked = out.window.ops;
    out.spans = tracer.into_spans();
    out
}

fn burst(g: usize, cluster: &ThreadedCluster, bursts: &[(u32, Vec<u32>)], run: GenRun) -> GenOut {
    let GenRun {
        schedule,
        start,
        warm_ticks,
        ..
    } = run;
    let mut tracer = run.tracer(g);
    let window_ticks = (schedule.ticks - warm_ticks) as usize;
    let mut out = GenOut {
        burst_ns: Vec::with_capacity(window_ticks),
        late_ns: Vec::with_capacity(window_ticks),
        acked_bursts: Vec::with_capacity(schedule.total_ops()),
        ..GenOut::default()
    };
    let gen = g as u32;
    let mut pacer = Pacer::new(start, schedule);
    let mut writes = Vec::with_capacity(schedule.quota);
    while let Some((k, due)) = pacer.next_tick() {
        if run.expired() {
            break;
        }
        let in_window = k >= warm_ticks;
        if in_window {
            out.late_ns.push(due.elapsed().as_nanos() as u64);
        }
        let (replica, regs) = &bursts[k as usize];
        writes.clear();
        writes.extend(regs.iter().enumerate().map(|(j, &x)| {
            (
                RegisterId::new(x),
                value_of(g, k as usize * schedule.quota + j),
            )
        }));
        let ids = tracer.call(0, (gen, k, 0), "core::runtime", "write_burst", || {
            cluster.write_burst(ReplicaId::new(*replica), &writes)
        });
        if in_window {
            out.burst_ns.push(due.elapsed().as_nanos() as u64);
            out.attempted += ids.len() as u64;
            out.acked += ids.len() as u64;
        }
        out.acked_bursts
            .extend(ids.into_iter().zip(writes.iter().map(|&(x, _)| x)));
    }
    out.end = Some(Instant::now());
    out.spans = tracer.into_spans();
    out
}

/// The coordinating thread's part of a repetition: CPU over the window
/// (every thread), and in a traced run CPU by thread name plus — on the crash
/// workload — how long each restarted replica takes to catch up.
fn watch_window(
    w: &Workload,
    cluster: &ThreadedCluster,
    plan: &Plan,
    built: Instant,
    start: Instant,
    window_off: Duration,
    window: Duration,
) -> WindowSample {
    // Pacing may have begun later than `built + LEAD` when set-up overran.
    let window_start = start + (window_off - LEAD);
    let window_end = window_start + window;
    sleep_until(window_start);
    let before = procfs::sample_threads(plan.traced);
    let mut catchup_ms = Vec::new();
    if plan.traced {
        for (r, _, restart) in w.crash_times(window_off, window) {
            catchup_ms.push(catch_up_ms(cluster, ReplicaId::new(r), built + restart));
        }
    }
    sleep_until(window_end);
    let after = procfs::sample_threads(plan.traced);
    WindowSample {
        threads: (before, after),
        catchup_ms,
    }
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Scheduled restart of `r` → its published frontier covers a peer's
/// frontier sampled at the restart instant; polled every millisecond.
fn catch_up_ms(cluster: &ThreadedCluster, r: ReplicaId, restart_at: Instant) -> f64 {
    sleep_until(restart_at);
    let n = cluster.graph().num_replicas() as u32;
    let peer = ReplicaId::new((r.raw() + 1) % n);
    let target = cluster.store_snapshot(peer).frontier().to_vec();
    let deadline = restart_at + Duration::from_secs(10);
    loop {
        let view = cluster.store_snapshot(r);
        let caught_up = !cluster.is_crashed(r)
            && view
                .frontier()
                .iter()
                .zip(&target)
                .all(|(have, want)| have >= want);
        if caught_up || Instant::now() > deadline {
            return restart_at.elapsed().as_secs_f64() * 1e3;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Per-layer numbers read off the live cluster's public counters.
fn live_layer_values(
    v: &mut Values,
    w: &Workload,
    cluster: &ThreadedCluster,
    sample: &WindowSample,
    attempted: u64,
    deliveries: usize,
) {
    let tcp = cluster.tcp_stats().unwrap_or_default();
    let sum = |f: fn(&prcc_net::TcpStatsSnapshot) -> u64| tcp.iter().map(f).sum::<u64>() as f64;
    let frames = sum(|t| t.frames_sent);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    v.insert(
        "tcp_net.syscalls_per_update",
        per(
            sum(|t| t.write_syscalls) + sum(|t| t.read_syscalls),
            deliveries as f64,
        ),
    );
    v.insert(
        "tcp_net.bytes_per_frame",
        per(sum(|t| t.bytes_sent), frames),
    );
    v.insert("tcp_net.shed_outbound", sum(|t| t.shed_outbound));
    v.insert("tcp_net.reconnects", sum(|t| t.reconnects));
    // Frames are counted by the transport on TCP; on the router every
    // retransmitting configuration ships eagerly, one frame per delivery.
    let session_frames = if w.transport == Transport::Tcp {
        frames
    } else {
        deliveries as f64
    };
    v.insert(
        "session.retransmits_per_k_frames",
        per(cluster.total_retransmits() as f64 * 1e3, session_frames),
    );
    let (before, after) = &sample.threads;
    if after.threads.iter().any(|t| !t.comm.is_empty()) {
        let total = sample.cpu_s().max(1e-9);
        for (name, prefix) in [
            ("runtime.cpu_share.apply", "apply-"),
            ("runtime.cpu_share.io", "io-"),
            ("runtime.cpu_share.router", "net-router"),
            ("runtime.cpu_share.tcp", "prcc-tcp-"),
            ("runtime.cpu_share.serve", "serve-"),
        ] {
            v.insert(name, procfs::cpu_between(before, after, prefix) / total);
        }
        v.insert(
            "runtime.ctx_switches_per_op",
            (after.ctx_switches - before.ctx_switches) as f64 / attempted.max(1) as f64,
        );
    }
}

fn serving_values(
    v: &mut Values,
    now: &ServingStats,
    touch: &ServingStats,
    collected: &mut Collected,
    reads: usize,
) {
    let routed = (now.ops_routed_local - touch.ops_routed_local) as f64;
    let forwarded = (now.ops_forwarded - touch.ops_forwarded) as f64;
    let per_k_reads = |n: u64| n as f64 * 1e3 / reads.max(1) as f64;
    v.insert(
        "serving.forwarded_share",
        forwarded / (routed + forwarded).max(1.0),
    );
    v.insert(
        "serving.ryw_blocks_per_k_reads",
        per_k_reads(now.ryw_blocks),
    );
    v.insert("serving.mr_blocks_per_k_reads", per_k_reads(now.mr_blocks));
    v.insert("serving.dep_evictions", now.dep_evictions as f64);
    v.insert("serving.failovers", now.failovers as f64);
    v.insert(
        "serving.failover_p99_us",
        us(collected.failover_lat.p99() as f64),
    );
    v.insert("serving.ops_shed", now.ops_shed as f64);
    v.insert("serving.op_timeouts", now.op_timeouts as f64);
    v.insert("serving.writes_abandoned", now.writes_abandoned as f64);
}

/// Per-call numbers from the generators' spans (traced repetition only),
/// restricted to spans that started inside the measured window.
fn span_values(v: &mut Values, spans: &[Span], window_start: Duration, window: Duration) {
    let lo = window_start.as_nanos() as u64;
    let hi = lo + window.as_nanos() as u64;
    let windowed: Vec<Span> = spans
        .iter()
        .filter(|s| (lo..hi).contains(&s.start_ns))
        .copied()
        .collect();
    let p50 =
        |layer: &str, name: &str| percentile(&mut span::durations(&windowed, layer, name), 0.5);
    v.insert("serving.read_call_ns_p50", p50("core::serving", "read"));
    v.insert("serving.write_call_ns_p50", p50("core::serving", "write"));
    v.insert(
        "serving.flush_call_us_p50",
        us(p50("core::serving", "flush")),
    );
    let in_flush: u64 = span::durations(&windowed, "core::serving", "flush")
        .iter()
        .sum();
    v.insert(
        "serving.flush_park_share",
        in_flush as f64 / (GENERATORS as f64 * window.as_nanos() as f64),
    );
}
