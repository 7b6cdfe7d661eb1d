//! Per-layer probes of the traced run, all taken from outside the
//! program through public functions:
//!
//! * a single-threaded **stack replay** — the same seeded updates pushed
//!   through each layer's public functions in journey order, one span per
//!   call, so a layer's busy time per update is measured without another
//!   thread competing for the core;
//! * **transport pumps** — frames through a `ThreadNet` pair and through
//!   a loopback `TcpEndpoint` pair, no protocol stack on top;
//! * **idle-cluster probes** of `core::runtime` — blocking write round
//!   trip, `write_burst`, snapshot read — and a saturating closed loop.

use crate::ops::{self, value_of, Stream};
use crate::pacer::Schedule;
use crate::rep::{self, Values};
use crate::span::{self, Span, Tracer};
use crate::spec::{Front, Transport, Workload, GENERATORS, REPLAY_UPDATES};
use crate::stats::{median, percentile};
use prcc_core::runtime::ReplicaView;
use prcc_core::serving::{route, ServingConfig};
use prcc_core::{
    cluster_codec, BatchMsg, CausalityTracker, EdgeTracker, RecoveryLog, Replica, StoreMode,
    UpdateMsg, WireCodec, WireMode,
};
use prcc_net::{
    BoundListener, DelayModel, LinkCodec, SessionEndpoint, SessionFrame, TcpEndpoint, TcpNetConfig,
    ThreadNet, Transport as _,
};
use prcc_sharegraph::{LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_timestamp::TsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Probes {
    pub values: Values,
    pub spans: Vec<Span>,
}

/// Tick groups of the replay whose spans are kept for the trace file
/// (every group is counted in the metrics).
const REPLAY_TRACED_GROUPS: u64 = 200;
/// Frames per transport pump.
const PUMP_FRAMES: u64 = 20_000;
/// Length of the saturating closed loop (context only).
const CLOSED_LOOP: Duration = Duration::from_secs(5);

pub fn probe(
    w: &Workload,
    graph: &ShareGraph,
    streams: &[Stream],
    seed: u64,
    live_cpu_ns_per_update: f64,
) -> Result<Probes, String> {
    let mut values = Values::new();
    let spans = replay(w, graph, streams, live_cpu_ns_per_update, &mut values)?;
    pump_thread_net(seed, &mut values)?;
    pump_tcp(&mut values)?;
    idle_cluster(w, graph, seed, &mut values)?;
    closed_loop(w, graph, seed, &mut values)?;
    Ok(Probes { values, spans })
}

/// Self time per `(layer, call)`, summed over the whole replay.
#[derive(Default)]
struct Busy(BTreeMap<(&'static str, &'static str), (u64, u64)>);

impl Busy {
    fn total(&self, layer: &str, name: &str) -> f64 {
        self.0.get(&(layer, name)).map_or(0.0, |&(ns, _)| ns as f64)
    }

    fn mean(&self, layer: &str, name: &str) -> f64 {
        self.0
            .get(&(layer, name))
            .map_or(0.0, |&(ns, calls)| ns as f64 / calls.max(1) as f64)
    }
}

/// The replay's recorder: every call is a span; at the end of each tick
/// group the spans' self times go into the sums, and the first groups'
/// spans are kept for the trace file.
struct Clock {
    tracer: Tracer,
    busy: Busy,
    kept: Vec<Span>,
}

impl Clock {
    fn end_group(&mut self, k: u64) {
        let spans = self.tracer.take();
        for (s, self_ns) in spans.iter().zip(span::self_times(&spans)) {
            let e = self.busy.0.entry((s.layer, s.name)).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        if k < REPLAY_TRACED_GROUPS {
            self.kept.extend(spans);
        }
    }
}

/// The writes of tick `k`, both generators, as `(issuer, register, value)`.
fn updates_of_tick(
    w: &Workload,
    graph: &ShareGraph,
    streams: &[Stream],
    k: u64,
) -> Vec<(ReplicaId, RegisterId, prcc_core::Value)> {
    let span = ServingConfig::default().attach_span;
    let mut out = Vec::new();
    for (g, stream) in streams.iter().enumerate() {
        match stream {
            Stream::Serve(ops) => {
                let lo = k as usize * w.quota;
                for (i, op) in ops[lo..lo + w.quota].iter().enumerate() {
                    if op.write {
                        let x = RegisterId::new(op.reg);
                        let (issuer, _) = route(graph, u64::from(op.sid), span, x);
                        out.push((issuer, x, value_of(g, lo + i)));
                    }
                }
            }
            Stream::Bursts(bursts) => {
                let (r, regs) = &bursts[k as usize];
                for (j, &x) in regs.iter().enumerate() {
                    let v = value_of(g, k as usize * w.quota + j);
                    out.push((ReplicaId::new(*r), RegisterId::new(x), v));
                }
            }
        }
    }
    out
}

/// One ordered pair's byte path: the sender's encoder and the receiver's
/// decoder of the TCP link codec.
struct Link {
    enc: Box<dyn LinkCodec<Msg = SessionFrame<BatchMsg>>>,
    dec: Box<dyn LinkCodec<Msg = SessionFrame<BatchMsg>>>,
}

fn replay(
    w: &Workload,
    graph: &ShareGraph,
    streams: &[Stream],
    live_cpu_ns_per_update: f64,
    values: &mut Values,
) -> Result<Vec<Span>, String> {
    let n = graph.num_replicas();
    let config = w.cluster_config(Duration::ZERO, Duration::from_secs(8));
    let t = Instant::now();
    let ts_graphs = TimestampGraphs::build(graph, LoopConfig::EXHAUSTIVE);
    values.insert(
        "sharegraph.tsgraph_build_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    values.insert(
        "sharegraph.tracked_edges_mean",
        ts_graphs.iter().map(|g| g.len()).sum::<usize>() as f64 / n as f64,
    );
    let t = Instant::now();
    let registry = Arc::new(TsRegistry::new(graph, ts_graphs));
    values.insert(
        "timestamp.registry_build_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );

    let ids: Vec<ReplicaId> = graph.replicas().collect();
    let mut replicas: Vec<Replica> = ids
        .iter()
        .map(|&i| {
            Replica::new(
                i,
                graph.placement().registers_of(i).clone(),
                Box::new(EdgeTracker::new(registry.clone(), i)) as Box<dyn CausalityTracker>,
            )
        })
        .collect();
    // Shadow trackers see exactly what each replica's own tracker sees,
    // so the timestamp layer's share of `write` / `receive_batch` can be
    // timed on its own.
    let mut shadows: Vec<EdgeTracker> = ids
        .iter()
        .map(|&i| EdgeTracker::new(registry.clone(), i))
        .collect();
    let mut codecs: Vec<WireCodec> = ids
        .iter()
        .map(|_| WireCodec::new(WireMode::default(), Some(registry.clone())))
        .collect();
    let mut sessions: Option<Vec<SessionEndpoint<BatchMsg>>> = config
        .session
        .map(|cfg| ids.iter().map(|&i| SessionEndpoint::new(i, cfg)).collect());
    let mut logs: Option<Vec<RecoveryLog>> = config.durability.map(|every| {
        replicas
            .iter()
            .map(|r| RecoveryLog::new(r.clone(), every))
            .collect()
    });
    let mut links: HashMap<(ReplicaId, ReplicaId), Link> = HashMap::new();
    let mut frontiers = vec![vec![0u64; n]; n];
    let mut published: Vec<ReplicaView> = replicas
        .iter()
        .zip(&frontiers)
        .map(|(r, f)| ReplicaView::capture(r, StoreMode::default(), f.clone()))
        .collect();

    let total_ticks = match &streams[0] {
        Stream::Serve(ops) => (ops.len() / w.quota) as u64,
        Stream::Bursts(b) => b.len() as u64,
    };
    let mut clock = Clock {
        tracer: Tracer::new(Instant::now(), Some(1 << 12), 3 << 28),
        busy: Busy::default(),
        kept: Vec::new(),
    };
    let (mut updates, mut deliveries, mut frames, mut link_msgs) = (0u64, 0u64, 0u64, 0u64);
    let (mut wire_counters, mut meta_bytes, mut session_overhead) = (0u64, 0u64, 0u64);
    let (mut publishes, mut cow_clones) = (0u64, 0u64);
    let mut recover_ms = Vec::new();
    let mut buf = Vec::new();

    for k in 0..total_ticks {
        if updates as usize >= REPLAY_UPDATES {
            break;
        }
        let group = clock.tracer.open(0, (0, k, 0), "bench", "tick_group");
        let mut outq: BTreeMap<(ReplicaId, ReplicaId), Vec<UpdateMsg>> = BTreeMap::new();
        let mut wrote = vec![false; n];
        for (j, (issuer, x, v)) in updates_of_tick(w, graph, streams, k)
            .into_iter()
            .enumerate()
        {
            let req = (0, k, j as u32);
            let i = issuer.index();
            let journey = clock.tracer.open(group, req, "bench", "update");
            clock
                .tracer
                .call(journey, req, "timestamp", "advance(probe)", || {
                    shadows[i].on_local_write(x)
                });
            if let Some(logs) = logs.as_mut() {
                clock
                    .tracer
                    .call(journey, req, "core::recovery", "record_own_write", || {
                        logs[i].record_own_write(x, v.clone())
                    });
            }
            let recipients: Vec<ReplicaId> = graph
                .placement()
                .holders(x)
                .iter()
                .copied()
                .filter(|&h| h != issuer)
                .collect();
            let (msg, recipients) = clock
                .tracer
                .call(journey, req, "core::replica", "write", || {
                    replicas[i].write(x, v, recipients)
                })
                .map_err(|e| format!("replay write: {e}"))?;
            frontiers[i][i] = msg.seq + 1;
            wrote[i] = true;
            let metas = clock
                .tracer
                .call(journey, req, "core::codec", "encode_fanout", || {
                    codecs[i].encode_fanout(issuer, &recipients, &msg.meta)
                });
            for (dst, meta) in recipients.into_iter().zip(metas) {
                wire_counters += meta.num_counters() as u64;
                meta_bytes += meta.size_bytes() as u64;
                outq.entry((issuer, dst)).or_default().push(UpdateMsg {
                    meta,
                    ..msg.clone()
                });
            }
            clock.tracer.close(journey);
            updates += 1;
        }

        // Ship each pair's coalesced batch: session → link bytes → session
        // → `J` + apply → publish, as the replica loops do per drain pass.
        let now_ms = k * w.tick.as_micros() as u64 / 1_000;
        for ((src, dst), msgs) in outq {
            let (s, d) = (src.index(), dst.index());
            let req = (0, k, msgs[0].seq as u32);
            let count = msgs.len() as u64;
            let batch = BatchMsg { updates: msgs };
            if let Some(logs) = logs.as_mut() {
                clock
                    .tracer
                    .call(group, req, "core::recovery", "record_send", || {
                        logs[s].record_send(dst, batch.clone())
                    });
            }
            let frame = match sessions.as_mut() {
                Some(eps) => clock.tracer.call(group, req, "net::session", "send", || {
                    eps[s].send(dst, batch, now_ms)
                }),
                None => SessionFrame::Bare(batch),
            };
            session_overhead += frame.overhead_bytes() as u64;
            let link = links.entry((src, dst)).or_insert_with(|| Link {
                enc: cluster_codec(src, registry.clone())(dst),
                dec: cluster_codec(dst, registry.clone())(src),
            });
            buf.clear();
            clock
                .tracer
                .call(group, req, "timestamp", "wire_encode", || {
                    link.enc.encode(&frame, &mut buf)
                });
            let frame = clock
                .tracer
                .call(group, req, "timestamp", "wire_decode", || {
                    link.dec.decode(&buf)
                })
                .map_err(|e| format!("replay link decode: {e}"))?;
            frames += 1;
            link_msgs += count;
            let batches = match sessions.as_mut() {
                Some(eps) => {
                    let mut acks = Vec::new();
                    let got = clock
                        .tracer
                        .call(group, req, "net::session", "on_frame", || {
                            eps[d].on_frame(src, frame, now_ms, &mut acks)
                        });
                    for (to, ack) in acks {
                        session_overhead += ack.overhead_bytes() as u64;
                        let mut none = Vec::new();
                        clock
                            .tracer
                            .call(group, req, "net::session", "on_frame", || {
                                eps[to.index()].on_frame(dst, ack, now_ms, &mut none)
                            });
                    }
                    got
                }
                None => match frame {
                    SessionFrame::Bare(b) => vec![b],
                    _ => Vec::new(),
                },
            };
            for b in batches {
                if let Some(logs) = logs.as_mut() {
                    clock
                        .tracer
                        .call(group, req, "core::recovery", "record_delivery", || {
                            logs[d].record_delivery(src, b.clone())
                        });
                }
                clock
                    .tracer
                    .call(group, req, "timestamp", "ready_merge(probe)", || {
                        for m in &b.updates {
                            std::hint::black_box(shadows[d].ready_check(m));
                            shadows[d].on_apply(m);
                        }
                    });
                let applied =
                    clock
                        .tracer
                        .call(group, req, "core::replica", "receive_batch", || {
                            replicas[d].receive_batch(b.updates)
                        });
                for a in &applied {
                    let f = &mut frontiers[d][a.msg.issuer.index()];
                    *f = (*f).max(a.msg.seq + 1);
                }
                deliveries += applied.len() as u64;
                wrote[d] |= !applied.is_empty();
            }
        }

        // One publish per replica that changed, like a drain burst.
        for i in (0..n).filter(|&i| wrote[i]) {
            let view = clock
                .tracer
                .call(group, (0, k, 0), "core::store_cow", "publish", || {
                    ReplicaView::capture(&replicas[i], StoreMode::default(), frontiers[i].clone())
                });
            if let Some((aliased, total)) = view.shards_shared_with(&published[i]) {
                cow_clones += (total - aliased) as u64;
            }
            publishes += 1;
            published[i] = view;
            if let Some(logs) = logs.as_mut() {
                clock
                    .tracer
                    .call(group, (0, k, 0), "core::recovery", "maybe_snapshot", || {
                        logs[i].maybe_snapshot_with_frontier(&replicas[i], &frontiers[i])
                    });
            }
        }
        if let Some(logs) = logs.as_ref() {
            if k % 500 == 499 {
                let t = Instant::now();
                std::hint::black_box(logs[(k / 500) as usize % n].recover_with_frontier(n));
                recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        clock.tracer.close(group);
        clock.end_group(k);
    }
    if deliveries == 0 {
        return Err("stack replay delivered nothing".into());
    }

    let busy = &clock.busy;
    let per = |a: f64, b: u64| a / b.max(1) as f64;
    values.insert(
        "timestamp.advance_ns",
        busy.mean("timestamp", "advance(probe)"),
    );
    values.insert(
        "timestamp.ready_merge_ns",
        per(busy.total("timestamp", "ready_merge(probe)"), deliveries),
    );
    values.insert(
        "timestamp.wire_encode_ns_per_msg",
        per(busy.total("timestamp", "wire_encode"), link_msgs),
    );
    values.insert(
        "timestamp.wire_decode_ns_per_msg",
        per(busy.total("timestamp", "wire_decode"), link_msgs),
    );
    values.insert(
        "timestamp.counters_per_msg",
        per(wire_counters as f64, link_msgs),
    );
    values.insert("replica.write_ns", busy.mean("core::replica", "write"));
    values.insert(
        "replica.receive_ns_per_update",
        per(busy.total("core::replica", "receive_batch"), deliveries),
    );
    let applied: u64 = replicas.iter().map(Replica::applied_count).sum();
    values.insert(
        "replica.predicate_evals_per_apply",
        per(
            replicas.iter().map(Replica::predicate_evals).sum::<u64>() as f64,
            applied,
        ),
    );
    values.insert(
        "replica.batch_fast_share",
        per(
            replicas
                .iter()
                .map(Replica::batch_fast_applies)
                .sum::<u64>() as f64,
            applied,
        ),
    );
    values.insert(
        "codec.encode_fanout_ns",
        busy.mean("core::codec", "encode_fanout"),
    );
    values.insert("codec.bytes_per_msg", per(meta_bytes as f64, link_msgs));
    let (codec_frames, shared) = codecs.iter().fold((0, 0), |(f, s), c| {
        (f + c.stats().frames, s + c.stats().shared_frames)
    });
    values.insert(
        "codec.shared_frame_share",
        per(shared as f64, codec_frames as u64),
    );
    values.insert(
        "store_cow.publish_ns",
        busy.mean("core::store_cow", "publish"),
    );
    values.insert(
        "store_cow.cow_clones_per_publish",
        per(cow_clones as f64, publishes),
    );
    let recovery: f64 = [
        "record_own_write",
        "record_send",
        "record_delivery",
        "maybe_snapshot",
    ]
    .iter()
    .map(|n| busy.total("core::recovery", n))
    .sum();
    values.insert("recovery.record_ns_per_update", per(recovery, updates));
    values.insert("recovery.recover_ms", median(&recover_ms));
    values.insert("session.send_ns", busy.mean("net::session", "send"));
    values.insert("session.on_frame_ns", busy.mean("net::session", "on_frame"));
    values.insert(
        "session.overhead_bytes_per_frame",
        per(session_overhead as f64, frames),
    );
    if let Some(eps) = &sessions {
        let (acks, piggy) = eps.iter().fold((0, 0), |(a, p), e| {
            (a + e.stats().acks_sent, p + e.stats().acks_piggybacked)
        });
        values.insert(
            "session.piggyback_share",
            per(piggy as f64, (acks + piggy) as u64),
        );
    }

    // The journey's busy time: every call on this workload's live path
    // (probes are contained in `write` / `receive_batch`; the byte codec
    // only runs over TCP).
    let on_path = |layer: &str, name: &str| match (layer, name) {
        (_, n) if n.ends_with("(probe)") => false,
        ("timestamp", _) => w.transport == Transport::Tcp,
        ("bench", _) => false,
        _ => true,
    };
    let sum: f64 = busy
        .0
        .iter()
        .filter(|((l, n), _)| on_path(l, n))
        .map(|(_, &(ns, _))| ns as f64)
        .sum();
    values.insert("stack.sum_ns_per_update", per(sum, updates));
    values.insert(
        "stack.cpu_explained_share",
        per(sum, updates) / live_cpu_ns_per_update.max(1.0),
    );
    Ok(clock.kept)
}

/// Frames through the in-process router and nothing else: the injected
/// one-tick delay is the floor under every `visibility_*` number.
fn pump_thread_net(seed: u64, values: &mut Values) -> Result<(), String> {
    let net: ThreadNet<u64> = ThreadNet::with_config(
        2,
        DelayModel::Fixed(1),
        seed,
        prcc_net::FaultPlan::none(),
        PUMP_FRAMES as usize + 16,
    );
    let (a, b) = (net.handle(ReplicaId::new(0)), net.handle(ReplicaId::new(1)));
    let lost = || "ThreadNet pump lost a frame".to_string();
    let mut hops = Vec::with_capacity(500);
    for i in 0..500 {
        let t = Instant::now();
        a.send(b.id(), i);
        b.recv_timeout(Duration::from_secs(5)).ok_or_else(lost)?;
        hops.push(t.elapsed().as_nanos() as u64);
    }
    values.insert("thread_net.hop_p50_us", percentile(&mut hops, 0.5) / 1e3);
    let t = Instant::now();
    std::thread::scope(|s| {
        let rx =
            s.spawn(|| (0..PUMP_FRAMES).all(|_| b.recv_timeout(Duration::from_secs(5)).is_some()));
        for i in 0..PUMP_FRAMES {
            a.send(b.id(), i);
        }
        rx.join()
            .expect("pump receiver")
            .then_some(())
            .ok_or_else(lost)
    })?;
    values.insert(
        "thread_net.pump_frames_per_s",
        PUMP_FRAMES as f64 / t.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// One-update frames through a single loopback socket pair with the real
/// link codec and the default `TcpNetConfig`, no protocol stack on top.
fn pump_tcp(values: &mut Values) -> Result<(), String> {
    let g = prcc_sharegraph::topology::path(2);
    let registry = Arc::new(TsRegistry::new(
        &g,
        TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE),
    ));
    let (src, dst) = (ReplicaId::new(0), ReplicaId::new(1));
    let io = |e: std::io::Error| format!("TCP pump: {e}");
    let b0 = BoundListener::bind(src, ([127, 0, 0, 1], 0).into()).map_err(io)?;
    let b1 = BoundListener::bind(dst, ([127, 0, 0, 1], 0).into()).map_err(io)?;
    let (a0, a1) = (b0.local_addr(), b1.local_addr());
    let cfg = TcpNetConfig::default();
    let e0 = TcpEndpoint::start(
        b0,
        HashMap::from([(dst, a1)]),
        cfg.clone(),
        cluster_codec(src, registry.clone()),
    )
    .map_err(io)?;
    let e1 = TcpEndpoint::start(
        b1,
        HashMap::from([(src, a0)]),
        cfg,
        cluster_codec(dst, registry.clone()),
    )
    .map_err(io)?;
    let (h0, h1) = (e0.handle(), e1.handle());
    let mut sender = Replica::new(
        src,
        g.placement().registers_of(src).clone(),
        Box::new(EdgeTracker::new(registry, src)) as Box<dyn CausalityTracker>,
    );
    let mut frame = || -> Result<SessionFrame<BatchMsg>, String> {
        let (msg, _) = sender
            .write(RegisterId::new(0), prcc_core::Value::from(1u64), vec![dst])
            .map_err(|e| format!("TCP pump: {e}"))?;
        Ok(SessionFrame::Bare(BatchMsg::singleton(msg)))
    };
    let lost = || "TCP pump lost a frame".to_string();
    // Prime the connection so the handshake is outside the timed part.
    h0.send(dst, frame()?);
    h1.recv_timeout(Duration::from_secs(10)).ok_or_else(lost)?;
    let frames: Vec<_> = (0..PUMP_FRAMES)
        .map(|_| frame())
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    std::thread::scope(|s| {
        let rx = s
            .spawn(|| (0..PUMP_FRAMES).all(|_| h1.recv_timeout(Duration::from_secs(10)).is_some()));
        for f in frames {
            // A full outbox sheds; the pump retries instead of losing.
            let mut f = Some(f);
            while let Some(frame) = f.take() {
                if !h0.send(dst, frame.clone()) {
                    f = Some(frame);
                    std::thread::yield_now();
                }
            }
        }
        rx.join()
            .expect("pump receiver")
            .then_some(())
            .ok_or_else(lost)
    })?;
    values.insert(
        "tcp_net.pump_frames_per_s",
        PUMP_FRAMES as f64 / t.elapsed().as_secs_f64(),
    );
    e0.shutdown();
    e1.shutdown();
    Ok(())
}

/// `core::runtime`'s client calls against an otherwise idle cluster of
/// the workload's shape (crash script removed): what one call costs when
/// nothing queues behind anything.
fn idle_cluster(
    w: &Workload,
    graph: &ShareGraph,
    seed: u64,
    values: &mut Values,
) -> Result<(), String> {
    let mut config = w.cluster_config(Duration::ZERO, Duration::from_secs(8));
    config.schedule.crashes.clear();
    let cluster = rep::build_cluster(w, graph, seed, config, &mut Tracer::off())?;
    let r = ReplicaId::new(0);
    let xs: Vec<RegisterId> = graph.placement().registers_of(r).iter().collect();
    let x = |i: usize| xs[i % xs.len()];
    let mut rtt = Vec::with_capacity(300);
    for i in 0..300 {
        let t = Instant::now();
        cluster.write(r, x(i), value_of(GENERATORS, i));
        rtt.push(t.elapsed().as_nanos() as u64);
    }
    values.insert("runtime.write_rtt_p50_us", percentile(&mut rtt, 0.5) / 1e3);
    let burst: Vec<_> = (0..100)
        .map(|i| (x(i), value_of(GENERATORS, 1_000 + i)))
        .collect();
    let t = Instant::now();
    for _ in 0..50 {
        std::hint::black_box(cluster.write_burst(r, &burst));
    }
    values.insert(
        "runtime.write_burst_ns_per_update",
        t.elapsed().as_nanos() as f64 / (50 * burst.len()) as f64,
    );
    let reads = 200_000;
    let t = Instant::now();
    for i in 0..reads {
        std::hint::black_box(cluster.read(r, x(i)));
    }
    values.insert(
        "runtime.snapshot_read_ns",
        t.elapsed().as_nanos() as f64 / reads as f64,
    );
    Ok(())
}

/// A saturating closed loop over a fresh cluster: the generators issue
/// their quotas back to back with no pacing. Context only (it spreads
/// ±15% run to run); capacity is tracked by `cpu_us_per_op`.
fn closed_loop(
    w: &Workload,
    graph: &ShareGraph,
    seed: u64,
    values: &mut Values,
) -> Result<(), String> {
    // Enough stream for the fastest path at several hundred thousand ops/s.
    let ops_per_gen = match w.front {
        Front::Serving { .. } => 1_500_000,
        Front::WriteBurst => 400_000,
    };
    let schedule = Schedule {
        tick: Duration::ZERO,
        quota: w.quota,
        ticks: (ops_per_gen / w.quota) as u64,
    };
    let streams = ops::generate_all(w, graph, seed, schedule.ticks);
    let rate = rep::closed_loop(w, graph, &streams, seed, schedule, CLOSED_LOOP)?;
    values.insert("runtime.closed_loop_ops_per_s", rate);
    Ok(())
}
