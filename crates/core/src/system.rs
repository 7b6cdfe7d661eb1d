//! A complete simulated deployment: replicas + network + trace + metrics.
//!
//! [`System`] is the lockstep driver of the replica engine
//! (`crate::engine`, DESIGN §15): one engine per share-graph vertex, a
//! deterministic [`SimNetwork`] carrying the frames they emit, and an
//! execution [`Trace`] fed to the consistency checker. The driver only
//! schedules inputs — scripted crashes and restarts, the flush of the
//! batches the writes since the last step opened, deliveries and session
//! timers, in that priority order at equal simulated instants — and
//! performs the engines' sends; the codec,
//! batching, session and WAL live in the engine, shared with the
//! threaded runtime. A [`SystemBuilder`] selects:
//!
//! * the causality tracker — the paper's edge-indexed algorithm
//!   (optionally loop-truncated, Appendix D) or the vector-clock baseline
//!   (which broadcasts metadata to every replica, i.e. the dummy-register
//!   emulation of full replication);
//! * dummy registers (Appendix D) — extra metadata-only subscriptions
//!   that reshape the share graph;
//! * dropped timestamp-graph edges — deliberate *oblivious* replicas for
//!   reproducing Theorem 8's impossibility executions (experiment E2).

use crate::codec::{CodecStats, WireMode};
pub use crate::engine::BatchPolicy;
use crate::engine::{add_codec_stats, Engine, EngineConfig, Outgoing};
use crate::message::{BatchMsg, UpdateMsg};
use crate::replica::{Applied, Replica};
use crate::stats::LatencyStats;
use crate::tracker::{CausalityTracker, EdgeTracker, FullDepsTracker, VcTracker};
use crate::value::Value;
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{DelayModel, FaultSchedule, SessionConfig, SessionFrame, SessionStats, SimNetwork};
use prcc_sharegraph::{
    EdgeId, LoopConfig, Placement, RegisterId, ReplicaId, ShareGraph, TimestampGraph,
    TimestampGraphs,
};
use prcc_timestamp::TsRegistry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Which causality tracker the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerKind {
    /// The paper's edge-indexed timestamps, with the given loop-search
    /// bound (use [`LoopConfig::EXHAUSTIVE`] for the exact algorithm).
    EdgeIndexed(LoopConfig),
    /// Classic vector clocks with metadata broadcast to all replicas —
    /// the full-replication emulation baseline (Appendix D).
    VectorClock,
    /// Explicit full-transitive dependency lists (Full-Track-style,
    /// Shen et al.): correct under partial replication with no metadata
    /// broadcast, but metadata grows with history.
    FullDeps,
}

impl TrackerKind {
    /// Builds one replica per vertex of `graph`, storing its `data`
    /// registers and running this tracker — the one place a lockstep
    /// driver ([`System`], [`Scenario`](crate::Scenario),
    /// [`RoutedSystem`](crate::RoutedSystem)) turns a tracker kind into
    /// trackers. Edge-indexed trackers share one [`TsRegistry`] over
    /// `graph`'s timestamp graphs minus the `dropped` edges (oblivious
    /// replicas); it is returned too, for the wire codec.
    pub(crate) fn build_replicas(
        self,
        graph: &ShareGraph,
        data: &Placement,
        dropped: &[(ReplicaId, EdgeId)],
    ) -> (Option<Arc<TsRegistry>>, Vec<Replica>) {
        let registry = match self {
            TrackerKind::EdgeIndexed(loops) => {
                let mut graphs: Vec<TimestampGraph> = graph
                    .replicas()
                    .map(|i| TimestampGraph::build(graph, i, loops))
                    .collect();
                for (i, e) in dropped {
                    let tg = &graphs[i.index()];
                    let edges: Vec<EdgeId> =
                        tg.edges().iter().copied().filter(|x| x != e).collect();
                    graphs[i.index()] = TimestampGraph::from_edges(*i, edges);
                }
                let graphs = TimestampGraphs::from_graphs(graphs);
                Some(Arc::new(TsRegistry::new(graph, graphs)))
            }
            TrackerKind::VectorClock | TrackerKind::FullDeps => None,
        };
        let n = graph.num_replicas();
        let replicas = graph
            .replicas()
            .map(|i| {
                let stores = data.registers_of(i).clone();
                let tracker: Box<dyn CausalityTracker> = match (&registry, self) {
                    (Some(registry), _) => Box::new(EdgeTracker::new(registry.clone(), i)),
                    (None, TrackerKind::FullDeps) => {
                        Box::new(FullDepsTracker::new(i, stores.clone()))
                    }
                    (None, _) => Box::new(VcTracker::new(i, n)),
                };
                Replica::new(i, stores, tracker)
            })
            .collect();
        (registry, replicas)
    }
}

/// Aggregate counters collected while a [`System`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemMetrics {
    /// Messages carrying a data payload.
    pub data_messages: usize,
    /// Metadata-only messages (dummy registers / VC broadcast).
    pub meta_messages: usize,
    /// Total metadata bytes across all messages.
    pub metadata_bytes: usize,
    /// Total payload bytes across data messages.
    pub payload_bytes: usize,
    /// Remote updates applied.
    pub applies: usize,
    /// Sum over applied updates of (apply − arrival) in ticks.
    pub total_pending_wait: u64,
    /// Max single (apply − arrival).
    pub max_pending_wait: u64,
    /// Sum over applied updates of (apply − issue) in ticks.
    pub total_visibility: u64,
    /// Number of visibility samples.
    pub visibility_samples: usize,
    /// Max single (apply − issue).
    pub max_visibility: u64,
}

impl SystemMetrics {
    /// Mean arrival→apply wait in ticks (0 if nothing applied).
    pub fn mean_pending_wait(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            self.total_pending_wait as f64 / self.applies as f64
        }
    }

    /// Mean issue→apply visibility latency in ticks.
    pub fn mean_visibility(&self) -> f64 {
        if self.visibility_samples == 0 {
            0.0
        } else {
            self.total_visibility as f64 / self.visibility_samples as f64
        }
    }

    /// Charges one per-recipient update at enqueue time, so message and
    /// byte counts do not depend on how updates are batched.
    pub(crate) fn count_send(&mut self, m: &UpdateMsg) {
        self.metadata_bytes += m.meta.size_bytes();
        if let Some(v) = &m.value {
            self.data_messages += 1;
            self.payload_bytes += v.size_bytes();
        } else {
            self.meta_messages += 1;
        }
    }

    /// Records one issue → apply visibility sample of `vis` ticks.
    pub(crate) fn count_visibility(&mut self, vis: u64) {
        self.total_visibility += vis;
        self.visibility_samples += 1;
        self.max_visibility = self.max_visibility.max(vis);
    }
}

/// WAL entries between recovery-log snapshot compactions, whenever the
/// durable layer is active (session enabled or crashes scheduled).
const SNAPSHOT_EVERY: usize = 64;

/// Builder for [`System`] (see C-BUILDER).
#[derive(Debug)]
pub struct SystemBuilder {
    graph: ShareGraph,
    tracker: TrackerKind,
    dummies: Vec<(ReplicaId, RegisterId)>,
    delay: DelayModel,
    seed: u64,
    dropped_edges: Vec<(ReplicaId, EdgeId)>,
    schedule: FaultSchedule,
    session: Option<SessionConfig>,
    wire_mode: WireMode,
    batch: BatchPolicy,
}

impl SystemBuilder {
    /// Starts a builder over the *data* share graph.
    pub fn new(graph: ShareGraph) -> Self {
        SystemBuilder {
            graph,
            tracker: TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE),
            dummies: Vec::new(),
            delay: DelayModel::default(),
            seed: 0,
            dropped_edges: Vec::new(),
            schedule: FaultSchedule::none(),
            session: None,
            wire_mode: WireMode::default(),
            batch: BatchPolicy::default(),
        }
    }

    /// Selects the tracker (default: exact edge-indexed).
    pub fn tracker(mut self, kind: TrackerKind) -> Self {
        self.tracker = kind;
        self
    }

    /// Adds a dummy copy of `register` at `replica` (Appendix D): the
    /// replica subscribes to metadata-only updates of the register,
    /// reshaping the share graph. Ignored under [`TrackerKind::VectorClock`]
    /// (which already broadcasts metadata to everyone).
    pub fn dummy(mut self, replica: ReplicaId, register: RegisterId) -> Self {
        self.dummies.push((replica, register));
        self
    }

    /// Network delay model (default: uniform 1–10 ticks, non-FIFO).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// RNG seed for the network.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Removes edge `e` from replica `i`'s timestamp graph, making the
    /// replica *oblivious* to updates on `e` (Theorem 8's forbidden
    /// configuration). Edge-indexed tracker only.
    pub fn drop_edge(mut self, i: ReplicaId, e: EdgeId) -> Self {
        self.dropped_edges.push((i, e));
        self
    }

    /// Installs a fault schedule: probabilistic plan (duplication /
    /// drops / dead links — [`FaultSchedule::from_plan`] for a plan
    /// alone) plus scripted link outages, partitions, and replica
    /// crashes. The default is the paper's reliable-channel model.
    /// Crashes require a
    /// durable layer and are recovered from the per-replica
    /// [`RecoveryLog`](crate::RecoveryLog); without
    /// [`session`](Self::session) the dropped in-flight messages are
    /// *not* re-fed (the negative control).
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables the reliable-delivery session layer
    /// ([`SessionEndpoint`](prcc_net::SessionEndpoint)): per-pair
    /// sequenced streams, cumulative ack + selective gaps, timeout
    /// retransmission, duplicate suppression, and post-crash catch-up.
    /// Off by default — the paper's reliable-channel model needs none of
    /// it.
    pub fn session(mut self, config: SessionConfig) -> Self {
        self.session = Some(config);
        self
    }

    /// Selects the sender-side batching policy (default:
    /// [`BatchPolicy::default`], coalescing on). The writes issued
    /// between two [`step`](System::step)s form one pass: their batches
    /// ship, up to the policy's caps, at the next step. Use
    /// [`BatchPolicy::unbatched`] for the per-update differential
    /// oracle. Crash schedules batch too: a scripted crash ships the
    /// replica's open batches before it goes down (see [`BatchPolicy`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Selects how outgoing update metadata is encoded per recipient
    /// (default: [`WireMode::Compressed`]; `Raw` is the differential
    /// oracle). Only meaningful for the edge-indexed tracker — the
    /// baselines always ship their metadata raw.
    pub fn wire_mode(mut self, mode: WireMode) -> Self {
        self.wire_mode = mode;
        self
    }

    /// Builds the system.
    pub fn build(self) -> System {
        let data_placement = self.graph.placement().clone();
        // Effective placement = data + dummy copies.
        let effective_graph = if self.dummies.is_empty() {
            self.graph.clone()
        } else {
            let mut sets: Vec<prcc_sharegraph::RegSet> = (0..data_placement.num_replicas())
                .map(|i| {
                    data_placement
                        .registers_of(ReplicaId::new(i as u32))
                        .clone()
                })
                .collect();
            for (r, x) in &self.dummies {
                sets[r.index()].insert(*x);
            }
            ShareGraph::new(Placement::from_sets(sets))
        };
        let n = effective_graph.num_replicas();
        let (codec_registry, replicas) =
            self.tracker
                .build_replicas(&effective_graph, &data_placement, &self.dropped_edges);

        let mut net = SimNetwork::new(self.delay, self.seed);
        let crashes = !self.schedule.crashes.is_empty();
        let script = self.schedule.crash_timeline().into();
        net.set_schedule(self.schedule);
        let durable = self.session.is_some() || crashes;
        let config = Arc::new(EngineConfig {
            graph: Arc::new(effective_graph),
            data: data_placement,
            broadcast: self.tracker == TrackerKind::VectorClock,
            registry: codec_registry,
            wire: self.wire_mode,
            batch: self.batch,
            session: self.session,
            snapshot_every: durable.then_some(SNAPSHOT_EVERY),
        });
        System {
            expected: vec![HashSet::new(); n],
            catching_up: vec![None; n],
            engines: replicas
                .into_iter()
                .map(|r| Engine::new(r, Arc::clone(&config)))
                .collect(),
            config,
            tracker_kind: self.tracker,
            net,
            out: Vec::new(),
            script,
            track_catch_up: crashes,
            lost_to_crash: 0,
            catch_up_stats: LatencyStats::new(),
            trace: Trace::new(),
            metrics: SystemMetrics::default(),
            arrival: HashMap::new(),
            issue_time: HashMap::new(),
            vis_stats: LatencyStats::new(),
            latest_version: HashMap::new(),
            update_version: HashMap::new(),
            visible_version: HashMap::new(),
            meta_log: HashMap::new(),
        }
    }
}

/// A running simulated deployment.
pub struct System {
    /// Effective share graph, data placement and the stack's settings,
    /// shared with every engine.
    config: Arc<EngineConfig>,
    tracker_kind: TrackerKind,
    /// One engine per replica: replica, codec, batches, session, WAL.
    engines: Vec<Engine>,
    net: SimNetwork<SessionFrame<BatchMsg>>,
    /// Frames the last engine input emitted, reused across inputs.
    out: Vec<Outgoing>,
    /// Scripted crashes and restarts, `(tick, replica, is_restart)` in
    /// [`FaultSchedule::crash_timeline`] order.
    script: VecDeque<(u64, ReplicaId, bool)>,
    /// Per destination: updates sent to it and not yet applied there
    /// (maintained only when crashes are scheduled).
    expected: Vec<HashSet<UpdateId>>,
    /// Per replica: restart instant + the updates it still owes, while
    /// catching up.
    catching_up: Vec<Option<(u64, HashSet<UpdateId>)>>,
    track_catch_up: bool,
    /// Deliveries discarded because the destination was down.
    lost_to_crash: usize,
    /// Restart → fully-caught-up latency, one sample per restart.
    catch_up_stats: LatencyStats,
    trace: Trace,
    metrics: SystemMetrics,
    /// Arrival tick of each delivered-but-tracked message, keyed by
    /// (issuer, seq, destination).
    arrival: HashMap<(ReplicaId, u64, ReplicaId), u64>,
    /// Issue tick per update.
    issue_time: HashMap<UpdateId, u64>,
    /// Full visibility-latency distribution (issue → apply).
    vis_stats: LatencyStats,
    /// Per-register global version counters (for staleness probes).
    latest_version: HashMap<RegisterId, u64>,
    /// Version assigned to each update.
    update_version: HashMap<UpdateId, u64>,
    /// Highest version applied per (replica, register).
    visible_version: HashMap<(ReplicaId, RegisterId), u64>,
    /// Metadata attached to each issued update (for invariant checking,
    /// e.g. the Lemma 22 monotonicity property of Appendix B). Shares the
    /// issuing message's `Arc` — logging an update never copies counters.
    meta_log: HashMap<UpdateId, Arc<crate::Metadata>>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("replicas", &self.engines.len())
            .field("tracker", &self.tracker_kind)
            .field("now", &self.net.now())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl System {
    /// Starts building a system over `graph`.
    pub fn builder(graph: ShareGraph) -> SystemBuilder {
        SystemBuilder::new(graph)
    }

    /// The *data* placement (what replicas actually store).
    pub fn data_placement(&self) -> &Placement {
        &self.config.data
    }

    /// The effective share graph (after dummy registers).
    pub fn effective_graph(&self) -> &ShareGraph {
        &self.config.graph
    }

    /// Performs a client write of `v` to register `x` at replica `r`,
    /// returning the update id. Non-panicking variant of [`Self::write`].
    ///
    /// # Errors
    ///
    /// [`crate::ReplicaError::NotStored`] if `r` does not store `x`.
    pub fn try_write(
        &mut self,
        r: ReplicaId,
        x: RegisterId,
        v: Value,
    ) -> Result<UpdateId, crate::ReplicaError> {
        if !self.config.data.stores(r, x) {
            return Err(crate::ReplicaError::NotStored {
                register: x,
                replica: r,
            });
        }
        if self.is_crashed(r) {
            return Err(crate::ReplicaError::Crashed { replica: r });
        }
        Ok(self.write(r, x, v))
    }

    /// Performs a client write of `v` to register `x` at replica `r`,
    /// returning the update id.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store `x` — simulated clients only write
    /// registers their replica stores, mirroring the paper's model —
    /// or if `r` is currently crashed (check
    /// [`is_crashed`](Self::is_crashed) first under a crash schedule).
    pub fn write(&mut self, r: ReplicaId, x: RegisterId, v: Value) -> UpdateId {
        assert!(
            !self.is_crashed(r),
            "replica {r} is crashed and cannot serve writes"
        );
        let now = self.net.now();
        let (metrics, expected) = (&mut self.metrics, &mut self.expected);
        let track = self.track_catch_up;
        let issued = self.engines[r.index()]
            .write(x, v, now, &mut self.out, |dst, m| {
                metrics.count_send(m);
                if track {
                    expected[dst.index()].insert(UpdateId {
                        issuer: m.issuer,
                        seq: m.seq,
                    });
                }
            })
            .unwrap_or_else(|e| panic!("{e}"));
        self.send_out(r);
        let id = UpdateId {
            issuer: r,
            seq: issued.msg.seq,
        };
        self.trace.record_issue_with_id(id, x);
        self.issue_time.insert(id, now);
        let version = self.latest_version.entry(x).or_insert(0);
        *version += 1;
        let version = *version;
        self.update_version.insert(id, version);
        self.visible_version.insert((r, x), version);
        self.meta_log.insert(id, issued.msg.meta);
        id
    }

    /// Puts every frame the last engine input emitted on the network,
    /// charging its true wire size (payload + session framing).
    fn send_out(&mut self, src: ReplicaId) {
        for (dst, frame) in self.out.drain(..) {
            let bytes = frame.payload().map_or(0, BatchMsg::size_bytes) + frame.overhead_bytes();
            self.net.send_sized(src, dst, frame, bytes);
        }
    }

    /// Reads register `x` at replica `r`.
    pub fn read(&self, r: ReplicaId, x: RegisterId) -> Option<&Value> {
        self.engines[r.index()].replica().read(x)
    }

    /// Time of the next simulation event of any kind, or `None` at full
    /// quiescence. Events, in priority order at equal instants: scripted
    /// crash, scripted restart, open-batch flush, network delivery,
    /// retransmission timer. An open batch is due at the instant it
    /// opened, which is always now.
    fn next_event_time(&self) -> Option<u64> {
        let open = self.engines.iter().any(Engine::has_open_batch);
        [
            self.script.front().map(|&(t, _, _)| t),
            open.then(|| self.net.now()),
            self.engines.iter().filter_map(Engine::next_deadline).min(),
            self.net.peek_delivery_time(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Processes the next simulation event: a scripted crash or restart,
    /// the flush of every open batch, a network delivery (discarded if
    /// the destination is down), or a batch of due retransmissions.
    /// Returns `false` at quiescence.
    pub fn step(&mut self) -> bool {
        let Some(t) = self.next_event_time() else {
            return false;
        };
        if let Some(&(at, r, restart)) = self.script.front().filter(|&&(at, _, _)| at <= t) {
            self.script.pop_front();
            if restart {
                self.do_restart(at, r);
            } else {
                self.net.advance_to(at);
                // The crash ends the replica's pass: its open batches
                // ship first. Volatile state is conceptually lost here;
                // it is actually discarded at restart, when the replica
                // is rebuilt from its recovery log.
                self.engines[r.index()].crash(at, &mut self.out);
                self.send_out(r);
            }
            return true;
        }
        // The writes since the last step were one pass: ship what they
        // left open before anything else happens at this instant;
        // retransmission timers only once nothing else is due.
        let open = self.engines.iter().any(Engine::has_open_batch);
        if !open && self.net.peek_delivery_time() == Some(t) {
            let (t, env) = self.net.next_delivery().expect("peeked delivery");
            self.deliver_frame(t, env.src, env.dst, env.msg);
            return true;
        }
        self.net.advance_to(t);
        let input: fn(&mut Engine, u64, &mut Vec<Outgoing>) =
            if open { Engine::flush } else { Engine::tick };
        for i in 0..self.engines.len() {
            input(&mut self.engines[i], t, &mut self.out);
            self.send_out(ReplicaId::new(i as u32));
        }
        true
    }

    /// Handles one delivered frame through the destination's engine —
    /// session, WAL, `receive_batch` — and records trace and metrics for
    /// every apply it triggers.
    fn deliver_frame(
        &mut self,
        t: u64,
        src: ReplicaId,
        dst: ReplicaId,
        frame: SessionFrame<BatchMsg>,
    ) {
        if self.is_crashed(dst) {
            self.lost_to_crash += 1;
            return;
        }
        let arrival = &mut self.arrival;
        let applied = self.engines[dst.index()].on_frame(src, frame, t, &mut self.out, |b| {
            for m in &b.updates {
                arrival.insert((m.issuer, m.seq, dst), t);
            }
        });
        for a in applied {
            self.record_apply(dst, a, t);
        }
        self.send_out(dst);
    }

    fn record_apply(&mut self, dst: ReplicaId, a: Applied, t: u64) {
        let id = UpdateId {
            issuer: a.msg.issuer,
            seq: a.msg.seq,
        };
        self.trace.record_apply(id, dst);
        self.metrics.applies += 1;
        if let Some(arrived) = self.arrival.remove(&(a.msg.issuer, a.msg.seq, dst)) {
            let wait = t - arrived;
            self.metrics.total_pending_wait += wait;
            self.metrics.max_pending_wait = self.metrics.max_pending_wait.max(wait);
        }
        if let Some(&issued) = self.issue_time.get(&id) {
            let vis = t.saturating_sub(issued);
            self.metrics.count_visibility(vis);
            self.vis_stats.record(vis);
        }
        if let Some(&ver) = self.update_version.get(&id) {
            let slot = self
                .visible_version
                .entry((dst, a.msg.register))
                .or_insert(0);
            *slot = (*slot).max(ver);
        }
        if self.track_catch_up {
            self.expected[dst.index()].remove(&id);
            let slot = &mut self.catching_up[dst.index()];
            if let Some((since, owed)) = slot {
                owed.remove(&id);
                if owed.is_empty() {
                    self.catch_up_stats.record(t.saturating_sub(*since));
                    *slot = None;
                }
            }
        }
    }

    /// Brings a crashed replica back through its engine (WAL replay,
    /// session rebuild, `CatchUp` to every neighbour) and starts the
    /// catch-up clock.
    fn do_restart(&mut self, t: u64, r: ReplicaId) {
        self.net.advance_to(t);
        self.engines[r.index()].restart(t, &mut self.out);
        self.send_out(r);
        if self.track_catch_up {
            let owed = self.expected[r.index()].clone();
            if owed.is_empty() {
                self.catch_up_stats.record(0);
            } else {
                self.catching_up[r.index()] = Some((t, owed));
            }
        }
    }

    /// Runs until no event of any kind remains: network drained, every
    /// retransmission acked, every scripted crash and restart played.
    /// Held links keep their messages parked; release them first if you
    /// used holds. Under a non-healing schedule (a permanently dead
    /// link) with the session layer on this never returns — use
    /// [`run_until`](Self::run_until).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Processes every event up to and including simulated time
    /// `deadline`, then stops. Returns `true` if the system reached
    /// quiescence at or before the deadline.
    pub fn run_until(&mut self, deadline: u64) -> bool {
        loop {
            match self.next_event_time() {
                None => return true,
                Some(t) if t > deadline => {
                    self.net.advance_to(deadline);
                    return false;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// True if the network is drained, no replica has buffered updates
    /// it could not apply, every session stream is fully acked, and no
    /// scripted event is still due.
    pub fn is_settled(&self) -> bool {
        self.net.is_quiescent()
            && self.stuck_pending() == 0
            && self.script.is_empty()
            && self.engines.iter().all(Engine::is_quiet)
    }

    /// Total updates stuck in pending buffers (non-zero after
    /// `run_to_quiescence` means the protocol lost liveness).
    pub fn stuck_pending(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.replica().pending_count())
            .sum()
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Checks the trace against replica-centric causal consistency over
    /// the *data* placement.
    pub fn check(&self) -> CheckReport {
        check(&self.trace, &self.config.data)
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }

    /// Per-replica timestamp sizes in counters.
    pub fn timestamp_counters(&self) -> Vec<usize> {
        self.engines
            .iter()
            .map(|e| e.replica().tracker().num_counters())
            .collect()
    }

    /// Direct access to a replica (diagnostics, tests).
    pub fn replica(&self, r: ReplicaId) -> &Replica {
        self.engines[r.index()].replica()
    }

    /// Network control: hold a directed link (messages park until
    /// released) — used to build the adversarial executions of Theorem 8.
    pub fn hold_link(&mut self, src: ReplicaId, dst: ReplicaId) {
        self.net.hold(src, dst);
    }

    /// Network control: release a held link.
    pub fn release_link(&mut self, src: ReplicaId, dst: ReplicaId) {
        self.net.release(src, dst);
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// The full visibility-latency distribution (issue → apply, ticks).
    pub fn visibility_stats(&self) -> LatencyStats {
        self.vis_stats.clone()
    }

    /// Raw network statistics (including fault-plan drop/duplicate
    /// counts).
    pub fn net_stats(&self) -> prcc_net::NetStats {
        self.net.stats()
    }

    /// Wire-codec counters: frames, encode-once sharing, and demotions.
    pub fn codec_stats(&self) -> CodecStats {
        self.engines
            .iter()
            .map(Engine::codec_stats)
            .fold(CodecStats::default(), add_codec_stats)
    }

    /// Aggregated session-layer statistics across all endpoints, or
    /// `None` when the session layer is off.
    pub fn session_stats(&self) -> Option<SessionStats> {
        let mut total: Option<SessionStats> = None;
        for s in self.engines.iter().filter_map(Engine::session_stats) {
            total.get_or_insert_with(SessionStats::default).merge(&s);
        }
        total
    }

    /// Restart → fully-caught-up latency distribution (one sample per
    /// scripted restart that has completed catch-up).
    pub fn catch_up_stats(&self) -> LatencyStats {
        self.catch_up_stats.clone()
    }

    /// True if `r` is currently down (between a scripted crash and its
    /// restart).
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.engines[r.index()].is_crashed()
    }

    /// Deliveries discarded because the destination replica was down.
    pub fn lost_to_crash(&self) -> usize {
        self.lost_to_crash
    }

    /// The metadata (timestamp) that was attached to update `id` when it
    /// was issued, if known.
    pub fn metadata_of(&self, id: UpdateId) -> Option<&crate::Metadata> {
        self.meta_log.get(&id).map(Arc::as_ref)
    }

    /// Read staleness probe: how many globally issued versions of `x` the
    /// copy visible at `r` lags behind. 0 means fully fresh (causal
    /// consistency permits non-zero staleness; this measures how much).
    pub fn read_staleness(&self, r: ReplicaId, x: RegisterId) -> u64 {
        let latest = self.latest_version.get(&x).copied().unwrap_or(0);
        let visible = self.visible_version.get(&(r, x)).copied().unwrap_or(0);
        latest.saturating_sub(visible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::topology;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn ring_converges_and_is_consistent() {
        let mut sys = System::builder(topology::ring(5)).seed(11).build();
        for round in 0..10u64 {
            for i in 0..5u32 {
                sys.write(r(i), x(i), Value::from(round));
            }
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled(), "stuck: {}", sys.stuck_pending());
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        // Register i is shared by replicas i and i+1: both read the value.
        assert_eq!(sys.read(r(1), x(0)), Some(&Value::from(9u64)));
    }

    #[test]
    fn vector_clock_baseline_converges() {
        let mut sys = System::builder(topology::ring(4))
            .tracker(TrackerKind::VectorClock)
            .seed(3)
            .build();
        for i in 0..4u32 {
            sys.write(r(i), x(i), Value::from(i as u64));
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        assert!(sys.check().is_consistent());
        // VC mode broadcasts metadata: 3 messages per write + data overlap.
        assert_eq!(
            sys.metrics().data_messages + sys.metrics().meta_messages,
            4 * 3
        );
        assert_eq!(sys.metrics().data_messages, 4); // one per write (other holder)
    }

    #[test]
    fn partial_replication_sends_fewer_messages() {
        let g = topology::ring(6);
        let mut part = System::builder(g.clone()).seed(1).build();
        let mut full = System::builder(g)
            .tracker(TrackerKind::VectorClock)
            .seed(1)
            .build();
        for i in 0..6u32 {
            part.write(r(i), x(i), Value::from(1u64));
            full.write(r(i), x(i), Value::from(1u64));
        }
        part.run_to_quiescence();
        full.run_to_quiescence();
        let pm = part.metrics();
        let fm = full.metrics();
        assert!(pm.data_messages + pm.meta_messages < fm.data_messages + fm.meta_messages);
        assert!(part.check().is_consistent());
        assert!(full.check().is_consistent());
    }

    #[test]
    fn causal_chain_respected_under_adversarial_delays() {
        // Triangle sharing one register; wide delays to force reordering.
        let g = ShareGraph::new(Placement::builder(3).share(0, [0, 1, 2]).build());
        for seed in 0..10 {
            let mut sys = System::builder(g.clone())
                .delay(DelayModel::Uniform { min: 1, max: 200 })
                .seed(seed)
                .build();
            // Chain: r0 writes, then (after delivery) r1 writes, etc.
            sys.write(r(0), x(0), Value::from(1u64));
            sys.run_to_quiescence();
            sys.write(r(1), x(0), Value::from(2u64));
            sys.write(r(1), x(0), Value::from(3u64));
            sys.write(r(0), x(0), Value::from(4u64));
            sys.run_to_quiescence();
            assert!(sys.is_settled(), "seed {seed}");
            let rep = sys.check();
            assert!(rep.is_consistent(), "seed {seed}: {:?}", rep.violations);
        }
    }

    #[test]
    fn figure5_system_runs_consistently() {
        let g = prcc_sharegraph::paper_examples::figure5();
        let mut sys = System::builder(g.clone()).seed(77).build();
        // Write every register at each of its holders, twice.
        for round in 0..2u64 {
            for xr in 0..g.placement().num_registers() as u32 {
                for &h in g.placement().holders(x(xr)) {
                    sys.write(h, x(xr), Value::from(round));
                }
            }
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        assert!(sys.check().is_consistent());
    }

    #[test]
    fn dummy_registers_add_meta_messages() {
        // Path 0-1-2; dummy copy of register 0 at replica 2 turns the path
        // into a triangle-ish metadata graph: replica 2 receives meta-only
        // updates for register 0.
        let g = topology::path(3);
        let mut sys = System::builder(g).dummy(r(2), x(0)).seed(5).build();
        sys.write(r(0), x(0), Value::from(9u64));
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        assert_eq!(sys.metrics().data_messages, 1); // to replica 1
        assert_eq!(sys.metrics().meta_messages, 1); // to replica 2
                                                    // Replica 2 does NOT store the value.
        assert_eq!(sys.read(r(2), x(0)), None);
        assert!(sys.check().is_consistent());
    }

    #[test]
    fn oblivious_replica_loses_consistency() {
        // Drop the incoming edge e_01 from replica 1's timestamp graph:
        // replica 1 becomes oblivious to updates from r0 (Theorem 8's
        // incident-edge case). The conservative predicate then refuses
        // every update from r0 — the violation class is LIVENESS (both
        // updates stuck pending forever, reads stale), never a safety
        // inversion, for every delivery schedule.
        let e01 = EdgeId::new(r(0), r(1));
        for seed in 0..30 {
            let mut sys = System::builder(topology::path(2))
                .drop_edge(r(1), e01)
                .delay(DelayModel::Uniform { min: 1, max: 100 })
                .seed(seed)
                .build();
            sys.write(r(0), x(0), Value::from(1u64));
            sys.write(r(0), x(0), Value::from(2u64));
            sys.run_to_quiescence();
            let rep = sys.check();
            assert_eq!(
                rep.liveness_violations().count(),
                2,
                "seed {seed}: both updates must be stuck at the oblivious replica"
            );
            assert_eq!(
                rep.safety_violations().count(),
                0,
                "seed {seed}: the conservative predicate never misorders applies"
            );
            assert_eq!(sys.stuck_pending(), 2, "seed {seed}");
            assert_eq!(
                sys.read(r(1), x(0)),
                None,
                "seed {seed}: replica 1 never learns the value"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn write_to_wrong_replica_panics() {
        let mut sys = System::builder(topology::path(3)).build();
        sys.write(r(0), x(1), Value::from(0u64)); // register 1 lives at 1,2
    }
}
