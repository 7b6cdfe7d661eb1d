//! A threaded deployment: one OS thread per replica over a
//! [`ThreadNet`] transport.
//!
//! [`ThreadedCluster`] runs the same [`Replica`] state machines as the
//! simulated [`System`](crate::System), but under genuine concurrency and
//! wall-clock message delays — the reproduction's stand-in for the
//! "async nodes" deployment (the offline crate set has no async runtime,
//! so real threads + crossbeam channels play that role).
//!
//! # The hot path
//!
//! Four design points keep client operations off the contended paths:
//!
//! * **One event-driven loop per replica.** A replica thread has exactly
//!   one blocking point: it parks until its earliest batch window or
//!   session timer and is woken early only by an arrival — a command, or
//!   a frame the transport delivered (see `replica_main`). No pass
//!   without work, no fixed-period poll, and the same loop in every
//!   configuration (batched, durable, TCP, crash-bearing).
//! * **Per-thread trace shards.** Each replica thread appends protocol
//!   events to its own shard (a private `Mutex<Vec<_>>`, uncontended in
//!   steady state) stamped with nanoseconds since a shared epoch. The
//!   shards are merged and re-sorted into a causally valid global
//!   [`Trace`] only when [`check`](ThreadedCluster::check) or
//!   [`trace_snapshot`](ThreadedCluster::trace_snapshot) asks — no
//!   global trace lock on the apply path.
//! * **Lock-free read snapshots.** After every state change, a replica
//!   thread publishes an immutable `Arc` snapshot of its store.
//!   [`read`](ThreadedCluster::read) clones the `Arc` and never enqueues
//!   into the replica thread, so readers cannot observe torn state and
//!   cannot slow writers down.
//! * **Batched update pipeline.** Outgoing updates coalesce per
//!   destination under the cluster's [`BatchPolicy`] and ship as
//!   [`BatchMsg`] frames, cutting per-envelope router work; receivers
//!   ingest them through [`Replica::receive_batch`]'s once-per-batch
//!   predicate fast path.
//!
//! Client command channels are *bounded*
//! ([`ClusterConfig::channel_depth`]): a flooded replica thread exerts
//! backpressure on writers instead of growing an unbounded queue.

use crate::codec::{WireCodec, WireMode};
use crate::message::{BatchMsg, UpdateMsg};
use crate::netframe::cluster_codec;
use crate::recovery::RecoveryLog;
use crate::replica::Replica;
use crate::store_cow::{SharedShards, StoreMode};
use crate::system::BatchPolicy;
use crate::tracker::{CausalityTracker, EdgeTracker};
use crate::value::Value;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::{Mutex, RwLock};
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{
    BoundListener, DelayModel, Doorbell, FaultSchedule, SessionConfig, SessionEndpoint,
    SessionFrame, TcpEndpoint, TcpNetConfig, TcpStatsSnapshot, ThreadNet, Transport, TICK,
};
use prcc_sharegraph::{LoopConfig, RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_timestamp::TsRegistry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Full configuration for a [`ThreadedCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-recipient metadata wire mode.
    pub wire: WireMode,
    /// Scripted fault schedule: the router rolls its embedded plan
    /// (drops / duplicates) on every frame and enforces its link outages
    /// (ticks of 200 µs from cluster construction); crash/restart events
    /// are injected as commands by a timeline thread walking
    /// [`FaultSchedule::crash_timeline`]. Without a
    /// [`session`](ClusterConfig::session), losses are permanent; with
    /// one, its retransmission timers run on wall-clock milliseconds, so
    /// pick `rto_base` comfortably above the delay model's round trip.
    pub schedule: FaultSchedule,
    /// Reliable-delivery session layer, if any.
    pub session: Option<SessionConfig>,
    /// Sender-side update batching (`flush_after` is in delay-model
    /// ticks of 200 µs, mirroring the simulated system).
    pub batch: BatchPolicy,
    /// Client command channel bound per replica thread. A full channel
    /// blocks the calling writer — bounded backpressure, never an
    /// unbounded queue.
    pub channel_depth: usize,
    /// Per-node network ingress bound (frames beyond it are shed by the
    /// router and, with a session, repaired by retransmission).
    pub ingress_depth: usize,
    /// Arms per-replica durable [`RecoveryLog`]s with this WAL length
    /// between snapshot compactions. Required for crash/restart (a crash
    /// without a log would be permanent data loss); auto-armed at 1024
    /// when the schedule scripts crashes. Forces eager (unbatched)
    /// shipping so every acknowledged write reaches the durable outbox
    /// before its ack — the ack-after-durable discipline.
    pub durability: Option<usize>,
    /// How publishes materialise snapshots: sharded copy-on-write
    /// (O(Δ) per publish, the default) or the original clone-the-world
    /// oracle ([`StoreMode::Clone`], O(store) per publish).
    pub store: StoreMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            wire: WireMode::default(),
            schedule: FaultSchedule::default(),
            session: None,
            batch: BatchPolicy::default(),
            channel_depth: 1024,
            ingress_depth: 4096,
            durability: None,
            store: StoreMode::default(),
        }
    }
}

/// Why a cluster operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The replica thread has exited (cluster shut down or thread died).
    Disconnected {
        /// The unreachable replica.
        replica: ReplicaId,
    },
    /// The replica is inside a crash window: it is discarding commands
    /// and network frames until its scripted (or explicit) restart.
    Crashed {
        /// The crashed replica.
        replica: ReplicaId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Disconnected { replica } => {
                write!(f, "replica {replica} thread is gone (cluster shut down?)")
            }
            ClusterError::Crashed { replica } => {
                write!(f, "replica {replica} is crashed (awaiting restart)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-op outcome of a [`Cmd::WriteMany`] run: the issue succeeded, or
/// the replica was inside a crash window and the op must be re-routed by
/// the serving tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteStatus {
    /// Issued (and snapshot-visible) as this update.
    Done(UpdateId),
    /// Rejected: the replica is crashed. Nothing was issued.
    Crashed,
}

enum Cmd {
    Write {
        register: RegisterId,
        value: Value,
        reply: Sender<UpdateId>,
    },
    /// A coalesced run of client writes from the serving tier: every op
    /// is issued before the snapshot is republished once and any
    /// completion token is released — one command, one publish, one
    /// channel round trip for the whole run.
    WriteMany {
        ops: Vec<(u64, RegisterId, Value)>,
        reply: Sender<(u64, WriteStatus)>,
    },
    /// An authoritative read served from the replica's own store (a full
    /// command round trip — the slow path [`ThreadedCluster::read`]'s
    /// lock-free snapshots exist to avoid).
    ReadAt {
        register: RegisterId,
        reply: Sender<Option<Value>>,
    },
    /// Crash the replica: it keeps draining its channels but discards
    /// everything until [`Cmd::Restart`], modelling a fail-stop node
    /// whose durable [`RecoveryLog`] survives. Ignored when no log is
    /// armed. `done` (if any) is signalled once the crash took effect.
    Crash {
        done: Option<Sender<()>>,
    },
    /// Recover from the durable log: replica state and applied frontier
    /// are rebuilt by WAL replay, the session endpoint re-arms its sender
    /// streams from the outbox and probes peers with `CatchUp`.
    Restart {
        done: Option<Sender<()>>,
    },
    Shutdown,
}

/// One protocol event in a per-replica trace shard. The shard owner is
/// implicit: issues belong to the issuing replica's shard, applies to
/// the applying replica's.
#[derive(Clone)]
enum ShardEvent {
    Issue { id: UpdateId, register: RegisterId },
    Apply { id: UpdateId },
}

/// A shard event stamped for the global merge: nanoseconds since the
/// cluster epoch plus a per-shard sequence number (tiebreak that
/// preserves thread-local order).
#[derive(Clone)]
struct Stamped {
    nanos: u64,
    seq: u64,
    ev: ShardEvent,
}

type TraceShard = Mutex<Vec<Stamped>>;

/// Merges per-replica shards into one causally valid [`Trace`].
///
/// Sort key: `(nanos, kind, shard, seq)` with issues before applies at
/// equal instants. This is a faithful real-time linearization: an issue
/// is stamped *before* its update is handed to the network and an apply
/// *after* delivery, so — `Instant` being monotonic across threads — an
/// apply never carries an earlier stamp than its issue, and the
/// issue-first tiebreak settles exact ties. Per-shard order survives
/// because stamps within one thread are non-decreasing with `seq`
/// strictly increasing.
fn merge_shards(shards: &[Arc<TraceShard>]) -> Trace {
    let mut all: Vec<(u64, u8, usize, u64, ShardEvent)> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        for s in shard.lock().iter() {
            let kind = match s.ev {
                ShardEvent::Issue { .. } => 0u8,
                ShardEvent::Apply { .. } => 1u8,
            };
            all.push((s.nanos, kind, i, s.seq, s.ev.clone()));
        }
    }
    all.sort_by_key(|&(nanos, kind, shard, seq, _)| (nanos, kind, shard, seq));
    let mut trace = Trace::new();
    let mut issued: HashSet<UpdateId> = HashSet::new();
    for (_, _, shard, _, ev) in all {
        match ev {
            ShardEvent::Issue { id, register } => {
                trace.record_issue_with_id(id, register);
                issued.insert(id);
            }
            ShardEvent::Apply { id } => {
                debug_assert!(issued.contains(&id), "apply of {id} stamped before issue");
                if issued.contains(&id) {
                    trace.record_apply(id, ReplicaId::new(shard as u32));
                }
            }
        }
    }
    trace
}

/// One immutable published replica state: the store, per-register update
/// provenance, and the per-issuer *applied frontier*. All three are
/// captured in a single publish, so a reader never sees a store newer
/// than the frontier that vouches for it.
///
/// The frontier is the serving tier's lock-free session-guarantee gate:
/// `frontier[i] = s + 1` means this replica has issued or applied every
/// update from issuer `i` up to sequence number `s`. Because applies are
/// causally ordered, a replica that stores register `x` and covers an
/// update `u` on `x` can never still hold (or later revert to) a value
/// of `x` causally older than `u` — so `covers` is a sufficient
/// read-your-writes / monotonic-reads test that needs no replica lock.
#[derive(Debug, Clone, Default)]
pub struct ReplicaView {
    repr: ViewRepr,
    frontier: Vec<u64>,
}

/// How a published view holds its store. `Flat` is the
/// [`StoreMode::Clone`] oracle (deep-cloned maps, O(store) to build);
/// `Shards` is the default O(Δ) path sharing shard `Arc`s with the live
/// [`CowStore`]. Readers can't tell them apart — same `get` /
/// `source_of` / `covers` answers, same torn-read impossibility (both
/// reprs are immutable once published).
#[derive(Debug, Clone)]
enum ViewRepr {
    Flat {
        store: HashMap<RegisterId, Value>,
        src: HashMap<RegisterId, UpdateId>,
    },
    Shards(SharedShards),
}

impl Default for ViewRepr {
    fn default() -> Self {
        ViewRepr::Flat {
            store: HashMap::new(),
            src: HashMap::new(),
        }
    }
}

impl ReplicaView {
    /// Captures `replica`'s store per `mode`, paired with the applied
    /// frontier that vouches for it. This is the single publish
    /// constructor: the threaded runtime, the lockstep oracle, and the
    /// publish microbench all build views through it.
    pub fn capture(replica: &Replica, mode: StoreMode, frontier: Vec<u64>) -> Self {
        let repr = match mode {
            StoreMode::Cow => ViewRepr::Shards(replica.store_cow().share()),
            StoreMode::Clone => ViewRepr::Flat {
                store: replica.store_snapshot(),
                src: replica.store_src(),
            },
        };
        ReplicaView { repr, frontier }
    }

    /// The published value of `x`, if any.
    pub fn get(&self, x: &RegisterId) -> Option<&Value> {
        match &self.repr {
            ViewRepr::Flat { store, .. } => store.get(x),
            ViewRepr::Shards(s) => s.get(*x),
        }
    }

    /// The full published store, collected into a flat map.
    pub fn store(&self) -> HashMap<RegisterId, Value> {
        match &self.repr {
            ViewRepr::Flat { store, .. } => store.clone(),
            ViewRepr::Shards(s) => s.iter().map(|(x, e)| (*x, e.value.clone())).collect(),
        }
    }

    /// The update that produced the published value of `x` (absent for
    /// unwritten registers and routed-payload writes, whose producing
    /// update is unknown).
    pub fn source_of(&self, x: RegisterId) -> Option<UpdateId> {
        match &self.repr {
            ViewRepr::Flat { src, .. } => src.get(&x).copied(),
            ViewRepr::Shards(s) => s.src_of(x),
        }
    }

    /// `(aliased, total)` physically shared store shards between two
    /// COW-published views; `None` unless both views were published by
    /// the [`StoreMode::Cow`] path. The shard-aliasing non-vacuity test
    /// uses this to prove consecutive publishes skip untouched shards.
    pub fn shards_shared_with(&self, other: &ReplicaView) -> Option<(usize, usize)> {
        match (&self.repr, &other.repr) {
            (ViewRepr::Shards(a), ViewRepr::Shards(b)) => Some(a.shards_shared_with(b)),
            _ => None,
        }
    }

    /// True if this view's issuer frontier includes update `u` — the
    /// replica has issued or applied it (and everything before it from
    /// the same issuer).
    pub fn covers(&self, u: UpdateId) -> bool {
        self.frontier
            .get(u.issuer.index())
            .is_some_and(|&f| f > u.seq)
    }

    /// The per-issuer applied frontier (`frontier[i]` = number of updates
    /// from issuer `i` issued or applied here).
    pub fn frontier(&self) -> &[u64] {
        &self.frontier
    }
}

/// An immutable published [`ReplicaView`] plus a monotonically increasing
/// version. Readers take the read lock only long enough to clone the
/// `Arc`; a view, once published, never mutates — torn reads are
/// impossible by construction.
struct SnapshotCell {
    view: RwLock<Arc<ReplicaView>>,
    version: AtomicU64,
}

impl SnapshotCell {
    fn new(num_replicas: usize) -> Self {
        SnapshotCell {
            view: RwLock::new(Arc::new(ReplicaView {
                repr: ViewRepr::default(),
                frontier: vec![0; num_replicas],
            })),
            version: AtomicU64::new(0),
        }
    }

    fn publish(&self, view: ReplicaView) {
        *self.view.write() = Arc::new(view);
        self.version.fetch_add(1, Ordering::Release);
    }

    fn load(&self) -> Arc<ReplicaView> {
        Arc::clone(&self.view.read())
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// A running threaded cluster.
///
/// # Examples
///
/// ```
/// use prcc_core::runtime::ThreadedCluster;
/// use prcc_core::Value;
/// use prcc_net::DelayModel;
/// use prcc_sharegraph::{topology, ReplicaId, RegisterId};
///
/// let cluster = ThreadedCluster::new(topology::ring(4), DelayModel::Fixed(1), 7);
/// cluster.write(ReplicaId::new(0), RegisterId::new(0), Value::from(5u64));
/// cluster.settle();
/// assert_eq!(
///     cluster.read(ReplicaId::new(1), RegisterId::new(0)),
///     Some(Value::from(5u64))
/// );
/// assert!(cluster.check().is_consistent());
/// ```
pub struct ThreadedCluster {
    graph: Arc<ShareGraph>,
    cmd_txs: Vec<CmdTx>,
    threads: Vec<JoinHandle<()>>,
    /// Per-replica trace shards, merged on demand.
    shards: Vec<Arc<TraceShard>>,
    /// Per-replica published read snapshots.
    snapshots: Vec<Arc<SnapshotCell>>,
    /// Total updates applied across all replicas (remote applies).
    applied: Arc<AtomicUsize>,
    /// Total updates currently parked in pending buffers.
    pending: Arc<AtomicUsize>,
    /// Total update messages sent.
    sent: Arc<AtomicUsize>,
    /// Total metadata bytes put on the wire (post-codec frame sizes).
    wire_bytes: Arc<AtomicUsize>,
    /// Total session-layer retransmissions across all replica threads.
    retransmits: Arc<AtomicUsize>,
    /// Total wire-codec demotions (derived-row verification failures)
    /// across all replica threads.
    demotions: Arc<AtomicUsize>,
    /// Updates permanently lost to a crash window (counted only without
    /// a session — with one, retransmission repairs the loss).
    lost: Arc<AtomicUsize>,
    /// Completed replica restarts (crash recoveries).
    restarts: Arc<AtomicUsize>,
    /// Per-replica crash flags, observable without a command round trip
    /// (the serving tier's failover signal).
    crashed: Vec<Arc<AtomicBool>>,
    /// Per-replica loop-pass counters (see [`loop_passes`](Self::loop_passes)).
    passes: Vec<Arc<AtomicU64>>,
    /// Whether recovery logs are armed (required by [`crash`](Self::crash)).
    durable: bool,
    /// Keep the net alive for the cluster's lifetime.
    net: NetBacking,
}

/// The message substrate a [`ThreadedCluster`] runs over — kept alive
/// (and shut down) with the cluster.
enum NetBacking {
    /// In-process crossbeam channels behind a delay-scheduling router.
    Thread(#[allow(dead_code)] ThreadNet<SessionFrame<BatchMsg>>),
    /// Real kernel sockets: one loopback [`TcpEndpoint`] per replica.
    Tcp(Vec<TcpEndpoint<SessionFrame<BatchMsg>>>),
}

impl fmt::Debug for ThreadedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedCluster")
            .field("replicas", &self.cmd_txs.len())
            .field("applied", &self.applied.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadedCluster {
    /// Spawns one thread per replica of `graph`, all using the exact
    /// edge-indexed tracker and the default configuration (compressed
    /// wire, batching on, no faults, no session).
    pub fn new(graph: ShareGraph, delay: DelayModel, seed: u64) -> Self {
        Self::with_config(graph, delay, seed, ClusterConfig::default())
    }

    /// Full-control constructor.
    pub fn with_config(
        graph: ShareGraph,
        delay: DelayModel,
        seed: u64,
        config: ClusterConfig,
    ) -> Self {
        let mut config = config;
        // Scripted crashes without a recovery log would be permanent
        // data loss, which the threaded runtime does not model — arm
        // durability automatically.
        if !config.schedule.crashes.is_empty() && config.durability.is_none() {
            config.durability = Some(1024);
        }
        let graph = Arc::new(graph);
        let registry = Arc::new(TsRegistry::new(
            &graph,
            TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE),
        ));
        let net: ThreadNet<SessionFrame<BatchMsg>> = ThreadNet::with_schedule(
            graph.num_replicas(),
            delay,
            seed,
            config.schedule.clone(),
            config.ingress_depth,
        );
        let handles: Vec<_> = graph.replicas().map(|i| net.handle(i)).collect();
        Self::spawn(graph, registry, config, handles, NetBacking::Thread(net))
    }

    /// A cluster over **real kernel sockets**: every replica gets its own
    /// loopback [`TcpEndpoint`], per-peer TCP connections, and the
    /// [`cluster_codec`] link framing — the same replica threads, command
    /// surface, and trace machinery as [`with_config`](Self::with_config),
    /// with the [`ThreadNet`] router swapped for the kernel.
    ///
    /// Link-level fault injection (the [`FaultSchedule`]'s plan and
    /// outages) is a router feature and does not apply
    /// here — the kernel's loopback does not drop frames. Scripted
    /// crash/restart events still work (they are injected as commands).
    /// A [`SessionConfig`] is still worth arming: the transport sheds
    /// frames on a backed-up or not-yet-connected peer, and only session
    /// retransmission repairs those.
    pub fn with_tcp(
        graph: ShareGraph,
        config: ClusterConfig,
        tcp: TcpNetConfig,
    ) -> io::Result<Self> {
        let mut config = config;
        if !config.schedule.crashes.is_empty() && config.durability.is_none() {
            config.durability = Some(1024);
        }
        let graph = Arc::new(graph);
        let registry = Arc::new(TsRegistry::new(
            &graph,
            TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE),
        ));
        // Two-phase bind: every listener is live before any endpoint
        // starts, so first connects never race the accept loops.
        let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
        let mut bounds = Vec::with_capacity(graph.num_replicas());
        for i in graph.replicas() {
            bounds.push(BoundListener::bind(i, loopback)?);
        }
        let addrs: Vec<SocketAddr> = bounds.iter().map(BoundListener::local_addr).collect();
        let replicas: Vec<ReplicaId> = graph.replicas().collect();
        let mut endpoints = Vec::with_capacity(bounds.len());
        let mut handles = Vec::with_capacity(bounds.len());
        for bound in bounds {
            let me = bound.id();
            let peers: HashMap<ReplicaId, SocketAddr> = replicas
                .iter()
                .filter(|&&r| r != me)
                .map(|&r| (r, addrs[r.index()]))
                .collect();
            let mut cfg = tcp.clone();
            cfg.ingress_depth = config.ingress_depth;
            let ep = TcpEndpoint::start(bound, peers, cfg, cluster_codec(me, registry.clone()))?;
            handles.push(ep.handle());
            endpoints.push(ep);
        }
        Ok(Self::spawn(
            graph,
            registry,
            config,
            handles,
            NetBacking::Tcp(endpoints),
        ))
    }

    /// Spawns the replica threads over already-built transport handles —
    /// the substrate-independent half of every constructor.
    fn spawn<T: Transport<Msg = SessionFrame<BatchMsg>>>(
        graph: Arc<ShareGraph>,
        registry: Arc<TsRegistry>,
        config: ClusterConfig,
        handles: Vec<T>,
        net: NetBacking,
    ) -> Self {
        let applied = Arc::new(AtomicUsize::new(0));
        let pending = Arc::new(AtomicUsize::new(0));
        let sent = Arc::new(AtomicUsize::new(0));
        let wire_bytes = Arc::new(AtomicUsize::new(0));
        let retransmits = Arc::new(AtomicUsize::new(0));
        let demotions = Arc::new(AtomicUsize::new(0));
        let lost = Arc::new(AtomicUsize::new(0));
        let restarts = Arc::new(AtomicUsize::new(0));
        let epoch = Instant::now();

        let mut cmd_txs = Vec::new();
        let mut threads = Vec::new();
        let mut shards = Vec::new();
        let mut snapshots = Vec::new();
        let mut crashed = Vec::new();
        let mut passes = Vec::new();
        for (i, handle) in graph.replicas().zip(handles) {
            let (tx, rx) = bounded::<Cmd>(config.channel_depth.max(1));
            cmd_txs.push(CmdTx {
                tx,
                bell: handle.doorbell().clone(),
            });
            let shard: Arc<TraceShard> = Arc::new(Mutex::new(Vec::new()));
            shards.push(shard.clone());
            let snapshot = Arc::new(SnapshotCell::new(graph.num_replicas()));
            snapshots.push(snapshot.clone());
            let crashed_flag = Arc::new(AtomicBool::new(false));
            crashed.push(crashed_flag.clone());
            let pass_ctr = Arc::new(AtomicU64::new(0));
            passes.push(pass_ctr.clone());
            let graph = graph.clone();
            let registry = registry.clone();
            let config = config.clone();
            let applied = applied.clone();
            let pending = pending.clone();
            let sent = sent.clone();
            let wire_bytes = wire_bytes.clone();
            let retransmits = retransmits.clone();
            let demotions = demotions.clone();
            let lost = lost.clone();
            let restarts = restarts.clone();
            let builder = std::thread::Builder::new().name(format!("apply-{}", i.raw()));
            let handle_t = builder.spawn(move || {
                replica_main(ReplicaCtx {
                    id: i,
                    graph,
                    registry,
                    config,
                    epoch,
                    net: handle,
                    cmds: rx,
                    shard,
                    snapshot,
                    crashed_flag,
                    passes: pass_ctr,
                    applied_ctr: applied,
                    pending_ctr: pending,
                    sent_ctr: sent,
                    wire_bytes_ctr: wire_bytes,
                    retransmits_ctr: retransmits,
                    demotions_ctr: demotions,
                    lost_ctr: lost,
                    restarts_ctr: restarts,
                })
            });
            threads.push(handle_t.expect("spawn replica thread"));
        }
        // The fault driver: walks the scripted crash/restart timeline on
        // the shared wall-clock tick and injects the events as commands.
        // Detached — it exits on its own once the timeline is done or the
        // replica threads are gone.
        let timeline = config.schedule.crash_timeline();
        if !timeline.is_empty() {
            let txs = cmd_txs.clone();
            std::thread::spawn(move || {
                for (tick, r, is_restart) in timeline {
                    let due = epoch + TICK * tick.min(u32::MAX as u64) as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let mut cmd = Some(if is_restart {
                        Cmd::Restart { done: None }
                    } else {
                        Cmd::Crash { done: None }
                    });
                    // Bounded retry on a full channel: the event lands a
                    // little late rather than blocking forever against a
                    // cluster that is shutting down.
                    let deadline = Instant::now() + Duration::from_secs(2);
                    while let Some(c) = cmd.take() {
                        match txs[r.index()].try_send(c) {
                            Ok(()) => {}
                            Err(TrySendError::Full(c)) => {
                                if Instant::now() >= deadline {
                                    break;
                                }
                                cmd = Some(c);
                                std::thread::sleep(TICK);
                            }
                            Err(TrySendError::Disconnected(_)) => return,
                        }
                    }
                }
            });
        }
        ThreadedCluster {
            graph,
            cmd_txs,
            threads,
            shards,
            snapshots,
            applied,
            pending,
            sent,
            wire_bytes,
            retransmits,
            demotions,
            lost,
            restarts,
            crashed,
            passes,
            durable: config.durability.is_some(),
            net,
        }
    }

    /// Per-replica transport counters when this cluster runs over TCP
    /// ([`with_tcp`](Self::with_tcp)); `None` over the in-process router.
    pub fn tcp_stats(&self) -> Option<Vec<TcpStatsSnapshot>> {
        match &self.net {
            NetBacking::Tcp(eps) => Some(eps.iter().map(TcpEndpoint::stats).collect()),
            NetBacking::Thread(_) => None,
        }
    }

    /// Per-delivery latencies in nanoseconds — one entry per recorded
    /// apply, `apply stamp − issue stamp` on the shared cluster epoch.
    /// Meaningful for any single-process cluster (both substrates share
    /// one monotonic epoch).
    pub fn delivery_latencies_nanos(&self) -> Vec<u64> {
        let mut issued: HashMap<UpdateId, u64> = HashMap::new();
        let mut out = Vec::new();
        for shard in &self.shards {
            for s in shard.lock().iter() {
                if let ShardEvent::Issue { id, .. } = s.ev {
                    issued.insert(id, s.nanos);
                }
            }
        }
        for shard in &self.shards {
            for s in shard.lock().iter() {
                if let ShardEvent::Apply { id } = s.ev {
                    if let Some(&t0) = issued.get(&id) {
                        out.push(s.nanos.saturating_sub(t0));
                    }
                }
            }
        }
        out
    }

    /// Performs a blocking write at replica `r`. A full command channel
    /// blocks until the replica thread drains (bounded backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store `x`, is crashed, or the cluster has
    /// shut down. Fallible callers (the serving tier) use
    /// [`try_write`](Self::try_write).
    pub fn write(&self, r: ReplicaId, x: RegisterId, v: Value) -> UpdateId {
        self.try_write(r, x, v)
            .unwrap_or_else(|e| panic!("write({r}, {x}): {e}"))
    }

    /// Fallible blocking write at replica `r`: a crashed replica or dead
    /// thread yields a typed [`ClusterError`] instead of a panic.
    pub fn try_write(
        &self,
        r: ReplicaId,
        x: RegisterId,
        v: Value,
    ) -> Result<UpdateId, ClusterError> {
        let (reply, rx) = bounded(1);
        if self.cmd_txs[r.index()]
            .send(Cmd::Write {
                register: x,
                value: v,
                reply,
            })
            .is_err()
        {
            return Err(ClusterError::Disconnected { replica: r });
        }
        rx.recv().map_err(|_| self.unreachable_kind(r))
    }

    /// Classifies why a reply channel from `r` died: the thread dropped
    /// the reply because the replica is crashed, or the thread is gone.
    fn unreachable_kind(&self, r: ReplicaId) -> ClusterError {
        if self.is_crashed(r) {
            ClusterError::Crashed { replica: r }
        } else {
            ClusterError::Disconnected { replica: r }
        }
    }

    /// Pipelined writes: enqueues every command before collecting any
    /// reply, so the replica thread coalesces the burst into batches
    /// instead of ping-ponging one command per reply. The command
    /// channel's bound still applies — a burst deeper than
    /// `channel_depth` blocks until the replica drains.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store one of the registers or the cluster
    /// has shut down.
    pub fn write_burst(&self, r: ReplicaId, writes: &[(RegisterId, Value)]) -> Vec<UpdateId> {
        let (reply, rx) = bounded(writes.len().max(1));
        for (x, v) in writes {
            if self.cmd_txs[r.index()]
                .send(Cmd::Write {
                    register: *x,
                    value: v.clone(),
                    reply: reply.clone(),
                })
                .is_err()
            {
                panic!(
                    "write_burst({r}): {}",
                    ClusterError::Disconnected { replica: r }
                );
            }
        }
        drop(reply);
        let mut ids = Vec::with_capacity(writes.len());
        for _ in writes {
            match rx.recv() {
                Ok(id) => ids.push(id),
                Err(_) => panic!("write_burst({r}): {}", self.unreachable_kind(r)),
            }
        }
        ids
    }

    /// Reads register `x` at replica `r` from its published snapshot —
    /// no round trip into the replica thread, no torn reads (snapshots
    /// are immutable once published). Reflects the replica's own writes
    /// as soon as [`write`](Self::write) returns.
    pub fn read(&self, r: ReplicaId, x: RegisterId) -> Option<Value> {
        self.snapshots[r.index()].load().get(&x).cloned()
    }

    /// Reads register `x` authoritatively *at* the replica thread: a
    /// blocking command round trip serving from the replica's own store.
    /// Semantically equivalent to [`read`](Self::read) once the write
    /// publishing the value returned; exists as the naive-serving
    /// baseline the lock-free snapshot path is measured against.
    pub fn read_at(&self, r: ReplicaId, x: RegisterId) -> Option<Value> {
        self.try_read_at(r, x)
            .unwrap_or_else(|e| panic!("read_at({r}, {x}): {e}"))
    }

    /// Fallible authoritative read: a crashed replica or dead thread
    /// yields a typed [`ClusterError`] instead of a panic.
    pub fn try_read_at(&self, r: ReplicaId, x: RegisterId) -> Result<Option<Value>, ClusterError> {
        let (reply, rx) = bounded(1);
        if self.cmd_txs[r.index()]
            .send(Cmd::ReadAt { register: x, reply })
            .is_err()
        {
            return Err(ClusterError::Disconnected { replica: r });
        }
        rx.recv().map_err(|_| self.unreachable_kind(r))
    }

    /// The full immutable [`ReplicaView`] currently published by `r`
    /// (store, provenance, and applied frontier, captured atomically).
    pub fn store_snapshot(&self, r: ReplicaId) -> Arc<ReplicaView> {
        self.snapshots[r.index()].load()
    }

    /// The share graph the cluster runs over.
    pub fn graph(&self) -> &ShareGraph {
        &self.graph
    }

    /// Enqueues a coalesced run of tagged writes at replica `r` without
    /// waiting for completion; each `(token, WriteStatus)` completion is
    /// delivered on `reply` — [`WriteStatus::Done`] after the replica
    /// republishes its snapshot (so a completion implies read-your-writes
    /// visibility), [`WriteStatus::Crashed`] when the replica is inside a
    /// crash window and the op must be re-routed. When the replica
    /// thread is gone entirely (cluster shutting down) nothing is
    /// enqueued and the ops are handed back for the caller to re-route.
    /// The serving tier's write-ingress path.
    pub(crate) fn send_write_many(
        &self,
        r: ReplicaId,
        ops: Vec<(u64, RegisterId, Value)>,
        reply: Sender<(u64, WriteStatus)>,
    ) -> Result<(), Vec<(u64, RegisterId, Value)>> {
        self.cmd_txs[r.index()]
            .send(Cmd::WriteMany { ops, reply })
            .map_err(|cmd| match cmd {
                Cmd::WriteMany { ops, .. } => ops,
                _ => unreachable!("send_write_many only sends WriteMany"),
            })
    }

    /// True if `r` is currently inside a crash window (lock-free flag —
    /// the serving tier's failover signal).
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.crashed[r.index()].load(Ordering::SeqCst)
    }

    /// Crashes replica `r` now, blocking until the crash took effect.
    /// The replica's volatile state is gone; its durable [`RecoveryLog`]
    /// survives for [`restart`](Self::restart).
    ///
    /// # Panics
    ///
    /// Panics if durability is not armed
    /// ([`ClusterConfig::durability`]) — a crash without a recovery log
    /// would be permanent data loss, which this runtime does not model —
    /// or if the cluster has shut down.
    pub fn crash(&self, r: ReplicaId) {
        assert!(
            self.durable,
            "crash({r}) requires ClusterConfig::durability (recovery logs are not armed)"
        );
        let (done, rx) = bounded(1);
        self.cmd_txs[r.index()]
            .send(Cmd::Crash { done: Some(done) })
            .unwrap_or_else(|_| panic!("crash({r}): cluster has shut down"));
        let _ = rx.recv();
    }

    /// Restarts a crashed replica `r` from its durable log, blocking
    /// until recovery (WAL replay + session stream rebuild + catch-up
    /// probes) completed. A no-op on a replica that is not crashed.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has shut down.
    pub fn restart(&self, r: ReplicaId) {
        let (done, rx) = bounded(1);
        self.cmd_txs[r.index()]
            .send(Cmd::Restart { done: Some(done) })
            .unwrap_or_else(|_| panic!("restart({r}): cluster has shut down"));
        let _ = rx.recv();
    }

    /// How many passes replica `r`'s loop has made so far — a diagnostic
    /// for the loop's wait discipline: a pass happens only on an arrival
    /// (command or frame), a closed batch window, a due session timer, or
    /// the idle park running out, so an idle cluster's count barely moves.
    pub fn loop_passes(&self, r: ReplicaId) -> u64 {
        self.passes[r.index()].load(Ordering::Relaxed)
    }

    /// The snapshot publication counter of `r` (monotonically
    /// increasing; one bump per published state change).
    pub fn snapshot_version(&self, r: ReplicaId) -> u64 {
        self.snapshots[r.index()].version()
    }

    /// Blocks until the cluster is quiescent: every sent message that has
    /// a recipient has been applied (or, without a session to repair it,
    /// permanently lost to a crash window) and no pending buffers remain,
    /// stable for a grace period.
    pub fn settle(&self) {
        let mut last = (usize::MAX, usize::MAX);
        let mut stable_since = Instant::now();
        loop {
            let now = (
                self.applied.load(Ordering::SeqCst),
                self.pending.load(Ordering::SeqCst),
            );
            let sent = self.sent.load(Ordering::SeqCst);
            let lost = self.lost.load(Ordering::SeqCst);
            let drained = now.0 + lost >= sent && now.1 == 0;
            if now != last {
                last = now;
                stable_since = Instant::now();
            } else if drained && stable_since.elapsed() > Duration::from_millis(50) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Checks the recorded trace for replica-centric causal consistency.
    pub fn check(&self) -> CheckReport {
        check(&merge_shards(&self.shards), self.graph.placement())
    }

    /// A snapshot of the trace so far (shards merged and causally
    /// re-sorted).
    pub fn trace_snapshot(&self) -> Trace {
        merge_shards(&self.shards)
    }

    /// Total remote applies so far.
    pub fn total_applied(&self) -> usize {
        self.applied.load(Ordering::SeqCst)
    }

    /// Total metadata bytes sent so far, as framed by the wire codec.
    pub fn total_wire_bytes(&self) -> usize {
        self.wire_bytes.load(Ordering::SeqCst)
    }

    /// Total session-layer retransmissions so far (0 without a session
    /// or on a clean network).
    pub fn total_retransmits(&self) -> usize {
        self.retransmits.load(Ordering::SeqCst)
    }

    /// Total wire-codec demotions so far (0 unless a malformed layout
    /// was injected — registry layouts verify at construction).
    pub fn total_codec_demotions(&self) -> usize {
        self.demotions.load(Ordering::SeqCst)
    }

    /// Completed replica restarts (crash recoveries) so far.
    pub fn total_restarts(&self) -> usize {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Updates permanently lost to crash windows so far (always 0 with a
    /// session layer — retransmission repairs crash-window losses).
    pub fn total_lost_to_crash(&self) -> usize {
        self.lost.load(Ordering::SeqCst)
    }

    /// Shuts the cluster down, joining all replica threads.
    pub fn shutdown(mut self) -> Trace {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        merge_shards(&self.shards)
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One protocol event exported from a node's trace shard, in the node's
/// own thread order. The multi-process driver assembles per-node event
/// logs into one global [`Trace`] *topologically* (an apply is placed
/// after its issue) — wall clocks are not comparable across processes,
/// so no stamps are exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// `id` was issued at this node, writing `register`.
    Issue {
        /// The new update's id.
        id: UpdateId,
        /// The register written.
        register: RegisterId,
    },
    /// `id` was applied at this node.
    Apply {
        /// The applied update's id.
        id: UpdateId,
    },
}

/// One replica of a cluster running **in this process**, its peers
/// reachable over TCP — the per-process unit behind `prcc-node`. Runs
/// exactly the [`ThreadedCluster`] replica loop (same commands, same
/// trace shard, same snapshot publishing) with a [`prcc_net::TcpHandle`]
/// as its transport.
pub struct NodeRuntime {
    id: ReplicaId,
    graph: Arc<ShareGraph>,
    cmd_tx: CmdTx,
    thread: Option<JoinHandle<()>>,
    shard: Arc<TraceShard>,
    snapshot: Arc<SnapshotCell>,
    applied: Arc<AtomicUsize>,
    pending: Arc<AtomicUsize>,
    sent: Arc<AtomicUsize>,
    wire_bytes: Arc<AtomicUsize>,
    endpoint: TcpEndpoint<SessionFrame<BatchMsg>>,
}

impl fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.id)
            .field("applied", &self.applied.load(Ordering::Relaxed))
            .finish()
    }
}

impl NodeRuntime {
    /// Starts replica `id` of `graph` on an already-bound listener,
    /// connecting out to `peers` (every other replica's listen address).
    ///
    /// # Panics
    ///
    /// Panics if `bound` was bound for a different replica id.
    pub fn start(
        graph: ShareGraph,
        config: ClusterConfig,
        tcp: TcpNetConfig,
        bound: BoundListener,
        peers: HashMap<ReplicaId, SocketAddr>,
    ) -> io::Result<NodeRuntime> {
        let id = bound.id();
        let graph = Arc::new(graph);
        // Every process derives the identical registry from the shared
        // graph — layout negotiation needs no cross-process exchange.
        let registry = Arc::new(TsRegistry::new(
            &graph,
            TimestampGraphs::build(&graph, LoopConfig::EXHAUSTIVE),
        ));
        let mut cfg = tcp;
        cfg.ingress_depth = config.ingress_depth;
        let endpoint = TcpEndpoint::start(bound, peers, cfg, cluster_codec(id, registry.clone()))?;
        let net = endpoint.handle();
        let (tx, cmd_rx) = bounded::<Cmd>(config.channel_depth.max(1));
        let cmd_tx = CmdTx {
            tx,
            bell: net.doorbell().clone(),
        };
        let shard: Arc<TraceShard> = Arc::new(Mutex::new(Vec::new()));
        let snapshot = Arc::new(SnapshotCell::new(graph.num_replicas()));
        let applied = Arc::new(AtomicUsize::new(0));
        let pending = Arc::new(AtomicUsize::new(0));
        let sent = Arc::new(AtomicUsize::new(0));
        let wire_bytes = Arc::new(AtomicUsize::new(0));
        let thread = std::thread::spawn({
            let graph = graph.clone();
            let shard = shard.clone();
            let snapshot = snapshot.clone();
            let applied = applied.clone();
            let pending = pending.clone();
            let sent = sent.clone();
            let wire_bytes = wire_bytes.clone();
            move || {
                replica_main(ReplicaCtx {
                    id,
                    graph,
                    registry,
                    config,
                    epoch: Instant::now(),
                    net,
                    cmds: cmd_rx,
                    shard,
                    snapshot,
                    crashed_flag: Arc::new(AtomicBool::new(false)),
                    passes: Arc::new(AtomicU64::new(0)),
                    applied_ctr: applied,
                    pending_ctr: pending,
                    sent_ctr: sent,
                    wire_bytes_ctr: wire_bytes,
                    retransmits_ctr: Arc::new(AtomicUsize::new(0)),
                    demotions_ctr: Arc::new(AtomicUsize::new(0)),
                    lost_ctr: Arc::new(AtomicUsize::new(0)),
                    restarts_ctr: Arc::new(AtomicUsize::new(0)),
                })
            }
        });
        Ok(NodeRuntime {
            id,
            graph,
            cmd_tx,
            thread: Some(thread),
            shard,
            snapshot,
            applied,
            pending,
            sent,
            wire_bytes,
            endpoint,
        })
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The share graph this node runs over.
    pub fn graph(&self) -> &ShareGraph {
        &self.graph
    }

    /// Blocking write of `v` to register `x` at this replica.
    ///
    /// # Panics
    ///
    /// Panics if this replica does not store `x` or the runtime has shut
    /// down.
    pub fn write(&self, x: RegisterId, v: Value) -> UpdateId {
        let (reply, rx) = bounded(1);
        self.cmd_tx
            .send(Cmd::Write {
                register: x,
                value: v,
                reply,
            })
            .unwrap_or_else(|_| panic!("write({x}): node {} has shut down", self.id));
        rx.recv()
            .unwrap_or_else(|_| panic!("write({x}): node {} replica thread died", self.id))
    }

    /// Lock-free snapshot read of register `x`.
    pub fn read(&self, x: RegisterId) -> Option<Value> {
        self.snapshot.load().get(&x).cloned()
    }

    /// The full published [`ReplicaView`].
    pub fn store_snapshot(&self) -> Arc<ReplicaView> {
        self.snapshot.load()
    }

    /// Remote updates applied here so far.
    pub fn total_applied(&self) -> usize {
        self.applied.load(Ordering::SeqCst)
    }

    /// Update messages sent from here so far.
    pub fn total_sent(&self) -> usize {
        self.sent.load(Ordering::SeqCst)
    }

    /// Metadata bytes put on the wire so far (wire-codec frame sizes).
    pub fn total_wire_bytes(&self) -> usize {
        self.wire_bytes.load(Ordering::SeqCst)
    }

    /// Blocks until this node has applied at least `expected_applies`
    /// remote updates with nothing parked in pending buffers, stable for
    /// a grace period. Returns `false` on timeout — the multi-process
    /// quiescence primitive (each node knows its own expected apply count
    /// from the shared seeded workload; no cross-process counter exists).
    pub fn wait_quiescent(&self, expected_applies: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable_since = Instant::now();
        let mut last = usize::MAX;
        loop {
            let applied = self.applied.load(Ordering::SeqCst);
            let drained = applied >= expected_applies && self.pending.load(Ordering::SeqCst) == 0;
            if applied != last {
                last = applied;
                stable_since = Instant::now();
            } else if drained && stable_since.elapsed() > Duration::from_millis(50) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// This node's protocol events so far, in thread order.
    pub fn events(&self) -> Vec<NodeEvent> {
        self.shard
            .lock()
            .iter()
            .map(|s| match s.ev {
                ShardEvent::Issue { id, register } => NodeEvent::Issue { id, register },
                ShardEvent::Apply { id } => NodeEvent::Apply { id },
            })
            .collect()
    }

    /// Transport counters for this node's endpoint.
    pub fn tcp_stats(&self) -> TcpStatsSnapshot {
        self.endpoint.stats()
    }

    /// Shuts the node down: flushes queued batches, joins the replica
    /// thread, and returns the final event log.
    pub fn shutdown(mut self) -> Vec<NodeEvent> {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.endpoint.shutdown();
        self.events()
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A replica's command inlet: the bounded channel plus the loop's
/// [`Doorbell`]. Every producer enqueues first and rings second, so the
/// parked loop wakes on the arrival instead of polling for it.
#[derive(Clone)]
struct CmdTx {
    tx: Sender<Cmd>,
    bell: Doorbell,
}

impl CmdTx {
    /// Blocking send (bounded backpressure); `Err` hands the command
    /// back when the replica thread is gone.
    fn send(&self, cmd: Cmd) -> Result<(), Cmd> {
        self.tx.send(cmd).map_err(|e| e.0)?;
        self.bell.ring();
        Ok(())
    }

    fn try_send(&self, cmd: Cmd) -> Result<(), TrySendError<Cmd>> {
        self.tx.try_send(cmd)?;
        self.bell.ring();
        Ok(())
    }
}

/// Everything one replica thread owns. Generic over the [`Transport`]
/// carrying session frames: [`prcc_net::NodeHandle`] in-process,
/// [`prcc_net::TcpHandle`] over real sockets — the loop is identical.
struct ReplicaCtx<T: Transport<Msg = SessionFrame<BatchMsg>>> {
    id: ReplicaId,
    graph: Arc<ShareGraph>,
    registry: Arc<TsRegistry>,
    config: ClusterConfig,
    epoch: Instant,
    net: T,
    cmds: Receiver<Cmd>,
    shard: Arc<TraceShard>,
    snapshot: Arc<SnapshotCell>,
    crashed_flag: Arc<AtomicBool>,
    passes: Arc<AtomicU64>,
    applied_ctr: Arc<AtomicUsize>,
    pending_ctr: Arc<AtomicUsize>,
    sent_ctr: Arc<AtomicUsize>,
    wire_bytes_ctr: Arc<AtomicUsize>,
    retransmits_ctr: Arc<AtomicUsize>,
    demotions_ctr: Arc<AtomicUsize>,
    lost_ctr: Arc<AtomicUsize>,
    restarts_ctr: Arc<AtomicUsize>,
}

/// A per-destination pending batch on the sender side.
struct Outq {
    msgs: Vec<UpdateMsg>,
    bytes: usize,
    due: Instant,
}

/// Wraps queued updates as a batch and hands it to the session layer
/// (or ships it bare). With a recovery log armed, the batch enters the
/// durable outbox *before* the network sees it — restart rebuilds the
/// session sender streams from exactly this history.
fn ship<T: Transport<Msg = SessionFrame<BatchMsg>>>(
    msgs: Vec<UpdateMsg>,
    dst: ReplicaId,
    endpoint: &mut Option<SessionEndpoint<BatchMsg>>,
    net: &T,
    now_ms: u64,
    log: &mut Option<RecoveryLog>,
) {
    let batch = BatchMsg { updates: msgs };
    if let Some(lg) = log.as_mut() {
        lg.record_send(dst, batch.clone());
    }
    let frame = match endpoint.as_mut() {
        Some(ep) => ep.send(dst, batch, now_ms),
        None => SessionFrame::Bare(batch),
    };
    net.send(dst, frame);
}

/// The encode-and-ship half of a replica's transmit path: wire codec,
/// pending per-destination batches, session endpoint, and the network
/// handle. Owned by the replica thread — per-pair codec delta state
/// never crosses threads.
///
/// The cluster-wide `wire_bytes` / `demotions` / `retransmits` counters
/// are statistics that publish no other data, so they take one `Relaxed`
/// add per fan-out or pass; readers see them through the channel and
/// `applied` counter hand-offs every delivery already makes.
struct FanoutPath<T: Transport<Msg = SessionFrame<BatchMsg>>> {
    id: ReplicaId,
    codec: WireCodec,
    outq: HashMap<ReplicaId, Outq>,
    /// The earliest `due` among `outq`'s batches. Windows are one fixed
    /// length, so this is the oldest open batch; a batch that ships early
    /// on count or bytes may leave it stale-early, which costs one rescan
    /// in [`flush_due`](Self::flush_due), never a late batch.
    next_due: Option<Instant>,
    endpoint: Option<SessionEndpoint<BatchMsg>>,
    net: T,
    epoch: Instant,
    batch: BatchPolicy,
    eager: bool,
    flush_window: Duration,
    wire_bytes_ctr: Arc<AtomicUsize>,
    demotions_ctr: Arc<AtomicUsize>,
    retransmits_ctr: Arc<AtomicUsize>,
    last_demotions: usize,
    last_retx: usize,
}

impl<T: Transport<Msg = SessionFrame<BatchMsg>>> FanoutPath<T> {
    /// Session timers run on wall-clock milliseconds since the cluster
    /// epoch — the real-timer counterpart of the sim clock.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn ship(&mut self, msgs: Vec<UpdateMsg>, dst: ReplicaId, log: &mut Option<RecoveryLog>) {
        let now_ms = self.now_ms();
        ship(msgs, dst, &mut self.endpoint, &self.net, now_ms, log);
    }

    /// Encodes `msg` for each recipient and ships it (eager) or
    /// coalesces it into the per-destination batch. Encode-once
    /// fan-out: the metadata `Arc` (or its per-pair projected frame) is
    /// shared, not cloned, and identical pair streams share one varint
    /// pass.
    fn fanout(
        &mut self,
        msg: &UpdateMsg,
        recipients: Vec<ReplicaId>,
        log: &mut Option<RecoveryLog>,
    ) {
        let metas = self.codec.encode_fanout(self.id, &recipients, &msg.meta);
        let demoted = self.codec.stats().demotions;
        if demoted > self.last_demotions {
            // Delta, not a store: other replica threads are adding
            // their own demotions to the same counter.
            self.demotions_ctr
                .fetch_add(demoted - self.last_demotions, Ordering::Relaxed);
            self.last_demotions = demoted;
        }
        let mut wire_bytes = 0;
        for (dst, meta) in recipients.into_iter().zip(metas) {
            wire_bytes += meta.size_bytes();
            let m = UpdateMsg {
                meta,
                ..msg.clone()
            };
            if self.eager {
                self.ship(vec![m], dst, log);
            } else {
                let q = self.outq.entry(dst).or_insert_with(|| Outq {
                    msgs: Vec::new(),
                    bytes: 0,
                    due: Instant::now() + self.flush_window,
                });
                self.next_due.get_or_insert(q.due);
                q.bytes += m.size_bytes();
                q.msgs.push(m);
                if q.msgs.len() >= self.batch.batch_count || q.bytes >= self.batch.batch_bytes {
                    let q = self.outq.remove(&dst).expect("slot just filled");
                    self.ship(q.msgs, dst, log);
                }
            }
        }
        self.wire_bytes_ctr.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Ships batches whose coalescing window has closed. Returns when
    /// the next one closes, if any batch is still open.
    fn flush_due(&mut self, log: &mut Option<RecoveryLog>) -> Option<Instant> {
        let due = self.next_due?;
        let now = Instant::now();
        if due <= now {
            let now_ms = self.now_ms();
            let (endpoint, net) = (&mut self.endpoint, &self.net);
            let mut next: Option<Instant> = None;
            self.outq.retain(|&dst, q| {
                let open = q.due > now;
                if open {
                    next = Some(next.map_or(q.due, |n| n.min(q.due)));
                } else {
                    ship(std::mem::take(&mut q.msgs), dst, endpoint, net, now_ms, log);
                }
                open
            });
            self.next_due = next;
        }
        self.next_due
    }

    /// Flushes every unshipped batch so nothing queued is lost.
    fn flush_all(&mut self, log: &mut Option<RecoveryLog>) {
        self.next_due = None;
        for (dst, q) in std::mem::take(&mut self.outq) {
            self.ship(q.msgs, dst, log);
        }
    }

    /// Fires due retransmission / delayed-ack timers and rolls the
    /// endpoint's retransmit counter delta into the cluster total.
    /// Returns when the next timer is due, if any is armed.
    fn poll_session(&mut self) -> Option<Instant> {
        let now = self.now_ms();
        let ep = self.endpoint.as_mut()?;
        let mut next = ep.next_deadline();
        if next.is_some_and(|d| d <= now) {
            let mut due = Vec::new();
            ep.poll(now, &mut due);
            for (dst, f) in due {
                self.net.send(dst, f);
            }
            next = ep.next_deadline();
        }
        let retx = ep.stats().retransmits;
        if retx != self.last_retx {
            self.retransmits_ctr
                .fetch_add(retx - self.last_retx, Ordering::Relaxed);
            self.last_retx = retx;
        }
        next.map(|ms| self.epoch + Duration::from_millis(ms))
    }
}

/// The transmit path of the replica loop: issue (WAL + write + stamp)
/// fused with [`FanoutPath`] encode/ship, plus the durable log the
/// command loop also records deliveries through. Factored out of the
/// command loop so [`Cmd::Write`] and [`Cmd::WriteMany`] share one issue
/// path.
struct TxPath<'a, T: Transport<Msg = SessionFrame<BatchMsg>>> {
    fan: FanoutPath<T>,
    graph: &'a ShareGraph,
    /// Durable recovery log, when armed. Owned here because the WAL's
    /// outbox entries are written on the transmit path (`ship`), but the
    /// command loop also records deliveries and drives snapshots/recovery
    /// through it.
    log: Option<RecoveryLog>,
    shard: &'a TraceShard,
    shard_seq: u64,
    sent_ctr: &'a AtomicUsize,
}

impl<T: Transport<Msg = SessionFrame<BatchMsg>>> TxPath<'_, T> {
    /// Issues one write at `replica`, stamps the issue, and fans the
    /// update out to the register's other holders (batched or eager per
    /// policy). Returns the new update's id. Does *not* publish a
    /// snapshot — the caller publishes once per drain burst, which is
    /// what makes bursts cheap.
    fn issue(&mut self, replica: &mut Replica, register: RegisterId, value: Value) -> UpdateId {
        // Write-ahead: the WAL entry lands before the write executes or
        // any ack can escape (crashes are injected at command
        // granularity, so the entry and the state change are atomic).
        if let Some(lg) = self.log.as_mut() {
            lg.record_own_write(register, value.clone());
        }
        let id = self.fan.id;
        let recipients: Vec<ReplicaId> = self
            .graph
            .placement()
            .holders(register)
            .iter()
            .copied()
            .filter(|&h| h != id)
            .collect();
        let (msg, recipients) = replica
            .write(register, value, recipients)
            .unwrap_or_else(|e| panic!("{e}"));
        let uid = UpdateId {
            issuer: id,
            seq: msg.seq,
        };
        // Stamp the issue *before* any send: the shard merge relies on
        // issue stamps preceding all apply stamps.
        self.shard.lock().push(Stamped {
            nanos: self.fan.epoch.elapsed().as_nanos() as u64,
            seq: self.shard_seq,
            ev: ShardEvent::Issue { id: uid, register },
        });
        self.shard_seq += 1;
        self.sent_ctr.fetch_add(recipients.len(), Ordering::SeqCst);
        self.fan.fanout(&msg, recipients, &mut self.log);
        uid
    }

    /// Applies one decoded batch: store writes, tracker merge, frontier
    /// advance, apply stamps. Returns how many updates were applied (the
    /// caller owes a publish when any were).
    fn apply_batch(
        &mut self,
        replica: &mut Replica,
        batch: BatchMsg,
        frontier: &mut [u64],
    ) -> usize {
        let applied = replica.receive_batch(batch.updates);
        if !applied.is_empty() {
            let mut s = self.shard.lock();
            let nanos = self.fan.epoch.elapsed().as_nanos() as u64;
            for a in &applied {
                let issuer = a.msg.issuer;
                let f = &mut frontier[issuer.index()];
                *f = (*f).max(a.msg.seq + 1);
                s.push(Stamped {
                    nanos,
                    seq: self.shard_seq,
                    ev: ShardEvent::Apply {
                        id: UpdateId {
                            issuer,
                            seq: a.msg.seq,
                        },
                    },
                });
                self.shard_seq += 1;
            }
        }
        applied.len()
    }
}

/// Publishes `replica`'s current state as one immutable [`ReplicaView`]:
/// store, per-register provenance, and the applied frontier, captured
/// together so readers never see a store newer than its frontier.
fn publish_view(snapshot: &SnapshotCell, replica: &Replica, frontier: &[u64], mode: StoreMode) {
    snapshot.publish(ReplicaView::capture(replica, mode, frontier.to_vec()));
}

/// A [`Cmd::WriteMany`] reply channel plus the per-write statuses owed
/// to it once the burst's publish lands.
type ManyReply = (Sender<(u64, WriteStatus)>, Vec<(u64, WriteStatus)>);

/// Write completions held back until the burst's single publish. The
/// COW publish invariant (DESIGN §14): a completion token never escapes
/// to a client before its write is snapshot-visible, so read-your-
/// writes needs no replica lock — releasing always publishes first
/// when any write is pending.
#[derive(Default)]
struct DeferredReplies {
    wrote: bool,
    writes: Vec<(Sender<UpdateId>, UpdateId)>,
    many: Vec<ManyReply>,
}

impl DeferredReplies {
    /// Publishes once (iff any write is pending) and releases every
    /// held completion token — the one-publish-per-drain-burst path
    /// shared by [`Cmd::Write`] and [`Cmd::WriteMany`].
    fn release(
        &mut self,
        snapshot: &SnapshotCell,
        replica: &Replica,
        frontier: &[u64],
        mode: StoreMode,
    ) {
        if self.wrote {
            publish_view(snapshot, replica, frontier, mode);
            self.wrote = false;
        }
        for (reply, uid) in self.writes.drain(..) {
            let _ = reply.send(uid);
        }
        for (reply, statuses) in self.many.drain(..) {
            for s in statuses {
                let _ = reply.send(s);
            }
        }
    }
}

/// How long a replica loop parks when no batch window or session timer
/// is open. Nothing depends on the loop passing at this period — every
/// input rings the doorbell — it only bounds what a wake-up lost to a
/// bug could cost. Public so the lost-wake-up regression test can name
/// the cliff it looks for.
pub const IDLE_PARK: Duration = Duration::from_millis(50);

/// The replica loop — the one loop every configuration runs (batched or
/// eager, durable or not, `ThreadNet` or TCP, crash-bearing or not):
/// commands, network input, publishes, session timers, WAL and
/// crash/restart on one thread with exactly one blocking point.
///
/// Each pass drains a burst of commands, publishes once and releases
/// their completion tokens, drains a burst of frames, publishes once,
/// ships the batches whose window closed and fires the session timers
/// that are due. It then parks on the transport's [`Doorbell`] until the
/// earliest open batch window or armed session timer, and is woken early
/// only by an arrival: a command ([`CmdTx`] rings) or a delivered frame
/// (the substrate rings). The bell's token is sticky, so an arrival
/// between the last queue check and the park is never slept through.
fn replica_main<T: Transport<Msg = SessionFrame<BatchMsg>>>(ctx: ReplicaCtx<T>) {
    let ReplicaCtx {
        id,
        graph,
        registry,
        config,
        epoch,
        net,
        cmds,
        shard,
        snapshot,
        crashed_flag,
        passes,
        applied_ctr,
        pending_ctr,
        sent_ctr,
        wire_bytes_ctr,
        retransmits_ctr,
        demotions_ctr,
        lost_ctr,
        restarts_ctr,
    } = ctx;
    let bell = net.doorbell().clone();
    bell.bind();
    let wire_mode = config.wire;
    let mode = config.store;
    let mut replica = Replica::new(
        id,
        graph.placement().registers_of(id).clone(),
        Box::new(EdgeTracker::new(registry.clone(), id)) as Box<dyn CausalityTracker>,
    );
    let log = config
        .durability
        .map(|every| RecoveryLog::new(replica.clone(), every));
    // Durability forces eager shipping: an acked write must already sit
    // in the outbox when a crash hits, and crash atomicity is per
    // command — a batch coalescing across commands would ack writes
    // whose updates exist nowhere durable.
    let eager = config.batch.batch_count <= 1 || log.is_some();
    let mut tx = TxPath {
        fan: FanoutPath {
            id,
            // The sender thread owns the codec for its outgoing pair
            // streams — per-pair delta state never crosses threads.
            codec: WireCodec::new(wire_mode, Some(registry.clone())),
            outq: HashMap::new(),
            next_due: None,
            endpoint: config.session.map(|cfg| SessionEndpoint::new(id, cfg)),
            net,
            epoch,
            batch: config.batch,
            eager,
            flush_window: TICK * config.batch.flush_after.min(u32::MAX as u64) as u32,
            wire_bytes_ctr,
            demotions_ctr,
            retransmits_ctr,
            last_demotions: 0,
            last_retx: 0,
        },
        graph: &graph,
        log,
        shard: &shard,
        shard_seq: 0,
        sent_ctr: &sent_ctr,
    };
    let mut local_pending = 0usize;
    // Per-issuer applied frontier published with every snapshot — the
    // serving tier's lock-free session-guarantee gate (see
    // [`ReplicaView::covers`]).
    let mut frontier = vec![0u64; graph.num_replicas()];
    // Inside a crash window: commands and frames are discarded (clients
    // get typed rejections), volatile state is dead weight awaiting the
    // restart's WAL replay.
    let mut crashed = false;
    // Completion tokens held for the burst's single publish.
    let mut deferred = DeferredReplies::default();
    loop {
        passes.fetch_add(1, Ordering::Relaxed);
        // Set when a burst budget ran out with its queue possibly
        // non-empty: that input rang the bell before this pass took it,
        // so only an explicit next pass (not a park) is sure to see it.
        let mut more = false;
        // Drain a burst of client commands (writes from concurrent
        // drivers coalesce into the same pending batches and share one
        // snapshot publish).
        let mut budget = 64;
        while budget > 0 {
            let cmd = match cmds.try_recv() {
                Ok(c) => c,
                Err(TryRecvError::Empty) => break,
                // Every command sender is gone without a `Shutdown`:
                // nothing can ask this replica for anything again.
                Err(TryRecvError::Disconnected) => Cmd::Shutdown,
            };
            budget -= 1;
            match cmd {
                Cmd::Write {
                    register,
                    value,
                    reply,
                } => {
                    if crashed {
                        // Dropping the reply sender surfaces as a typed
                        // ClusterError::Crashed at the caller.
                        drop(reply);
                        continue;
                    }
                    let uid = tx.issue(&mut replica, register, value);
                    frontier[id.index()] = uid.seq + 1;
                    // Defer the completion: the burst publishes once,
                    // and no token escapes before that publish
                    // (read-own-writes).
                    deferred.wrote = true;
                    deferred.writes.push((reply, uid));
                }
                Cmd::WriteMany { ops, reply } => {
                    if crashed {
                        // Typed per-op rejection: the serving tier
                        // re-routes each op to a live holder.
                        for (token, _, _) in ops {
                            let _ = reply.send((token, WriteStatus::Crashed));
                        }
                        continue;
                    }
                    let mut done = Vec::with_capacity(ops.len());
                    for (token, register, value) in ops {
                        let uid = tx.issue(&mut replica, register, value);
                        frontier[id.index()] = uid.seq + 1;
                        done.push((token, WriteStatus::Done(uid)));
                    }
                    deferred.wrote |= !done.is_empty();
                    deferred.many.push((reply, done));
                }
                Cmd::ReadAt { register, reply } => {
                    if crashed {
                        drop(reply);
                        continue;
                    }
                    let _ = reply.send(replica.read(register).cloned());
                }
                Cmd::Crash { done } => {
                    // The crash must observe every completion already
                    // promised: publish and release before the window
                    // opens.
                    deferred.release(&snapshot, &replica, &frontier, mode);
                    // Without a durable log a crash would be permanent
                    // data loss; this runtime only models recoverable
                    // fail-stop, so the command is ignored.
                    if !crashed && tx.log.is_some() {
                        crashed = true;
                        crashed_flag.store(true, Ordering::SeqCst);
                        // Volatile sender state dies with the process
                        // image. Durability keeps shipping eager, so the
                        // outq is empty and no acked write is in it.
                        tx.fan.outq.clear();
                        tx.fan.next_due = None;
                    }
                    if let Some(d) = done {
                        let _ = d.send(());
                    }
                }
                Cmd::Restart { done } => {
                    deferred.release(&snapshot, &replica, &frontier, mode);
                    if crashed {
                        let lg = tx.log.as_ref().expect("crashed implies a log");
                        let (rec, fr) = lg.recover_with_frontier(graph.num_replicas());
                        replica = rec;
                        frontier = fr;
                        // Fresh codec: per-pair delta streams restart
                        // from scratch. Sound because frames carry
                        // decoded metadata values (receivers hold no
                        // stream state); only byte accounting changes.
                        tx.fan.codec = WireCodec::new(wire_mode, Some(registry.clone()));
                        if let Some(ep) = tx.fan.endpoint.as_mut() {
                            let mut out = Vec::new();
                            let now_ms = epoch.elapsed().as_millis() as u64;
                            ep.restart(lg.outbox(), &lg.recv_cums(), now_ms, &mut out);
                            for (dst, f) in out {
                                tx.fan.net.send(dst, f);
                            }
                        }
                        crashed = false;
                        crashed_flag.store(false, Ordering::SeqCst);
                        restarts_ctr.fetch_add(1, Ordering::SeqCst);
                        // Republish from recovered state: durable writes
                        // become snapshot-visible again immediately.
                        publish_view(&snapshot, &replica, &frontier, mode);
                    }
                    if let Some(d) = done {
                        let _ = d.send(());
                    }
                }
                Cmd::Shutdown => {
                    deferred.release(&snapshot, &replica, &frontier, mode);
                    if !crashed {
                        tx.fan.flush_all(&mut tx.log);
                    }
                    return;
                }
            }
        }
        more |= budget == 0;
        // One publish for the whole burst, then every held completion
        // token — never a token before its write is snapshot-visible.
        deferred.release(&snapshot, &replica, &frontier, mode);
        // Then a burst of network input.
        let mut applied = 0;
        let mut budget = 256;
        while budget > 0 {
            let Some(env) = tx.fan.net.try_recv() else {
                break;
            };
            budget -= 1;
            if crashed {
                // A crashed node's NIC is dark: frames vanish. Bare
                // frames (no session) are permanent losses and must be
                // accounted so `settle` can still converge; session
                // frames will be retransmitted until after the restart.
                if tx.fan.endpoint.is_none() {
                    if let SessionFrame::Bare(b) = env.msg {
                        lost_ctr.fetch_add(b.updates.len(), Ordering::SeqCst);
                    }
                }
                continue;
            }
            let payloads = match tx.fan.endpoint.as_mut() {
                Some(ep) => {
                    let now = epoch.elapsed().as_millis() as u64;
                    let mut resp = Vec::new();
                    let msgs = ep.on_frame(env.src, env.msg, now, &mut resp);
                    // Ack-after-durable: every in-order payload reaches
                    // the WAL before the cumulative ack for it can reach
                    // the network, so a peer's acked point never runs
                    // ahead of this replica's durable log.
                    if let Some(lg) = tx.log.as_mut() {
                        for b in &msgs {
                            lg.record_delivery(env.src, b.clone());
                        }
                    }
                    for (dst, f) in resp {
                        tx.fan.net.send(dst, f);
                    }
                    msgs
                }
                None => match env.msg {
                    SessionFrame::Bare(b) => {
                        if let Some(lg) = tx.log.as_mut() {
                            lg.record_delivery(env.src, b.clone());
                        }
                        vec![b]
                    }
                    // Session frames without a session endpoint cannot
                    // happen (both are chosen by the same constructor).
                    _ => Vec::new(),
                },
            };
            for batch in payloads {
                applied += tx.apply_batch(&mut replica, batch, &mut frontier);
            }
        }
        more |= budget == 0;
        if applied > 0 {
            applied_ctr.fetch_add(applied, Ordering::SeqCst);
            publish_view(&snapshot, &replica, &frontier, mode);
        }
        let mut wake = None;
        if !crashed {
            // Compact the WAL once per loop pass: the live state now
            // reflects every logged event of this pass.
            if let Some(lg) = tx.log.as_mut() {
                lg.maybe_snapshot_with_frontier(&replica, &frontier);
            }
            // Roll the pending-buffer delta into the cluster counter.
            let np = replica.pending_count();
            if np > local_pending {
                pending_ctr.fetch_add(np - local_pending, Ordering::SeqCst);
            } else if np < local_pending {
                pending_ctr.fetch_sub(local_pending - np, Ordering::SeqCst);
            }
            local_pending = np;
            // Ship the batches whose window closed, fire the session
            // timers that are due, and learn when the next of either is.
            let batch_due = tx.fan.flush_due(&mut tx.log);
            let timer_due = tx.fan.poll_session();
            wake = [batch_due, timer_due].into_iter().flatten().min();
        }
        if !more {
            bell.wait_until(wake.unwrap_or_else(|| Instant::now() + IDLE_PARK));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_net::FaultPlan;
    use prcc_sharegraph::topology;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn concurrent_writers_converge_consistently() {
        let cluster =
            ThreadedCluster::new(topology::ring(4), DelayModel::Uniform { min: 0, max: 5 }, 3);
        // Writers on all replicas concurrently (via the blocking API from
        // multiple driver threads).
        std::thread::scope(|s| {
            for i in 0..4u32 {
                let c = &cluster;
                s.spawn(move || {
                    for round in 0..10u64 {
                        c.write(r(i), x(i), Value::from(round));
                    }
                });
            }
        });
        cluster.settle();
        let rep = cluster.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        assert_eq!(cluster.total_applied(), 4 * 10); // each write has 1 recipient
                                                     // Final values visible on both holders.
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(9u64)));
        let trace = cluster.shutdown();
        assert_eq!(trace.num_updates(), 40);
    }

    #[test]
    fn causal_chain_across_threads() {
        let cluster =
            ThreadedCluster::new(topology::path(3), DelayModel::Uniform { min: 0, max: 3 }, 9);
        cluster.write(r(0), x(0), Value::from(1u64));
        cluster.settle();
        // Replica 1 saw the write; its next write is causally after.
        cluster.write(r(1), x(1), Value::from(2u64));
        cluster.settle();
        assert_eq!(cluster.read(r(2), x(1)), Some(Value::from(2u64)));
        assert!(cluster.check().is_consistent());
    }

    #[test]
    fn read_own_writes() {
        let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(1), 0);
        cluster.write(r(0), x(0), Value::from(77u64));
        assert_eq!(cluster.read(r(0), x(0)), Some(Value::from(77u64)));
    }

    #[test]
    fn authoritative_read_at_round_trips_into_the_replica_thread() {
        let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(1), 0);
        assert_eq!(cluster.read_at(r(0), x(0)), None);
        cluster.write(r(0), x(0), Value::from(5u64));
        // Agrees with the lock-free snapshot path once the write returned.
        assert_eq!(cluster.read_at(r(0), x(0)), Some(Value::from(5u64)));
        assert_eq!(cluster.read_at(r(0), x(0)), cluster.read(r(0), x(0)));
        // A remote write becomes visible to read_at after settle.
        cluster.write(r(1), x(0), Value::from(6u64));
        cluster.settle();
        assert_eq!(cluster.read_at(r(0), x(0)), Some(Value::from(6u64)));
    }

    #[test]
    fn unbatched_cluster_still_converges() {
        let cluster = ThreadedCluster::with_config(
            topology::ring(3),
            DelayModel::Fixed(1),
            5,
            ClusterConfig {
                batch: BatchPolicy::unbatched(),
                channel_depth: 2,
                ..ClusterConfig::default()
            },
        );
        for round in 0..5u64 {
            for i in 0..3u32 {
                cluster.write(r(i), x(i), Value::from(round));
            }
        }
        cluster.settle();
        assert!(cluster.check().is_consistent());
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(4u64)));
    }

    #[test]
    fn snapshot_versions_are_monotone_and_readable_mid_run() {
        let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(1), 2);
        let mut last_version = 0;
        for round in 0..20u64 {
            cluster.write(r(0), x(0), Value::from(round));
            let v = cluster.snapshot_version(r(0));
            assert!(v >= last_version, "snapshot version went backwards");
            assert!(v > 0, "write published a snapshot before replying");
            last_version = v;
            // The snapshot read reflects the acknowledged write.
            assert_eq!(cluster.read(r(0), x(0)), Some(Value::from(round)));
        }
        cluster.settle();
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(19u64)));
    }

    #[test]
    fn concurrent_snapshot_readers_never_see_torn_state() {
        // Ring(3): replica 0 stores registers 0 and 2. The writer bumps
        // x0 then x2 to the same value, so every honestly published
        // snapshot satisfies x2 <= x0. A torn read (x2 from a newer
        // state than x0) would invert that.
        let cluster = ThreadedCluster::new(topology::ring(3), DelayModel::Fixed(0), 4);
        let val = |v: Option<&Value>| match v {
            Some(&Value::U64(n)) => n,
            _ => 0,
        };
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let c = &cluster;
            let done = &done;
            s.spawn(move || {
                for k in 1..=200u64 {
                    c.write(r(0), x(0), Value::from(k));
                    c.write(r(0), x(2), Value::from(k));
                }
                done.store(true, Ordering::SeqCst);
            });
            for _ in 0..2 {
                s.spawn(move || {
                    let mut last_version = 0;
                    while !done.load(Ordering::SeqCst) {
                        let snap = c.store_snapshot(r(0));
                        let a = val(snap.get(&x(0)));
                        let b = val(snap.get(&x(2)));
                        assert!(b <= a, "torn snapshot: x2={b} ran ahead of x0={a}");
                        let v = c.snapshot_version(r(0));
                        assert!(v >= last_version, "snapshot version went backwards");
                        last_version = v;
                    }
                });
            }
        });
        cluster.settle();
        assert!(cluster.check().is_consistent());
    }

    fn fast_session() -> Option<SessionConfig> {
        Some(SessionConfig {
            rto_base: 10,
            rto_max: 80,
            jitter: 3,
            ack_delay: 0,
        })
    }

    #[test]
    fn crash_restart_recovers_durable_state() {
        let cluster = ThreadedCluster::with_config(
            topology::path(2),
            DelayModel::Fixed(1),
            3,
            ClusterConfig {
                durability: Some(4),
                session: fast_session(),
                ..ClusterConfig::default()
            },
        );
        for k in 0..10u64 {
            cluster.write(r(0), x(0), Value::from(k));
        }
        cluster.settle();
        cluster.crash(r(0));
        assert!(cluster.is_crashed(r(0)));
        assert_eq!(
            cluster.try_write(r(0), x(0), Value::from(99u64)),
            Err(ClusterError::Crashed { replica: r(0) })
        );
        assert_eq!(
            cluster.try_read_at(r(0), x(0)),
            Err(ClusterError::Crashed { replica: r(0) })
        );
        // The surviving holder keeps writing while its peer is down.
        cluster.write(r(1), x(0), Value::from(50u64));
        cluster.restart(r(0));
        assert!(!cluster.is_crashed(r(0)));
        assert_eq!(cluster.total_restarts(), 1);
        cluster.settle();
        // Catch-up delivered the write issued during the crash window.
        assert_eq!(cluster.read(r(0), x(0)), Some(Value::from(50u64)));
        // The recovered replica continues its durable sequence exactly.
        let uid = cluster.write(r(0), x(0), Value::from(77u64));
        assert_eq!(uid.seq, 10, "seq must continue from the durable log");
        cluster.settle();
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(77u64)));
        let rep = cluster.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
    }

    #[test]
    fn acked_writes_survive_crash_before_restart() {
        // Writes acked just before the crash must be present after
        // recovery — the acked ⇒ durable ⇒ survives invariant, with a
        // snapshot interval small enough to exercise compaction.
        let cluster = ThreadedCluster::with_config(
            topology::ring(3),
            DelayModel::Fixed(1),
            9,
            ClusterConfig {
                durability: Some(3),
                session: fast_session(),
                ..ClusterConfig::default()
            },
        );
        let mut acked = Vec::new();
        for k in 0..20u64 {
            acked.push(cluster.write(r(0), x(0), Value::from(k)));
        }
        // Crash immediately — no settle: in-flight fan-out is repaired
        // by the session layer after restart.
        cluster.crash(r(0));
        cluster.restart(r(0));
        cluster.settle();
        let view = cluster.store_snapshot(r(0));
        for uid in &acked {
            assert!(view.covers(*uid), "acked write {uid} lost in recovery");
        }
        assert_eq!(cluster.read(r(0), x(0)), Some(Value::from(19u64)));
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(19u64)));
        assert!(cluster.check().is_consistent());
    }

    #[test]
    fn scheduled_crash_fires_and_heals() {
        // Replica 1 is scripted to crash at tick 25 (5 ms) and restart
        // at tick 500 (100 ms); durability auto-arms.
        let cluster = ThreadedCluster::with_config(
            topology::path(2),
            DelayModel::Fixed(1),
            5,
            ClusterConfig {
                schedule: FaultSchedule::none().crash(r(1), 25, 500),
                session: fast_session(),
                ..ClusterConfig::default()
            },
        );
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            cluster.is_crashed(r(1)),
            "scripted crash did not fire by mid-window"
        );
        for k in 0..5u64 {
            cluster.write(r(0), x(0), Value::from(k));
        }
        std::thread::sleep(Duration::from_millis(120));
        assert!(!cluster.is_crashed(r(1)), "scripted restart did not fire");
        cluster.settle();
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(4u64)));
        assert_eq!(cluster.total_restarts(), 1);
        assert!(cluster.check().is_consistent());
    }

    #[test]
    fn lossy_network_converges_with_session() {
        // 30% drop + 20% duplication on real threads: the wall-clock
        // retransmission timers must restore every delivery. Delay ticks
        // are 200 µs, so a 10 ms base RTO clears the healthy round trip.
        let cluster = ThreadedCluster::with_config(
            topology::ring(4),
            DelayModel::Uniform { min: 0, max: 5 },
            11,
            ClusterConfig {
                schedule: FaultSchedule::from_plan(FaultPlan {
                    drop_prob: 0.3,
                    duplicate_prob: 0.2,
                    ..Default::default()
                }),
                session: Some(SessionConfig {
                    rto_base: 10,
                    rto_max: 80,
                    jitter: 3,
                    ack_delay: 0,
                }),
                ..ClusterConfig::default()
            },
        );
        for round in 0..10u64 {
            for i in 0..4u32 {
                cluster.write(r(i), x(i), Value::from(round));
            }
        }
        cluster.settle();
        let rep = cluster.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        assert_eq!(cluster.total_applied(), 4 * 10);
        assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(9u64)));
    }
}
