//! A threaded deployment: one OS thread per replica over a
//! [`ThreadNet`] transport.
//!
//! [`ThreadedCluster`] drives the same replica engine as the simulated
//! [`System`](crate::System) — replica, wire codec, batching, session and
//! WAL, wired once in `crate::engine` (DESIGN §15) — but under genuine
//! concurrency and wall-clock time (the engine clock is µs since the
//! cluster epoch): the reproduction's stand-in for the "async nodes"
//! deployment, with real threads + crossbeam channels in place of an
//! async runtime.
//!
//! # The hot path
//!
//! Four design points keep client operations off the contended paths:
//!
//! * **One event-driven loop per replica.** A replica thread has exactly
//!   one blocking point: it parks until its next session timer and is
//!   woken early only by an arrival — a command, or a frame the transport
//!   delivered (see `replica_main`). No pass without work, no
//!   fixed-period poll, and the same loop in every configuration
//!   (batched, durable, TCP, crash-bearing).
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
//! * **Self-clocking batches.** The engine coalesces the updates one
//!   pass's command burst issues per destination into [`BatchMsg`]
//!   frames, capped by the cluster's [`BatchPolicy`], and the loop ships
//!   them at the end of that burst — no timer holds a batch open;
//!   receivers ingest them through [`Replica::receive_batch`]'s
//!   once-per-batch predicate fast path.
//!
//! Client command channels are *bounded* (1024 commands): a flooded
//! replica thread exerts backpressure on writers instead of growing an
//! unbounded queue.

use crate::codec::WireMode;
use crate::engine::{BatchPolicy, Engine, EngineConfig, Outgoing};
use crate::message::BatchMsg;
use crate::netframe::cluster_codec;
use crate::replica::{Applied, Replica};
use crate::store_cow::{SharedShards, StoreMode};
use crate::tracker::{CausalityTracker, EdgeTracker};
use crate::value::Value;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::{Mutex, RwLock};
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{
    BoundListener, DelayModel, Doorbell, FaultSchedule, SessionConfig, SessionFrame, TcpEndpoint,
    TcpNetConfig, TcpStatsSnapshot, ThreadNet, Transport, TICK,
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
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Per-recipient metadata wire mode.
    pub wire: WireMode,
    /// Scripted fault schedule: every `ThreadNet` send rolls its embedded
    /// plan (drops / duplicates) and honours its link outages (ticks of
    /// 200 µs from cluster construction); crash/restart events
    /// are injected as commands by a timeline thread walking
    /// [`FaultSchedule::crash_timeline`]. Without a
    /// [`session`](ClusterConfig::session), losses are permanent; with
    /// one, its retransmission timers run on wall-clock milliseconds, so
    /// pick `rto_base` comfortably above the delay model's round trip.
    pub schedule: FaultSchedule,
    /// Reliable-delivery session layer, if any.
    pub session: Option<SessionConfig>,
    /// Sender-side update batching: the caps on one batch. The writes
    /// one loop pass drains are coalesced per destination and shipped at
    /// the end of that pass's command burst, or earlier at a cap.
    pub batch: BatchPolicy,
    /// Arms per-replica durable [`RecoveryLog`](crate::RecoveryLog)s
    /// with this WAL length between snapshot compactions. Required for
    /// crash/restart (a crash without a log would be permanent data
    /// loss); auto-armed at 1024 when the schedule scripts crashes.
    /// Durable replicas batch like any other: a crash lands between
    /// passes and ships the open batches first, so every acked write is
    /// in the WAL and every batch it rode in is in the outbox.
    pub durability: Option<usize>,
    /// How publishes materialise snapshots: sharded copy-on-write
    /// (O(Δ) per publish, the default) or the original clone-the-world
    /// oracle ([`StoreMode::Clone`], O(store) per publish).
    pub store: StoreMode,
}

/// Client command channel bound per replica thread. A full channel
/// blocks the calling writer — bounded backpressure, never an unbounded
/// queue.
const CHANNEL_DEPTH: usize = 1024;

/// Per-node network ingress bound of the in-process `ThreadNet`: frames
/// in flight to a node beyond it are shed and, with a session, repaired
/// by retransmission.
const INGRESS_DEPTH: usize = 4096;

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
    /// Crash the replica: it keeps draining its channels but discards
    /// everything until [`Cmd::Restart`], modelling a fail-stop node
    /// whose durable log survives. Ignored when no log is
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
fn merge_shards<'a>(shards: impl Iterator<Item = &'a TraceShard>) -> Trace {
    let mut all: Vec<(u64, u8, usize, u64, ShardEvent)> = Vec::new();
    for (i, shard) in shards.enumerate() {
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
    /// One entry per replica thread, in replica order.
    replicas: Vec<ReplicaThread>,
    counters: Arc<Counters>,
    /// Whether recovery logs are armed (required by [`crash`](Self::crash)).
    durable: bool,
    /// Keep the net alive for the cluster's lifetime.
    net: NetBacking,
}

/// The message substrate a [`ThreadedCluster`] runs over — kept alive
/// (and shut down) with the cluster.
enum NetBacking {
    /// In-process inboxes that hold each frame until its delay is up.
    Thread(#[allow(dead_code)] ThreadNet<SessionFrame<BatchMsg>>),
    /// Real kernel sockets: one loopback [`TcpEndpoint`] per replica.
    Tcp(Vec<TcpEndpoint<SessionFrame<BatchMsg>>>),
}

impl fmt::Debug for ThreadedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedCluster")
            .field("replicas", &self.replicas.len())
            .field("applied", &self.counters.applied.load(Ordering::Relaxed))
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
        let graph = Arc::new(graph);
        let registry = exact_registry(&graph);
        let net: ThreadNet<SessionFrame<BatchMsg>> = ThreadNet::with_schedule(
            graph.num_replicas(),
            delay,
            seed,
            config.schedule.clone(),
            INGRESS_DEPTH,
        );
        let handles: Vec<_> = graph.replicas().map(|i| net.handle(i)).collect();
        Self::spawn(graph, registry, config, handles, NetBacking::Thread(net))
    }

    /// A cluster over **real kernel sockets**: every replica gets its own
    /// loopback [`TcpEndpoint`], per-peer TCP connections, and the
    /// [`cluster_codec`] link framing — the same replica threads, command
    /// surface, and trace machinery as [`with_config`](Self::with_config),
    /// with the [`ThreadNet`] swapped for the kernel.
    ///
    /// Link-level fault injection (the [`FaultSchedule`]'s plan and
    /// outages) is a `ThreadNet` feature and does not apply
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
        let graph = Arc::new(graph);
        let registry = exact_registry(&graph);
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
            let ep = TcpEndpoint::start(
                bound,
                peers,
                tcp.clone(),
                cluster_codec(me, registry.clone()),
            )?;
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
        mut config: ClusterConfig,
        handles: Vec<T>,
        net: NetBacking,
    ) -> Self {
        // Scripted crashes without a recovery log would be permanent
        // data loss, which the threaded runtime does not model — arm
        // durability automatically.
        if !config.schedule.crashes.is_empty() && config.durability.is_none() {
            config.durability = Some(1024);
        }
        let engine = engine_config(&graph, registry, &config);
        let counters = Arc::new(Counters::default());
        let epoch = Instant::now();
        let replicas: Vec<ReplicaThread> = graph
            .replicas()
            .zip(handles)
            .map(|(i, handle)| spawn_replica(i, &engine, &config, epoch, handle, &counters))
            .collect();
        // The fault driver: walks the scripted crash/restart timeline on
        // the shared wall-clock tick and injects the events as commands.
        // Detached — it exits on its own once the timeline is done or the
        // replica threads are gone.
        let timeline = config.schedule.crash_timeline();
        if !timeline.is_empty() {
            let txs: Vec<CmdTx> = replicas.iter().map(|r| r.cmd_tx.clone()).collect();
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
            replicas,
            counters,
            durable: config.durability.is_some(),
            net,
        }
    }

    /// Per-replica transport counters when this cluster runs over TCP
    /// ([`with_tcp`](Self::with_tcp)); `None` over the in-process `ThreadNet`.
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
        for r in &self.replicas {
            for s in r.shared.shard.lock().iter() {
                if let ShardEvent::Issue { id, .. } = s.ev {
                    issued.insert(id, s.nanos);
                }
            }
        }
        for r in &self.replicas {
            for s in r.shared.shard.lock().iter() {
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
        if self
            .cmd(r)
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

    fn cmd(&self, r: ReplicaId) -> &CmdTx {
        &self.replicas[r.index()].cmd_tx
    }

    fn shared(&self, r: ReplicaId) -> &Shared {
        &self.replicas[r.index()].shared
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
    /// channel's bound still applies — a burst deeper than 1024
    /// commands blocks until the replica drains.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store one of the registers or the cluster
    /// has shut down.
    pub fn write_burst(&self, r: ReplicaId, writes: &[(RegisterId, Value)]) -> Vec<UpdateId> {
        let (reply, rx) = bounded(writes.len().max(1));
        for (x, v) in writes {
            if self
                .cmd(r)
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
        self.store_snapshot(r).get(&x).cloned()
    }

    /// The full immutable [`ReplicaView`] currently published by `r`
    /// (store, provenance, and applied frontier, captured atomically).
    pub fn store_snapshot(&self, r: ReplicaId) -> Arc<ReplicaView> {
        self.shared(r).snapshot.load()
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
        self.cmd(r)
            .send(Cmd::WriteMany { ops, reply })
            .map_err(|cmd| match cmd {
                Cmd::WriteMany { ops, .. } => ops,
                _ => unreachable!("send_write_many only sends WriteMany"),
            })
    }

    /// True if `r` is currently inside a crash window (lock-free flag —
    /// the serving tier's failover signal).
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.shared(r).crashed.load(Ordering::SeqCst)
    }

    /// Crashes replica `r` now, blocking until the crash took effect.
    /// The replica's volatile state is gone; its durable
    /// [`RecoveryLog`](crate::RecoveryLog) survives for
    /// [`restart`](Self::restart).
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
        self.cmd(r)
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
        self.cmd(r)
            .send(Cmd::Restart { done: Some(done) })
            .unwrap_or_else(|_| panic!("restart({r}): cluster has shut down"));
        let _ = rx.recv();
    }

    /// How many passes replica `r`'s loop has made so far — a diagnostic
    /// for the loop's wait discipline: a pass happens only on an arrival
    /// (command or frame), a due session timer, or the idle park running
    /// out, so an idle cluster's count barely moves.
    pub fn loop_passes(&self, r: ReplicaId) -> u64 {
        self.shared(r).passes.load(Ordering::Relaxed)
    }

    /// The snapshot publication counter of `r` (monotonically
    /// increasing; one bump per published state change).
    pub fn snapshot_version(&self, r: ReplicaId) -> u64 {
        self.shared(r).snapshot.version()
    }

    /// Blocks until the cluster is quiescent: every sent message that has
    /// a recipient has been applied (or, without a session to repair it,
    /// permanently lost to a crash window) and no pending buffers remain,
    /// stable for a grace period.
    pub fn settle(&self) {
        let c = &self.counters;
        let mut last = (usize::MAX, usize::MAX);
        let mut stable_since = Instant::now();
        loop {
            let now = (
                c.applied.load(Ordering::SeqCst),
                c.pending.load(Ordering::SeqCst),
            );
            let sent = c.sent.load(Ordering::SeqCst);
            let lost = c.lost.load(Ordering::SeqCst);
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
        check(&self.trace_snapshot(), self.graph.placement())
    }

    /// A snapshot of the trace so far (shards merged and causally
    /// re-sorted).
    pub fn trace_snapshot(&self) -> Trace {
        merge_shards(self.replicas.iter().map(|r| &r.shared.shard))
    }

    /// Total remote applies so far.
    pub fn total_applied(&self) -> usize {
        self.counters.applied.load(Ordering::SeqCst)
    }

    /// Total metadata bytes sent so far, as framed by the wire codec.
    pub fn total_wire_bytes(&self) -> usize {
        self.counters.wire_bytes.load(Ordering::SeqCst)
    }

    /// Total session-layer retransmissions so far (0 without a session
    /// or on a clean network).
    pub fn total_retransmits(&self) -> usize {
        self.counters.retransmits.load(Ordering::SeqCst)
    }

    /// Total wire-codec demotions so far (0 unless a malformed layout
    /// was injected — registry layouts verify at construction).
    pub fn total_codec_demotions(&self) -> usize {
        self.counters.demotions.load(Ordering::SeqCst)
    }

    /// Completed replica restarts (crash recoveries) so far.
    pub fn total_restarts(&self) -> usize {
        self.counters.restarts.load(Ordering::SeqCst)
    }

    /// Updates permanently lost to crash windows so far (always 0 with a
    /// session layer — retransmission repairs crash-window losses).
    pub fn total_lost_to_crash(&self) -> usize {
        self.counters.lost.load(Ordering::SeqCst)
    }

    /// Shuts the cluster down, joining all replica threads.
    pub fn shutdown(mut self) -> Trace {
        self.stop();
        self.trace_snapshot()
    }

    /// Asks every replica thread to stop, then joins them all.
    fn stop(&mut self) {
        for r in &self.replicas {
            let _ = r.cmd_tx.send(Cmd::Shutdown);
        }
        for r in &mut self.replicas {
            r.join();
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.stop();
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
    replica: ReplicaThread,
    counters: Arc<Counters>,
    endpoint: TcpEndpoint<SessionFrame<BatchMsg>>,
}

impl fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.id)
            .field("applied", &self.counters.applied.load(Ordering::Relaxed))
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
        let registry = exact_registry(&graph);
        let endpoint = TcpEndpoint::start(bound, peers, tcp, cluster_codec(id, registry.clone()))?;
        let engine = engine_config(&graph, registry, &config);
        let counters = Arc::new(Counters::default());
        let replica = spawn_replica(
            id,
            &engine,
            &config,
            Instant::now(),
            endpoint.handle(),
            &counters,
        );
        Ok(NodeRuntime {
            id,
            graph,
            replica,
            counters,
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
        self.replica
            .cmd_tx
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
        self.store_snapshot().get(&x).cloned()
    }

    /// The full published [`ReplicaView`].
    pub fn store_snapshot(&self) -> Arc<ReplicaView> {
        self.replica.shared.snapshot.load()
    }

    /// Remote updates applied here so far.
    pub fn total_applied(&self) -> usize {
        self.counters.applied.load(Ordering::SeqCst)
    }

    /// Update messages sent from here so far.
    pub fn total_sent(&self) -> usize {
        self.counters.sent.load(Ordering::SeqCst)
    }

    /// Metadata bytes put on the wire so far (wire-codec frame sizes).
    pub fn total_wire_bytes(&self) -> usize {
        self.counters.wire_bytes.load(Ordering::SeqCst)
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
            let applied = self.total_applied();
            let drained =
                applied >= expected_applies && self.counters.pending.load(Ordering::SeqCst) == 0;
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
        self.replica
            .shared
            .shard
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
        let _ = self.replica.cmd_tx.send(Cmd::Shutdown);
        self.replica.join();
        self.endpoint.shutdown();
        self.events()
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        let _ = self.replica.cmd_tx.send(Cmd::Shutdown);
        self.replica.join();
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

/// Counters every replica thread of one cluster (or one node) adds to;
/// the public `total_*` accessors say what each counts. `wire_bytes` is
/// a statistic that publishes no other data, so each write adds to it
/// `Relaxed`; readers see it through the channel and `applied` hand-offs
/// every delivery already makes.
#[derive(Default)]
struct Counters {
    applied: AtomicUsize,
    pending: AtomicUsize,
    sent: AtomicUsize,
    wire_bytes: AtomicUsize,
    retransmits: AtomicUsize,
    demotions: AtomicUsize,
    lost: AtomicUsize,
    restarts: AtomicUsize,
}

/// What a replica thread shares with its driver: the trace shard, the
/// read snapshot, the crash flag (the serving tier's failover signal,
/// read without a command round trip) and the loop-pass counter.
struct Shared {
    shard: TraceShard,
    snapshot: SnapshotCell,
    crashed: AtomicBool,
    passes: AtomicU64,
}

/// What a driver keeps of one spawned replica thread.
struct ReplicaThread {
    cmd_tx: CmdTx,
    thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ReplicaThread {
    fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The exact edge-indexed registry. Every process derives the identical
/// one from the shared graph, so layout negotiation needs no exchange.
fn exact_registry(graph: &ShareGraph) -> Arc<TsRegistry> {
    let graphs = TimestampGraphs::build(graph, LoopConfig::EXHAUSTIVE);
    Arc::new(TsRegistry::new(graph, graphs))
}

/// The runtime's [`EngineConfig`]: the engine clock is µs since the
/// cluster epoch, so the session timers (ms) are scaled to µs here, once.
fn engine_config(
    graph: &Arc<ShareGraph>,
    registry: Arc<TsRegistry>,
    config: &ClusterConfig,
) -> Arc<EngineConfig> {
    let us = |ms: u64| ms.saturating_mul(1000);
    Arc::new(EngineConfig {
        graph: Arc::clone(graph),
        data: graph.placement().clone(),
        broadcast: false,
        registry: Some(registry),
        wire: config.wire,
        batch: config.batch,
        session: config.session.map(|s| SessionConfig {
            rto_base: us(s.rto_base),
            rto_max: us(s.rto_max),
            jitter: us(s.jitter),
            ack_delay: us(s.ack_delay),
        }),
        snapshot_every: config.durability,
    })
}

/// Spawns replica `id`'s thread (`apply-N`) over transport `net` — the
/// one place a [`ReplicaCtx`] is assembled, for both
/// [`ThreadedCluster`] and [`NodeRuntime`].
fn spawn_replica<T: Transport<Msg = SessionFrame<BatchMsg>>>(
    id: ReplicaId,
    engine: &Arc<EngineConfig>,
    config: &ClusterConfig,
    epoch: Instant,
    net: T,
    counters: &Arc<Counters>,
) -> ReplicaThread {
    let (tx, cmds) = bounded::<Cmd>(CHANNEL_DEPTH);
    let cmd_tx = CmdTx {
        tx,
        bell: net.doorbell().clone(),
    };
    let shared = Arc::new(Shared {
        shard: Mutex::new(Vec::new()),
        snapshot: SnapshotCell::new(engine.graph.num_replicas()),
        crashed: AtomicBool::new(false),
        passes: AtomicU64::new(0),
    });
    let ctx = ReplicaCtx {
        id,
        engine: Arc::clone(engine),
        store: config.store,
        epoch,
        net,
        cmds,
        shared: Arc::clone(&shared),
        counters: Arc::clone(counters),
    };
    let thread = std::thread::Builder::new()
        .name(format!("apply-{}", id.raw()))
        .spawn(move || replica_main(ctx))
        .expect("spawn replica thread");
    ReplicaThread {
        cmd_tx,
        thread: Some(thread),
        shared,
    }
}

/// Everything one replica thread owns. Generic over the [`Transport`]
/// carrying session frames: [`prcc_net::NodeHandle`] in-process,
/// [`prcc_net::TcpHandle`] over real sockets — the loop is identical.
struct ReplicaCtx<T: Transport<Msg = SessionFrame<BatchMsg>>> {
    id: ReplicaId,
    engine: Arc<EngineConfig>,
    store: StoreMode,
    epoch: Instant,
    net: T,
    cmds: Receiver<Cmd>,
    shared: Arc<Shared>,
    counters: Arc<Counters>,
}

/// The replica thread's side of every engine input: sends the frames
/// the engine emitted, stamps issues and applies into the trace shard,
/// and adds to the cluster counters.
struct TxPath<'a, T: Transport<Msg = SessionFrame<BatchMsg>>> {
    net: &'a T,
    /// The engine's effect buffer, drained by [`send`](Self::send).
    out: Vec<Outgoing>,
    shard: &'a TraceShard,
    seq: u64,
    epoch: Instant,
    counters: &'a Counters,
}

impl<T: Transport<Msg = SessionFrame<BatchMsg>>> TxPath<'_, T> {
    /// Sends every frame the engine's last input emitted.
    fn send(&mut self) {
        for (dst, frame) in self.out.drain(..) {
            self.net.send(dst, frame);
        }
    }

    fn record(&mut self, nanos: u64, evs: impl IntoIterator<Item = ShardEvent>) {
        let mut s = self.shard.lock();
        for ev in evs {
            s.push(Stamped {
                nanos,
                seq: self.seq,
                ev,
            });
            self.seq += 1;
        }
    }

    /// Issues one write through the engine, stamps it, and sends its
    /// frames. Does *not* publish a snapshot — the caller publishes once
    /// per drain burst, which is what makes bursts cheap.
    fn issue(&mut self, engine: &mut Engine, register: RegisterId, value: Value) -> UpdateId {
        // The stamp is taken before any frame leaves: the shard merge
        // relies on issue stamps preceding all apply stamps.
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        let issued = engine
            .write(register, value, nanos / 1000, &mut self.out, |_, _| {})
            .unwrap_or_else(|e| panic!("{e}"));
        let id = UpdateId {
            issuer: issued.msg.issuer,
            seq: issued.msg.seq,
        };
        self.record(nanos, [ShardEvent::Issue { id, register }]);
        let c = self.counters;
        c.sent.fetch_add(issued.fanout, Ordering::SeqCst);
        c.wire_bytes.fetch_add(issued.wire_bytes, Ordering::Relaxed);
        self.send();
        id
    }

    /// Stamps a delivery's applies; returns how many there were.
    fn applied(&mut self, applied: &[Applied]) -> usize {
        if !applied.is_empty() {
            let nanos = self.epoch.elapsed().as_nanos() as u64;
            self.record(
                nanos,
                applied.iter().map(|a| ShardEvent::Apply {
                    id: UpdateId {
                        issuer: a.msg.issuer,
                        seq: a.msg.seq,
                    },
                }),
            );
        }
        applied.len()
    }
}

/// Moves a per-thread running total's change since `last` into the
/// cluster counter `ctr`, which every replica thread adds to.
fn roll(ctr: &AtomicUsize, last: &mut usize, now: usize) {
    if now > *last {
        ctr.fetch_add(now - *last, Ordering::SeqCst);
    } else if now < *last {
        ctr.fetch_sub(*last - now, Ordering::SeqCst);
    }
    *last = now;
}

/// Publishes the engine's current state as one immutable
/// [`ReplicaView`]: store, per-register provenance, and the applied
/// frontier, captured together so readers never see a store newer than
/// its frontier.
fn publish_view(snapshot: &SnapshotCell, engine: &Engine, mode: StoreMode) {
    snapshot.publish(ReplicaView::capture(
        engine.replica(),
        mode,
        engine.frontier().to_vec(),
    ));
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
    fn release(&mut self, snapshot: &SnapshotCell, engine: &Engine, mode: StoreMode) {
        if self.wrote {
            publish_view(snapshot, engine, mode);
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

/// How long a replica loop parks when no session timer is armed.
/// Nothing depends on the loop passing at this period — every
/// input wakes the park — it only bounds what a wake-up lost to a
/// bug could cost. Public so the lost-wake-up regression test can name
/// the cliff it looks for.
pub const IDLE_PARK: Duration = Duration::from_millis(50);

/// The replica loop — the one loop every configuration runs (batched or
/// not, durable or not, `ThreadNet` or TCP, crash-bearing or not). It
/// drives one [`Engine`] (codec, batches, session, WAL, crash/restart)
/// and owns what the engine does not: commands, the doorbell park, the
/// trace shard, snapshot publishing and the cluster counters. Every
/// engine input is followed by sending the frames it emitted.
///
/// Each pass drains a burst of commands, publishes once and releases
/// their completion tokens, ships the batches that burst opened, drains
/// a burst of frames, publishes once, and ticks the engine (due session
/// timers). It then parks through the transport
/// ([`Transport::wait_until`]) until the engine's next session timer,
/// and is woken early only by an arrival: a command ([`CmdTx`] rings the
/// transport's [`Doorbell`]) or a frame falling due (the substrate wakes
/// the park by its due instant). The park token is sticky, so an arrival
/// between the last queue check and the park is never slept through.
fn replica_main<T: Transport<Msg = SessionFrame<BatchMsg>>>(ctx: ReplicaCtx<T>) {
    let ReplicaCtx {
        id,
        engine: config,
        store: mode,
        epoch,
        net,
        cmds,
        shared,
        counters,
    } = ctx;
    net.doorbell().bind();
    let registry = config.registry.clone().expect("runtime engines compress");
    let replica = Replica::new(
        id,
        config.graph.placement().registers_of(id).clone(),
        Box::new(EdgeTracker::new(registry, id)) as Box<dyn CausalityTracker>,
    );
    let mut engine = Engine::new(replica, config);
    // The engine clock: µs since the cluster epoch.
    let now = || epoch.elapsed().as_micros() as u64;
    let mut tx = TxPath {
        net: &net,
        out: Vec::new(),
        shard: &shared.shard,
        seq: 0,
        epoch,
        counters: &counters,
    };
    let (mut local_pending, mut last_retx, mut last_demotions) = (0, 0, 0);
    // Completion tokens held for the burst's single publish.
    let mut deferred = DeferredReplies::default();
    loop {
        shared.passes.fetch_add(1, Ordering::Relaxed);
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
                    if engine.is_crashed() {
                        // Dropping the reply sender surfaces as a typed
                        // ClusterError::Crashed at the caller.
                        continue;
                    }
                    let uid = tx.issue(&mut engine, register, value);
                    // Defer the completion: the burst publishes once,
                    // and no token escapes before that publish
                    // (read-own-writes).
                    deferred.wrote = true;
                    deferred.writes.push((reply, uid));
                }
                Cmd::WriteMany { ops, reply } => {
                    if engine.is_crashed() {
                        // Typed per-op rejection: the serving tier
                        // re-routes each op to a live holder.
                        for (token, _, _) in ops {
                            let _ = reply.send((token, WriteStatus::Crashed));
                        }
                        continue;
                    }
                    let done: Vec<_> = ops
                        .into_iter()
                        .map(|(token, register, value)| {
                            (
                                token,
                                WriteStatus::Done(tx.issue(&mut engine, register, value)),
                            )
                        })
                        .collect();
                    deferred.wrote |= !done.is_empty();
                    deferred.many.push((reply, done));
                }
                Cmd::Crash { done } => {
                    // The crash must observe every completion already
                    // promised: publish and release before the window
                    // opens. It ends the pass, so the engine ships the
                    // burst's open batches before it goes down.
                    deferred.release(&shared.snapshot, &engine, mode);
                    if engine.crash(now(), &mut tx.out) {
                        tx.send();
                        shared.crashed.store(true, Ordering::SeqCst);
                    }
                    if let Some(d) = done {
                        let _ = d.send(());
                    }
                }
                Cmd::Restart { done } => {
                    deferred.release(&shared.snapshot, &engine, mode);
                    if engine.restart(now(), &mut tx.out) {
                        tx.send();
                        shared.crashed.store(false, Ordering::SeqCst);
                        counters.restarts.fetch_add(1, Ordering::SeqCst);
                        // Republish from recovered state: durable writes
                        // become snapshot-visible again immediately.
                        publish_view(&shared.snapshot, &engine, mode);
                    }
                    if let Some(d) = done {
                        let _ = d.send(());
                    }
                }
                Cmd::Shutdown => {
                    deferred.release(&shared.snapshot, &engine, mode);
                    engine.flush(now(), &mut tx.out);
                    tx.send();
                    return;
                }
            }
        }
        more |= budget == 0;
        // One publish for the whole burst, then every held completion
        // token — never a token before its write is snapshot-visible.
        deferred.release(&shared.snapshot, &engine, mode);
        // The burst was the batch: ship what it left open.
        if engine.has_open_batch() {
            engine.flush(now(), &mut tx.out);
            tx.send();
        }
        // Then a burst of network input.
        let mut applied = 0;
        let mut budget = 256;
        while budget > 0 {
            let Some(env) = net.try_recv() else {
                break;
            };
            budget -= 1;
            if engine.is_crashed() {
                // A crashed node's NIC is dark: frames vanish. Bare
                // frames (no session) are permanent losses and must be
                // accounted so `settle` can still converge; session
                // frames will be retransmitted until after the restart.
                if let SessionFrame::Bare(b) = &env.msg {
                    counters.lost.fetch_add(b.updates.len(), Ordering::SeqCst);
                }
                continue;
            }
            let got = engine.on_frame(env.src, env.msg, now(), &mut tx.out, |_| {});
            tx.send();
            applied += tx.applied(&got);
        }
        more |= budget == 0;
        if applied > 0 {
            counters.applied.fetch_add(applied, Ordering::SeqCst);
            publish_view(&shared.snapshot, &engine, mode);
        }
        let mut wake = None;
        if !engine.is_crashed() {
            let pending = engine.replica().pending_count();
            roll(&counters.pending, &mut local_pending, pending);
            // Fire the session timers that are due and learn when the
            // next one is.
            engine.tick(now(), &mut tx.out);
            tx.send();
            wake = engine
                .next_deadline()
                .map(|us| epoch + Duration::from_micros(us));
        }
        let retx = engine.session_stats().map_or(0, |s| s.retransmits);
        roll(&counters.retransmits, &mut last_retx, retx);
        roll(
            &counters.demotions,
            &mut last_demotions,
            engine.codec_stats().demotions,
        );
        if !more {
            net.wait_until(wake.unwrap_or_else(|| Instant::now() + IDLE_PARK));
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
        assert_eq!(cluster.total_codec_demotions(), 0);
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
    fn unbatched_cluster_still_converges() {
        let cluster = ThreadedCluster::with_config(
            topology::ring(3),
            DelayModel::Fixed(1),
            5,
            ClusterConfig {
                batch: BatchPolicy::unbatched(),
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
