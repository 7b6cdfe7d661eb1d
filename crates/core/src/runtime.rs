//! A threaded deployment: the replicas' engines on a pool of worker
//! threads, one per core, over a [`ThreadNet`] transport or kernel TCP
//! sockets.
//!
//! [`ThreadedCluster`] runs the replicas of one cluster that live in this
//! process — all of them, or (under `prcc-node`) those whose listeners it
//! was given. It drives the same replica engine as the simulated
//! [`System`](crate::System) — replica, wire codec, batching, session and
//! WAL, wired once in `crate::engine` (DESIGN §15) — but under genuine
//! concurrency and wall-clock time (the engine clock is µs since the
//! cluster epoch), with a pool of OS threads parked on doorbells in place
//! of an async runtime.
//!
//! # The hot path
//!
//! Four design points keep client operations off the contended paths:
//!
//! * **A write is an engine call.** Each replica's engine sits behind
//!   one lock. [`write`](ThreadedCluster::write) and
//!   [`write_burst`](ThreadedCluster::write_burst) take it on the
//!   caller's thread: issue every write, publish once, ship the batches
//!   the call opened, and return — the paper's local write step, with no
//!   thread hop and no queue in between.
//! * **Engines on a worker pool.** A replica is a sequential event
//!   handler, not a thread: its engines run on `min(cores, local
//!   replicas)` worker threads, the `k`-th local replica on worker
//!   `k mod W`. Every transport of a worker's replicas rings the
//!   worker's one doorbell. A worker pass services each owned replica
//!   that has a frame, a session timer or a scripted crash due, taking
//!   its engine lock blocking, one frame at a time; then the worker parks
//!   once until the earliest due instant of them all, so a write's
//!   fan-out frames that fall due together cost one wake per worker, not
//!   one per replica (see `worker_main`). No pass without work, no
//!   fixed-period poll, and the same loop in every configuration
//!   (batched, durable, TCP, crash-bearing).
//! * **Per-replica trace shards.** Each replica appends protocol events
//!   to its own shard (a private `Mutex<Vec<_>>`) in its own order. The
//!   shards are merged into one global [`Trace`] by [`merge_node_events`]
//!   only when [`check`](ThreadedCluster::check) or
//!   [`trace_snapshot`](ThreadedCluster::trace_snapshot) asks — no
//!   global trace lock on the apply path.
//! * **Lock-free read snapshots.** After every state change, a replica
//!   publishes an immutable `Arc` snapshot of its store.
//!   [`read`](ThreadedCluster::read) clones the `Arc` and never takes
//!   the engine lock, so readers cannot observe torn state and cannot
//!   slow writers down.
//!
//! Batches are self-clocking: the engine coalesces one call's writes per
//! destination into [`BatchMsg`] frames, capped by the cluster's
//! [`BatchPolicy`], and ships them as the call returns — no timer holds
//! a batch open; receivers ingest them through
//! [`Replica::receive_batch`]'s once-per-batch predicate fast path.

use crate::codec::WireMode;
use crate::engine::{BatchPolicy, Engine, EngineConfig, Outgoing};
use crate::message::BatchMsg;
use crate::netframe::cluster_codec;
use crate::replica::Replica;
use crate::store_cow::{CowStore, SharedShards, StoreMode};
use crate::system::TrackerKind;
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{
    BoundListener, DelayModel, Doorbell, FaultSchedule, SessionConfig, SessionFrame, TcpEndpoint,
    TcpNetConfig, TcpStatsSnapshot, ThreadNet, Transport, TICK,
};
use prcc_sharegraph::{LoopConfig, RegisterId, ReplicaId, ShareGraph};
use prcc_timestamp::TsRegistry;
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// 200 µs from cluster construction); each replica's worker fires its
    /// crash/restart entries of [`FaultSchedule::crash_timeline`] when
    /// their tick falls due, like a [`ThreadedCluster::crash`] or
    /// [`restart`](ThreadedCluster::restart) call. Without a
    /// [`session`](ClusterConfig::session), losses are permanent; with
    /// one, its retransmission timers run on wall-clock milliseconds, so
    /// pick `rto_base` comfortably above the delay model's round trip.
    pub schedule: FaultSchedule,
    /// Reliable-delivery session layer, if any.
    pub session: Option<SessionConfig>,
    /// Sender-side update batching: the caps on one batch. The writes of
    /// one write call are coalesced per destination and shipped as the
    /// call returns, or earlier at a cap.
    pub batch: BatchPolicy,
    /// Arms per-replica durable [`RecoveryLog`](crate::RecoveryLog)s
    /// with this WAL length between snapshot compactions. Required for
    /// crash/restart (a crash without a log would be permanent data
    /// loss); auto-armed at 1024 when the schedule scripts crashes.
    /// Durable replicas batch like any other: a crash lands between
    /// write calls and ships any open batch first, so every acked write
    /// is in the WAL and every batch it rode in is in the outbox.
    pub durability: Option<usize>,
}

/// Per-node network ingress bound of the in-process `ThreadNet`: frames
/// in flight to a node beyond it are shed and, with a session, repaired
/// by retransmission.
const INGRESS_DEPTH: usize = 4096;

/// Why a cluster operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster has shut down: the replica's worker has exited.
    Disconnected {
        /// The unreachable replica.
        replica: ReplicaId,
    },
    /// The replica is inside a crash window: it rejects writes and
    /// discards network frames until its scripted (or explicit) restart.
    Crashed {
        /// The crashed replica.
        replica: ReplicaId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Disconnected { replica } => {
                write!(f, "replica {replica} has shut down")
            }
            ClusterError::Crashed { replica } => {
                write!(f, "replica {replica} is crashed (awaiting restart)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// One replica's trace shard: its protocol events in its own order,
/// each stamped with nanoseconds since the cluster epoch (the stamps
/// serve [`ThreadedCluster::delivery_latencies_nanos`]; the merge needs
/// only the order).
type TraceShard = Mutex<Vec<(u64, NodeEvent)>>;

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
#[derive(Debug, Clone)]
pub struct ReplicaView {
    /// The store's shards, shared with the live [`CowStore`] until a
    /// write touches them.
    shards: SharedShards,
    frontier: Vec<u64>,
}

impl ReplicaView {
    /// Captures `replica`'s store, paired with the applied frontier that
    /// vouches for it. This is the single publish constructor: the
    /// threaded runtime and the publish microbench build views through
    /// it. `StoreMode` has one value.
    pub fn capture(replica: &Replica, _: StoreMode, frontier: Vec<u64>) -> Self {
        ReplicaView {
            shards: replica.store_cow().share(),
            frontier,
        }
    }

    /// The published value of `x`, if any.
    pub fn get(&self, x: &RegisterId) -> Option<&Value> {
        self.shards.get(*x)
    }

    /// The full published store, collected into a flat map.
    pub fn store(&self) -> HashMap<RegisterId, Value> {
        self.shards
            .iter()
            .map(|(x, e)| (*x, e.value.clone()))
            .collect()
    }

    /// The update that produced the published value of `x` (absent for
    /// unwritten registers and routed-payload writes, whose producing
    /// update is unknown).
    pub fn source_of(&self, x: RegisterId) -> Option<UpdateId> {
        self.shards.src_of(x)
    }

    /// `(aliased, total)` physically shared store shards between two
    /// views; always `Some`. The shard-aliasing non-vacuity test uses
    /// this to prove consecutive publishes skip untouched shards.
    pub fn shards_shared_with(&self, other: &ReplicaView) -> Option<(usize, usize)> {
        Some(self.shards.shards_shared_with(&other.shards))
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
                shards: CowStore::new(0).share(),
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

/// The replicas of one cluster that this process runs, on one worker
/// thread per core (at most one per replica): every replica ([`with_config`](Self::with_config),
/// [`with_tcp`](Self::with_tcp)) or those whose listeners it was given
/// ([`with_listeners`](Self::with_listeners)). A call for a replica this
/// process does not run panics, naming the replica;
/// [`settle`](Self::settle), [`check`](Self::check),
/// [`trace_snapshot`](Self::trace_snapshot) and
/// [`shutdown`](Self::shutdown) panic up front unless it runs them all.
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
    /// The replicas this process runs, indexed by replica id; `None` for
    /// a replica another process runs.
    replicas: Vec<Option<Arc<Shared>>>,
    /// The pool's workers, and the threads that run them.
    workers: Vec<Arc<Worker>>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    /// Whether recovery logs are armed (required by [`crash`](Self::crash)).
    durable: bool,
    /// One endpoint per local replica over TCP, in replica order; empty
    /// over `ThreadNet`, whose handles the replicas own.
    tcp: Vec<TcpEndpoint<Frame>>,
}

impl fmt::Debug for ThreadedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedCluster")
            .field("replicas", &self.local().count())
            .field("applied", &self.counters.applied.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadedCluster {
    /// Runs every replica of `graph` on the worker pool, all using the
    /// exact edge-indexed tracker and the default configuration
    /// (compressed wire, batching on, no faults, no session).
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
        let workers = pool_size(graph.num_replicas());
        Self::with_workers(graph, delay, seed, config, workers)
    }

    /// [`with_config`](Self::with_config) on `workers` worker threads
    /// (at least one, at most one per replica).
    pub(crate) fn with_workers(
        graph: ShareGraph,
        delay: DelayModel,
        seed: u64,
        config: ClusterConfig,
        workers: usize,
    ) -> Self {
        let (registry, replicas) = build_replicas(&graph);
        let n = graph.num_replicas();
        let bells = pool_bells(workers);
        let net: ThreadNet<Frame> = ThreadNet::with_bells(
            delay,
            seed,
            config.schedule.clone(),
            INGRESS_DEPTH,
            (0..n)
                .map(|k| bells[worker_of(k, bells.len())].clone())
                .collect(),
        );
        let handles: Vec<_> = graph.replicas().map(|i| net.handle(i)).collect();
        Self::spawn(
            graph,
            registry,
            replicas,
            config,
            handles,
            Vec::new(),
            bells,
        )
    }

    /// A cluster over **real kernel sockets**: binds every replica on
    /// loopback, then starts them all with
    /// [`with_listeners`](Self::with_listeners).
    ///
    /// Link-level fault injection (the [`FaultSchedule`]'s plan and
    /// outages) is a `ThreadNet` feature and does not apply
    /// here — the kernel's loopback does not drop frames. Scripted
    /// crash/restart events still work (each replica's worker fires them).
    /// A [`SessionConfig`] is still worth arming: the transport sheds
    /// frames on a backed-up or not-yet-connected peer, and only session
    /// retransmission repairs those.
    pub fn with_tcp(
        graph: ShareGraph,
        config: ClusterConfig,
        tcp: TcpNetConfig,
    ) -> io::Result<Self> {
        // Two-phase bind: every listener is live before any endpoint
        // starts, so first connects never race the accept loops.
        let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
        let listeners = graph
            .replicas()
            .map(|i| BoundListener::bind(i, loopback))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs: Vec<SocketAddr> = listeners.iter().map(BoundListener::local_addr).collect();
        Self::with_listeners(graph, config, tcp, listeners, &addrs)
    }

    /// The replicas this process runs over TCP: one [`TcpEndpoint`] (with
    /// the [`cluster_codec`] link framing) per listener, its replica on
    /// the worker pool, connecting out to `addrs[i]`, replica `i`'s listen
    /// address. The replicas without a listener run in other processes;
    /// this one waits with [`wait_quiescent`](Self::wait_quiescent) and
    /// exports each local replica's [`events`](Self::events).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] unless `addrs` has one address per
    /// replica and the listeners' ids are distinct replicas of `graph`.
    pub fn with_listeners(
        graph: ShareGraph,
        config: ClusterConfig,
        tcp: TcpNetConfig,
        mut listeners: Vec<BoundListener>,
        addrs: &[SocketAddr],
    ) -> io::Result<Self> {
        let n = graph.num_replicas();
        listeners.sort_by_key(BoundListener::id);
        let ids: Vec<usize> = listeners.iter().map(|l| l.id().index()).collect();
        let distinct = ids.windows(2).all(|w| w[0] < w[1]);
        if addrs.len() != n || !distinct || ids.last().is_some_and(|&i| i >= n) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "listeners for replicas {ids:?} and {} addresses do not fit {n} replicas",
                    addrs.len()
                ),
            ));
        }
        let (registry, replicas) = build_replicas(&graph);
        let bells = pool_bells(pool_size(listeners.len()));
        let mut endpoints = Vec::with_capacity(listeners.len());
        for (k, bound) in listeners.into_iter().enumerate() {
            let me = bound.id();
            let peers: HashMap<ReplicaId, SocketAddr> = graph
                .replicas()
                .filter(|&r| r != me)
                .map(|r| (r, addrs[r.index()]))
                .collect();
            endpoints.push(TcpEndpoint::start_with_bell(
                bound,
                peers,
                tcp.clone(),
                cluster_codec(me, registry.clone()),
                bells[worker_of(k, bells.len())].clone(),
            )?);
        }
        let handles = endpoints.iter().map(TcpEndpoint::handle).collect();
        Ok(Self::spawn(
            graph, registry, replicas, config, handles, endpoints, bells,
        ))
    }

    /// Starts a worker per bell of `bells` and gives the `k`-th transport
    /// handle's replica to worker [`worker_of`]`(k)` (`handles` in
    /// replica order, each naming its replica by its id, each ringing its
    /// worker's bell) — the substrate-independent half of every
    /// constructor.
    fn spawn<T: Transport<Msg = Frame>>(
        graph: ShareGraph,
        registry: Arc<TsRegistry>,
        replicas: Vec<Replica>,
        config: ClusterConfig,
        handles: Vec<T>,
        tcp: Vec<TcpEndpoint<Frame>>,
        bells: Vec<Doorbell>,
    ) -> Self {
        let graph = Arc::new(graph);
        let engine = engine_config(&graph, registry, &config);
        let counters = Arc::new(Counters::default());
        let epoch = Instant::now();
        let mut handles = handles.into_iter().peekable();
        let replicas: Vec<Option<Arc<Shared>>> = replicas
            .into_iter()
            .map(|replica| {
                let handle = handles.next_if(|h| h.id() == replica.id())?;
                Some(Arc::new(Shared::new(
                    replica,
                    &engine,
                    epoch,
                    Box::new(handle),
                    &counters,
                )))
            })
            .collect();
        let local: Vec<&Arc<Shared>> = replicas.iter().flatten().collect();
        let pool = bells.len();
        let (workers, threads) = bells
            .into_iter()
            .enumerate()
            .map(|(w, bell)| {
                let slots = local
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| worker_of(k, pool) == w)
                    .map(|(_, &shared)| Slot::new(Arc::clone(shared), &config.schedule))
                    .collect();
                let worker = Arc::new(Worker {
                    bell,
                    wakes: AtomicU64::new(0),
                });
                let thread = std::thread::Builder::new()
                    .name(format!("apply-{w}"))
                    .spawn({
                        let worker = Arc::clone(&worker);
                        move || worker_main(&worker, slots)
                    })
                    .expect("spawn worker thread");
                (worker, thread)
            })
            .unzip();
        ThreadedCluster {
            graph,
            replicas,
            workers,
            threads,
            counters,
            durable: engine.snapshot_every.is_some(),
            tcp,
        }
    }

    /// The replicas this process runs, in replica order.
    fn local(&self) -> impl Iterator<Item = &Shared> {
        self.replicas.iter().flatten().map(|r| &**r)
    }

    /// Replica `r`: an O(1) lookup by id.
    #[track_caller]
    fn replica(&self, r: ReplicaId) -> &Shared {
        match self.replicas.get(r.index()) {
            Some(Some(t)) => t,
            _ => panic!("replica {r} is not run by this process"),
        }
    }

    /// Panics unless this process runs every replica: `call` needs all.
    #[track_caller]
    fn assert_whole(&self, call: &str) {
        assert!(
            self.replicas.iter().all(Option::is_some),
            "{call} needs every replica in this process; a cluster split over \
             processes waits with `wait_quiescent` and exports each replica's `events`"
        );
    }

    /// Per-replica transport counters when this cluster runs over TCP
    /// ([`with_tcp`](Self::with_tcp), [`with_listeners`](Self::with_listeners)),
    /// one per local replica in replica order; `None` over the in-process
    /// `ThreadNet`.
    pub fn tcp_stats(&self) -> Option<Vec<TcpStatsSnapshot>> {
        (!self.tcp.is_empty()).then(|| self.tcp.iter().map(TcpEndpoint::stats).collect())
    }

    /// Per-delivery latencies in nanoseconds — one entry per recorded
    /// apply, `apply stamp − issue stamp` on the shared cluster epoch.
    /// Covers the updates this process's replicas issued and applied
    /// (every replica's, in a single-process cluster; both substrates
    /// share one monotonic epoch).
    pub fn delivery_latencies_nanos(&self) -> Vec<u64> {
        let mut issued: HashMap<UpdateId, u64> = HashMap::new();
        let mut out = Vec::new();
        for r in self.local() {
            for &(nanos, ev) in r.shard.lock().iter() {
                if let NodeEvent::Issue { id, .. } = ev {
                    issued.insert(id, nanos);
                }
            }
        }
        for r in self.local() {
            for &(nanos, ev) in r.shard.lock().iter() {
                if let NodeEvent::Apply { id } = ev {
                    out.extend(issued.get(&id).map(|&t0| nanos.saturating_sub(t0)));
                }
            }
        }
        out
    }

    /// Performs a write at replica `r` on the calling thread and returns
    /// once it is issued, snapshot-visible at `r` and shipped.
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

    /// Fallible write at replica `r`: a crashed replica or a shut-down
    /// cluster yields a typed [`ClusterError`] instead of a panic, and
    /// issues nothing.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store `x`.
    pub fn try_write(
        &self,
        r: ReplicaId,
        x: RegisterId,
        v: Value,
    ) -> Result<UpdateId, ClusterError> {
        Ok(self.write_many(r, vec![(x, v)])?[0])
    }

    /// Issues `writes` at replica `r` in order, under one hold of its
    /// engine lock: one publish and one shipment for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store one of the registers — checked before
    /// anything is issued.
    fn write_many(
        &self,
        r: ReplicaId,
        writes: Vec<(RegisterId, Value)>,
    ) -> Result<Vec<UpdateId>, ClusterError> {
        for &(x, _) in &writes {
            assert!(
                self.graph.placement().stores(r, x),
                "write({r}, {x}): {r} does not store {x}"
            );
        }
        self.replica(r).write(writes)
    }

    /// Pipelined writes: the whole burst is one call, so the replica
    /// issues it under one hold of its engine lock, coalesces it into
    /// batches and publishes once.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not store one of the registers, is crashed, or
    /// the cluster has shut down.
    pub fn write_burst(&self, r: ReplicaId, writes: &[(RegisterId, Value)]) -> Vec<UpdateId> {
        self.write_many(r, writes.to_vec())
            .unwrap_or_else(|e| panic!("write_burst({r}): {e}"))
    }

    /// Reads register `x` at replica `r` from its published snapshot —
    /// no engine lock, no torn reads (snapshots
    /// are immutable once published). Reflects the replica's own writes
    /// as soon as [`write`](Self::write) returns.
    pub fn read(&self, r: ReplicaId, x: RegisterId) -> Option<Value> {
        self.store_snapshot(r).get(&x).cloned()
    }

    /// The full immutable [`ReplicaView`] currently published by `r`
    /// (store, provenance, and applied frontier, captured atomically).
    pub fn store_snapshot(&self, r: ReplicaId) -> Arc<ReplicaView> {
        self.replica(r).snapshot.load()
    }

    /// The share graph the cluster runs over.
    pub fn graph(&self) -> &ShareGraph {
        &self.graph
    }

    /// True if `r` is currently inside a crash window (lock-free flag —
    /// the serving tier's failover signal).
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.replica(r).crashed.load(Ordering::SeqCst)
    }

    /// Crashes replica `r` now, on the calling thread. The replica's
    /// volatile state is gone; its durable
    /// [`RecoveryLog`](crate::RecoveryLog) survives for
    /// [`restart`](Self::restart).
    ///
    /// # Panics
    ///
    /// Panics if durability is not armed
    /// ([`ClusterConfig::durability`]) — a crash without a recovery log
    /// would be permanent data loss, which this runtime does not model.
    pub fn crash(&self, r: ReplicaId) {
        assert!(
            self.durable,
            "crash({r}) requires ClusterConfig::durability (recovery logs are not armed)"
        );
        self.replica(r).crash_or_restart(false);
    }

    /// Restarts a crashed replica `r` from its durable log, on the
    /// calling thread: WAL replay, session stream rebuild and catch-up
    /// probes are done when it returns. A no-op on a replica that is not
    /// crashed.
    pub fn restart(&self, r: ReplicaId) {
        self.replica(r).crash_or_restart(true);
    }

    /// How many worker passes have serviced replica `r` so far — a
    /// diagnostic for the pool's wait discipline: a pass services `r`
    /// only when one of its frames, its session timer or a scripted crash
    /// of it is due (or the cluster stops), so an idle cluster's count
    /// barely moves, and a write wakes no thread at its own replica —
    /// however many replicas share a worker.
    pub fn loop_passes(&self, r: ReplicaId) -> u64 {
        self.replica(r).passes.load(Ordering::Relaxed)
    }

    /// The snapshot publication counter of `r` (monotonically
    /// increasing; one bump per published state change).
    pub fn snapshot_version(&self, r: ReplicaId) -> u64 {
        self.replica(r).snapshot.version()
    }

    /// Blocks until the cluster is quiescent: every sent message that has
    /// a recipient has been applied (or, without a session to repair it,
    /// permanently lost to a crash window) and no pending buffers remain,
    /// stable for a grace period.
    pub fn settle(&self) {
        self.assert_whole("settle");
        let c = &self.counters;
        c.wait_stable(None, |applied| {
            applied + c.lost.load(Ordering::SeqCst) >= c.sent.load(Ordering::SeqCst)
        });
    }

    /// Blocks until this process's replicas have applied at least
    /// `expected_applies` remote updates with nothing pending, stable for
    /// a grace period; `false` on timeout. The quiescence wait of a
    /// cluster split over processes, where no counter spans processes.
    pub fn wait_quiescent(&self, expected_applies: usize, timeout: Duration) -> bool {
        self.counters
            .wait_stable(Some(Instant::now() + timeout), |applied| {
                applied >= expected_applies
            })
    }

    /// Checks the recorded trace for replica-centric causal consistency.
    pub fn check(&self) -> CheckReport {
        self.assert_whole("check");
        check(&self.trace_snapshot(), self.graph.placement())
    }

    /// A snapshot of the trace so far: every shard is locked at once, so
    /// the snapshot is a consistent cut (an issue is recorded before its
    /// update leaves, so every apply in the cut has its issue in it), and
    /// the shards' [`events`](Self::events) are merged by
    /// [`merge_node_events`].
    pub fn trace_snapshot(&self) -> Trace {
        self.assert_whole("trace_snapshot");
        let guards: Vec<_> = self.local().map(|r| r.shard.lock()).collect();
        let logs: Vec<Vec<NodeEvent>> = guards.iter().map(|g| unstamped(g)).collect();
        drop(guards);
        merge_node_events(&logs)
    }

    /// Replica `r`'s protocol events so far, in its own thread order —
    /// what a process exports for [`merge_node_events`].
    pub fn events(&self, r: ReplicaId) -> Vec<NodeEvent> {
        unstamped(&self.replica(r).shard.lock())
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

    /// Shuts the cluster down, joining every worker thread.
    pub fn shutdown(mut self) -> Trace {
        self.assert_whole("shutdown");
        self.stop();
        self.trace_snapshot()
    }

    /// Asks every replica to stop, rings each worker once, and joins
    /// them all. A write after this returns
    /// [`ClusterError::Disconnected`].
    fn stop(&mut self) {
        for r in self.local() {
            r.stop.store(true, Ordering::SeqCst);
        }
        for w in &self.workers {
            w.bell.ring();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// How many times worker `w` has woken from a park.
    #[cfg(test)]
    fn worker_wakes(&self, w: usize) -> u64 {
        self.workers[w].wakes.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One protocol event of a replica's trace shard, in the replica's own
/// thread order. [`merge_node_events`] assembles per-replica event logs
/// into one global [`Trace`] *topologically* (an apply is placed after
/// its issue) — wall clocks are not comparable across processes, so no
/// stamps are exported.
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

/// A trace shard's events without their stamps.
fn unstamped(shard: &[(u64, NodeEvent)]) -> Vec<NodeEvent> {
    shard.iter().map(|&(_, ev)| ev).collect()
}

/// Reassembles per-replica event logs (`logs[i]` is replica `i`'s) into
/// one global [`Trace`]: round-robin over the replicas, always
/// preserving each replica's own order, emitting an apply only once its
/// issue is placed. Happens-before (Definition 1) is built from each
/// replica's own sequence of issues and applies, so *any* interleaving
/// consistent with those two constraints reproduces exactly the
/// per-replica histories the causal-consistency checker inspects — no
/// clock is consulted, and clocks of different processes need not agree.
///
/// # Panics
///
/// Panics if some apply's issue never appears in any log (a corrupt
/// report, or a cut that is not consistent — every applied update was
/// issued somewhere).
pub fn merge_node_events(logs: &[Vec<NodeEvent>]) -> Trace {
    let mut pos = vec![0usize; logs.len()];
    let mut placed: HashSet<UpdateId> = HashSet::new();
    let mut trace = Trace::new();
    let total: usize = logs.iter().map(Vec::len).sum();
    let mut done = 0usize;
    while done < total {
        let mut progressed = false;
        for (i, log) in logs.iter().enumerate() {
            while pos[i] < log.len() {
                match log[pos[i]] {
                    NodeEvent::Issue { id, register } => {
                        trace.record_issue_with_id(id, register);
                        placed.insert(id);
                    }
                    NodeEvent::Apply { id } => {
                        if !placed.contains(&id) {
                            break; // this replica waits for the issuer's log
                        }
                        trace.record_apply(id, ReplicaId::new(i as u32));
                    }
                }
                pos[i] += 1;
                done += 1;
                progressed = true;
            }
        }
        assert!(
            progressed,
            "node event logs contain an apply whose issue never appears"
        );
    }
    trace
}

/// Counters every replica of one cluster adds to; the public `total_*`
/// accessors say what each counts. `wire_bytes` is a statistic that
/// publishes no other data, so each write adds to it `Relaxed`; readers
/// see it through the engine lock and `applied` hand-offs every delivery
/// already makes.
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

impl Counters {
    /// Polls every 5 ms until `drained(applied)` holds with nothing
    /// pending and neither count has moved for 50 ms; `false` if
    /// `deadline` passes first. The one quiescence wait of
    /// [`ThreadedCluster::settle`] and [`ThreadedCluster::wait_quiescent`].
    fn wait_stable(&self, deadline: Option<Instant>, drained: impl Fn(usize) -> bool) -> bool {
        let mut last = (usize::MAX, usize::MAX);
        let mut stable_since = Instant::now();
        loop {
            let now = (
                self.applied.load(Ordering::SeqCst),
                self.pending.load(Ordering::SeqCst),
            );
            if now != last {
                last = now;
                stable_since = Instant::now();
            } else if now.1 == 0
                && drained(now.0)
                && stable_since.elapsed() > Duration::from_millis(50)
            {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The frame type every replica sends and receives.
type Frame = SessionFrame<BatchMsg>;

/// One replica's engine and the frames its last input emitted: what
/// [`Shared::core`] guards.
struct Core {
    engine: Engine,
    out: Vec<Outgoing>,
}

/// One replica as its worker and every calling thread share it: the
/// engine behind one lock with the transport it sends on, the engine's
/// next session timer, the trace shard, the read snapshot, the crash
/// flag (the serving tier's failover signal, read without the lock), the
/// stop flag and the pass counter.
struct Shared {
    core: Mutex<Core>,
    net: Box<dyn Transport<Msg = Frame>>,
    /// The engine's next session timer in µs on the engine clock
    /// (`u64::MAX`: none), stored under the engine lock after every
    /// input, so the worker learns which of its replicas a timer is due
    /// at without taking their locks.
    timer: AtomicU64,
    /// The engine clock counts µs from here.
    epoch: Instant,
    counters: Arc<Counters>,
    shard: TraceShard,
    snapshot: SnapshotCell,
    crashed: AtomicBool,
    stop: AtomicBool,
    passes: AtomicU64,
}

/// One worker of the pool, as its thread and the cluster share it: the
/// bell every transport of its replicas rings, and how often it woke.
struct Worker {
    bell: Doorbell,
    wakes: AtomicU64,
}

/// Every replica of `graph` over the exact edge-indexed tracker, plus
/// the registry they share. Every process derives the identical registry
/// from the shared graph, so layout negotiation needs no exchange.
fn build_replicas(graph: &ShareGraph) -> (Arc<TsRegistry>, Vec<Replica>) {
    let (registry, replicas) = TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE).build_replicas(
        graph,
        graph.placement(),
        &[],
    );
    (
        registry.expect("edge-indexed trackers share a registry"),
        replicas,
    )
}

/// The runtime's [`EngineConfig`]: the engine clock is µs since the
/// cluster epoch, so the session timers (ms) are scaled to µs here, once.
/// Scripted crashes without a recovery log would be permanent data
/// loss, which the runtime does not model, so a schedule that scripts
/// crashes arms durability (1024 WAL entries between compactions).
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
        snapshot_every: config
            .durability
            .or((!config.schedule.crashes.is_empty()).then_some(1024)),
    })
}

/// How many workers run `local` replicas: one per core this process may
/// run on, at most one per replica, and at least one.
fn pool_size(local: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(local).max(1)
}

/// One bell per worker of a pool of `workers`.
fn pool_bells(workers: usize) -> Vec<Doorbell> {
    (0..workers).map(|_| Doorbell::new()).collect()
}

/// The worker of a pool of `workers` that runs the `k`-th local replica
/// (in replica order) — the one place the partition is decided.
fn worker_of(k: usize, workers: usize) -> usize {
    k % workers
}
impl Shared {
    /// `replica`'s engine over transport `net`.
    fn new(
        replica: Replica,
        engine: &Arc<EngineConfig>,
        epoch: Instant,
        net: Box<dyn Transport<Msg = Frame>>,
        counters: &Arc<Counters>,
    ) -> Self {
        Shared {
            core: Mutex::new(Core {
                engine: Engine::new(replica, Arc::clone(engine)),
                out: Vec::new(),
            }),
            net,
            timer: AtomicU64::new(u64::MAX),
            epoch,
            counters: Arc::clone(counters),
            shard: Mutex::new(Vec::new()),
            snapshot: SnapshotCell::new(engine.graph.num_replicas()),
            crashed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            passes: AtomicU64::new(0),
        }
    }

    /// The engine clock: µs since the cluster epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Sends every frame the engine's last input emitted.
    fn send(&self, out: &mut Vec<Outgoing>) {
        for (dst, frame) in out.drain(..) {
            self.net.send(dst, frame);
        }
    }

    /// Publishes the engine's current state as one immutable
    /// [`ReplicaView`]: store, per-register provenance, and the applied
    /// frontier, captured together so readers never see a store newer
    /// than its frontier.
    fn publish(&self, engine: &Engine) {
        self.snapshot.publish(ReplicaView::capture(
            engine.replica(),
            StoreMode::default(),
            engine.frontier().to_vec(),
        ));
    }

    /// Records the engine's next session timer for the worker; called
    /// under the engine lock after every input.
    fn note_timer(&self, engine: &Engine) -> Option<u64> {
        let us = engine.next_deadline();
        self.timer.store(us.unwrap_or(u64::MAX), Ordering::SeqCst);
        us
    }

    /// When the engine's next session timer is due, as the worker last
    /// saw it stored.
    fn timer_at(&self) -> Option<Instant> {
        let us = self.timer.load(Ordering::SeqCst);
        (us != u64::MAX).then(|| self.epoch + Duration::from_micros(us))
    }

    /// Ends an input from outside the worker: sends what it emitted, and
    /// has the worker awake by the session timer it may have armed.
    fn ring_loop(&self, core: &mut Core) {
        self.send(&mut core.out);
        if let Some(us) = self.note_timer(&core.engine) {
            self.net
                .doorbell()
                .ring_at(self.epoch + Duration::from_micros(us));
        }
    }

    /// A write call, on the caller's thread: issues every write (each
    /// recorded before any of its frames leaves), publishes once — so a
    /// write is snapshot-visible here when the call returns — and ships
    /// the batches the call opened. Issues nothing on a crashed or
    /// stopped replica.
    fn write(&self, writes: Vec<(RegisterId, Value)>) -> Result<Vec<UpdateId>, ClusterError> {
        let mut core = self.core.lock();
        let replica = core.engine.replica().id();
        if self.stop.load(Ordering::SeqCst) {
            return Err(ClusterError::Disconnected { replica });
        }
        if core.engine.is_crashed() {
            return Err(ClusterError::Crashed { replica });
        }
        let ids = writes
            .into_iter()
            .map(|(x, v)| self.issue(&mut core, x, v))
            .collect();
        let Core { engine, out } = &mut *core;
        self.publish(engine);
        engine.flush(self.now(), out);
        self.ring_loop(&mut core);
        Ok(ids)
    }

    /// Issues one write through the engine, records it, and sends the
    /// frames a full batch emitted. Does *not* publish a snapshot — the
    /// caller publishes once per call, which is what makes bursts cheap.
    fn issue(&self, core: &mut Core, register: RegisterId, value: Value) -> UpdateId {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        let issued = core
            .engine
            .write(register, value, nanos / 1000, &mut core.out, |_, _| {})
            .unwrap_or_else(|e| panic!("{e}"));
        let id = UpdateId {
            issuer: issued.msg.issuer,
            seq: issued.msg.seq,
        };
        // Recorded before any frame leaves: every apply of `id` anywhere
        // is then recorded after this issue, which is what makes a
        // snapshot taken under all shard locks a consistent cut.
        self.shard
            .lock()
            .push((nanos, NodeEvent::Issue { id, register }));
        let c = &self.counters;
        c.sent.fetch_add(issued.fanout, Ordering::SeqCst);
        c.wire_bytes.fetch_add(issued.wire_bytes, Ordering::Relaxed);
        self.send(&mut core.out);
        id
    }

    /// Crashes the engine (`restart == false`) or restarts it from its
    /// durable log — the one path for [`ThreadedCluster::crash`],
    /// [`ThreadedCluster::restart`] and the scripted timeline. Every
    /// write call has shipped its batches when it returned, so the crash
    /// loses no acknowledged write. A restart republishes from recovered
    /// state, so durable writes become snapshot-visible again at once.
    fn crash_or_restart(&self, restart: bool) {
        let mut core = self.core.lock();
        let now = self.now();
        let Core { engine, out } = &mut *core;
        if restart {
            if engine.restart(now, out) {
                self.crashed.store(false, Ordering::SeqCst);
                self.counters.restarts.fetch_add(1, Ordering::SeqCst);
                self.publish(engine);
            }
        } else if engine.crash(now, out) {
            self.crashed.store(true, Ordering::SeqCst);
        }
        self.ring_loop(&mut core);
    }

    /// Handles one frame: applies what it releases and records the
    /// applies. Returns how many there were.
    fn receive(&self, src: ReplicaId, frame: Frame) -> usize {
        let mut core = self.core.lock();
        let Core { engine, out } = &mut *core;
        if engine.is_crashed() {
            // A crashed node's NIC is dark: frames vanish. Bare frames
            // (no session) are permanent losses and must be accounted so
            // `settle` can still converge; session frames will be
            // retransmitted until after the restart.
            if let SessionFrame::Bare(b) = &frame {
                self.counters
                    .lost
                    .fetch_add(b.updates.len(), Ordering::SeqCst);
            }
            return 0;
        }
        let applied = engine.on_frame(src, frame, self.now(), out, |_| {});
        self.send(out);
        if !applied.is_empty() {
            let nanos = self.epoch.elapsed().as_nanos() as u64;
            self.shard.lock().extend(applied.iter().map(|a| {
                let id = UpdateId {
                    issuer: a.msg.issuer,
                    seq: a.msg.seq,
                };
                (nanos, NodeEvent::Apply { id })
            }));
        }
        applied.len()
    }
}

/// Moves a per-replica running total's change since `last` into the
/// cluster counter `ctr`, which every replica adds to.
fn roll(ctr: &AtomicUsize, last: &mut usize, now: usize) {
    if now > *last {
        ctr.fetch_add(now - *last, Ordering::SeqCst);
    } else if now < *last {
        ctr.fetch_sub(*last - now, Ordering::SeqCst);
    }
    *last = now;
}

/// How long a worker parks when none of its replicas has a session
/// timer or a scripted crash ahead. Nothing depends on the worker
/// passing at this period — every input pulls the park's timer in — it
/// only bounds what a wake-up lost to a bug could cost. Public so the
/// lost-wake-up regression test can name the cliff it looks for.
pub const IDLE_PARK: Duration = Duration::from_millis(50);

/// Frames a pass takes from one replica before it moves on; a replica
/// with more left is serviced again in the next pass, before any park.
const PASS_BUDGET: usize = 256;

/// One replica as its worker drives it: what the worker alone keeps of
/// it besides [`Shared`] — its scripted crashes and restarts still to
/// come, and its last contributions to the cluster's running counters.
struct Slot {
    shared: Arc<Shared>,
    script: VecDeque<(Instant, bool)>,
    pending: usize,
    retransmits: usize,
    demotions: usize,
}

impl Slot {
    fn new(shared: Arc<Shared>, schedule: &FaultSchedule) -> Self {
        let (epoch, id) = (shared.epoch, shared.net.id());
        let script = schedule
            .crash_timeline()
            .into_iter()
            .filter(|&(_, r, _)| r == id)
            .map(|(tick, _, restart)| (epoch + TICK * tick.min(u32::MAX as u64) as u32, restart))
            .collect();
        Slot {
            shared,
            script,
            pending: 0,
            retransmits: 0,
            demotions: 0,
        }
    }

    /// The earliest instant this replica needs its worker by, besides its
    /// frames: its next session timer or scripted crash.
    fn wake(&self) -> Option<Instant> {
        let script = self.script.front().map(|&(at, _)| at);
        script.into_iter().chain(self.shared.timer_at()).min()
    }

    /// One pass over this replica: `false` without touching its engine
    /// unless a frame, its session timer or a scripted crash is due.
    /// Otherwise it fires the due crashes and restarts, takes up to
    /// [`PASS_BUDGET`] frames (each under the engine lock, so a write
    /// waits for one frame at most), publishes once, ticks the engine
    /// (due session timers), records its next timer, and returns `true`.
    fn service(&mut self) -> bool {
        let shared = &*self.shared;
        if shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        let script_due = self.script.front().is_some_and(|&(at, _)| at <= now);
        let timer_due = shared.timer.load(Ordering::SeqCst) <= shared.now();
        let first = shared.net.try_recv();
        if !script_due && !timer_due && first.is_none() {
            return false;
        }
        shared.passes.fetch_add(1, Ordering::Relaxed);
        while let Some(&(_, restart)) = self.script.front().filter(|&&(at, _)| at <= now) {
            self.script.pop_front();
            shared.crash_or_restart(restart);
        }
        let applied: usize = first
            .into_iter()
            .chain(std::iter::from_fn(|| shared.net.try_recv()))
            .take(PASS_BUDGET)
            .map(|env| shared.receive(env.src, env.msg))
            .sum();
        let counters = &*shared.counters;
        let mut core = shared.core.lock();
        let Core { engine, out } = &mut *core;
        if applied > 0 {
            counters.applied.fetch_add(applied, Ordering::SeqCst);
            shared.publish(engine);
        }
        if !engine.is_crashed() {
            let pending = engine.replica().pending_count();
            roll(&counters.pending, &mut self.pending, pending);
            engine.tick(shared.now(), out);
            shared.send(out);
        }
        shared.note_timer(engine);
        let retx = engine.session_stats().map_or(0, |s| s.retransmits);
        roll(&counters.retransmits, &mut self.retransmits, retx);
        let demotions = engine.codec_stats().demotions;
        roll(&counters.demotions, &mut self.demotions, demotions);
        true
    }
}

/// A worker of the pool — the one loop every configuration runs (batched
/// or not, durable or not, `ThreadNet` or TCP, crash-bearing or not). It
/// owns what the write calls do not: its replicas' frames from the
/// network, their session timers, their scripted crashes and the park.
///
/// Each pass [services](Slot::service) every owned replica that has
/// something due, in replica order. A pass that serviced none parks the
/// worker on its bell until the earliest of its replicas' next frames
/// (read from their transports' [`next_due`](Transport::next_due)),
/// session timers and scripted crashes — one wake per due instant, how
/// many replicas' frames fall due at it. The park ends early only when
/// the bell's timer is pulled in: by a frame's due instant (`ThreadNet`),
/// a delivery (TCP), a write's session timer, or `stop`. A ring that
/// lands before the park is folded into it, so none is slept through.
/// The worker exits once every replica it owns is stopped.
fn worker_main(worker: &Worker, mut slots: Vec<Slot>) {
    loop {
        let mut worked = false;
        for slot in &mut slots {
            worked |= slot.service();
        }
        if slots.iter().all(|s| s.shared.stop.load(Ordering::SeqCst)) {
            for s in &slots {
                s.shared.passes.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if worked {
            continue;
        }
        let deadline = slots
            .iter()
            .filter_map(Slot::wake)
            .min()
            .unwrap_or_else(|| Instant::now() + IDLE_PARK);
        worker.bell.park(deadline, || {
            slots.iter().filter_map(|s| s.shared.net.next_due()).min()
        });
        worker.wakes.fetch_add(1, Ordering::Relaxed);
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
    fn a_write_to_an_unstored_register_panics_in_the_caller() {
        // path(2) stores only x0; the bad write must panic here, not kill
        // replica 0's thread.
        let cluster = ThreadedCluster::new(topology::path(2), DelayModel::Fixed(0), 1);
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.write(r(0), x(5), Value::from(1u64))
        }));
        assert!(bad.is_err(), "a write to an unstored register must panic");
        assert!(cluster.try_write(r(0), x(0), Value::from(2u64)).is_ok());
    }

    #[test]
    fn listeners_must_be_distinct_replicas_of_the_graph() {
        let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
        let bind = |i| BoundListener::bind(r(i), loopback).expect("bind loopback");
        for listeners in [vec![bind(2)], vec![bind(0), bind(0)]] {
            let err = ThreadedCluster::with_listeners(
                topology::path(2),
                ClusterConfig::default(),
                TcpNetConfig::default(),
                listeners,
                &[loopback; 2],
            )
            .expect_err("path(2) has replicas 0 and 1, one listener each");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn merge_reorders_applies_after_issues() {
        // Replica 0's log starts with an apply of replica 1's update —
        // the round-robin merge must hold it back until replica 1's issue
        // is placed (logs are indexed by replica id, and replica 0 is
        // visited first).
        let u = UpdateId {
            issuer: r(1),
            seq: 0,
        };
        let logs = [
            vec![NodeEvent::Apply { id: u }],
            vec![NodeEvent::Issue {
                id: u,
                register: x(0),
            }],
        ];
        let trace = merge_node_events(&logs);
        assert_eq!(trace.num_updates(), 1);
        let g = topology::path(2);
        assert!(check(&trace, g.placement()).is_consistent());
    }

    #[test]
    #[should_panic(expected = "issue never appears")]
    fn merge_rejects_orphan_apply() {
        let u = UpdateId {
            issuer: r(0),
            seq: 7,
        };
        merge_node_events(&[vec![NodeEvent::Apply { id: u }]]);
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

    /// The pool sizes every host runs: every replica on one worker (a
    /// single core) and one worker per replica.
    fn pool_sizes(g: &ShareGraph) -> [usize; 2] {
        [1, g.num_replicas()]
    }

    #[test]
    fn no_round_trip_waits_out_the_idle_park_on_any_pool_size() {
        let g = topology::ring(4);
        for workers in pool_sizes(&g) {
            let cluster = ThreadedCluster::with_workers(
                g.clone(),
                DelayModel::Fixed(1),
                3,
                ClusterConfig::default(),
                workers,
            );
            let mut slow = Vec::new();
            for k in 0..400u64 {
                let writer = r((k % 4) as u32);
                let t = Instant::now();
                let uid = cluster.write(writer, x(writer.raw()), Value::from(k));
                for &h in g.placement().holders(x(writer.raw())) {
                    while !cluster.store_snapshot(h).covers(uid) {
                        assert!(t.elapsed() < Duration::from_secs(30), "{uid} lost");
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                if t.elapsed() > IDLE_PARK / 2 {
                    slow.push((k, t.elapsed()));
                }
            }
            assert!(
                slow.len() <= 2,
                "{workers} workers: round trips waited out the idle park: {slow:?}"
            );
        }
    }

    #[test]
    fn a_scripted_crash_heals_with_a_session_on_any_pool_size() {
        let g = topology::ring(3);
        for workers in pool_sizes(&g) {
            let cluster = ThreadedCluster::with_workers(
                g.clone(),
                DelayModel::Fixed(1),
                5,
                ClusterConfig {
                    schedule: FaultSchedule::none().crash(r(1), 25, 500),
                    session: fast_session(),
                    ..ClusterConfig::default()
                },
                workers,
            );
            std::thread::sleep(Duration::from_millis(50));
            assert!(cluster.is_crashed(r(1)), "{workers} workers: no crash");
            for k in 0..5u64 {
                cluster.write(r(0), x(0), Value::from(k));
            }
            std::thread::sleep(Duration::from_millis(120));
            assert!(!cluster.is_crashed(r(1)), "{workers} workers: no restart");
            cluster.settle();
            assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(4u64)));
            assert_eq!(cluster.total_restarts(), 1);
            let rep = cluster.check();
            assert!(
                rep.is_consistent(),
                "{workers} workers: {:?}",
                rep.violations
            );
        }
    }

    #[test]
    fn concurrent_writers_stay_consistent_on_any_pool_size() {
        let g = topology::ring(5);
        for workers in pool_sizes(&g) {
            let cluster = ThreadedCluster::with_workers(
                g.clone(),
                DelayModel::Uniform { min: 0, max: 5 },
                7,
                ClusterConfig::default(),
                workers,
            );
            std::thread::scope(|s| {
                for i in 0..5u32 {
                    let c = &cluster;
                    s.spawn(move || {
                        for round in 0..40u64 {
                            c.write(r(i), x(i), Value::from(round));
                        }
                    });
                }
            });
            cluster.settle();
            let rep = cluster.check();
            assert!(
                rep.is_consistent(),
                "{workers} workers: {:?}",
                rep.violations
            );
            assert_eq!(cluster.total_applied(), 5 * 40);
            assert_eq!(cluster.read(r(1), x(0)), Some(Value::from(39u64)));
        }
    }

    #[test]
    fn frames_that_fall_due_together_cost_one_wake() {
        // clique_full(4, 1): every replica stores x0, so a write at r0
        // ships a frame to each of r1..r3, and the three fall due
        // together. On one worker they cost it one wake, not three. Each
        // write waits for the last one's frames, so no two writes share
        // a wake.
        let cluster = ThreadedCluster::with_workers(
            topology::clique_full(4, 1),
            DelayModel::Fixed(1),
            1,
            ClusterConfig::default(),
            1,
        );
        std::thread::sleep(Duration::from_millis(20));
        let before = cluster.worker_wakes(0);
        let t = Instant::now();
        for k in 0..200u64 {
            cluster.write(r(0), x(0), Value::from(k));
            while cluster.total_applied() < 3 * (k as usize + 1) {
                assert!(t.elapsed() < Duration::from_secs(30), "frames lost");
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        let elapsed = t.elapsed();
        let wakes = cluster.worker_wakes(0) - before;
        let bound = 200 + 3 + (elapsed.as_secs_f64() / IDLE_PARK.as_secs_f64()) as u64;
        assert!(
            wakes <= bound,
            "200 writes of 3 frames each woke the worker {wakes} times over \
             {elapsed:?} (at most {bound})"
        );
    }
}
