//! A high-throughput client-serving tier over [`ThreadedCluster`].
//!
//! The paper's client-server extension (§6) lets clients roam between
//! replicas while keeping the session guarantees implied by causal
//! consistency. The lockstep [`ClientServerSystem`](crate::ClientServerSystem)
//! reproduces that protocol faithfully — one client timestamp `μ_c`
//! advanced and merged per request — but serves one request per
//! simulated round. This module is the *deployment-shaped* counterpart:
//! tens of thousands of concurrent sessions multiplexed onto the
//! threaded cluster, engineered so the common case touches no replica
//! lock at all.
//!
//! # Architecture
//!
//! * **Sharded session tables.** Per-session guarantee state lives in
//!   64 lock-striped shards keyed by session id. A session's state is
//!   a handful of per-register dependencies
//!   ([`ServingConfig::dep_cap`]-bounded), *not* a per-op log — state
//!   stays O(1) in the number of ops issued.
//! * **Partial-replication-aware routing.** Each session attaches to a
//!   deterministic window of [`ServingConfig::attach_span`] replicas
//!   (its `R_c`). An op routes to the first attach replica storing the
//!   register; a register stored nowhere in the window detours to an
//!   arbitrary holder — the analogue of the paper's routed-update path —
//!   and is counted in [`ServingStats::ops_forwarded`].
//! * **Lock-free guarantee enforcement.** Replicas publish an immutable
//!   [`ReplicaView`] (store + provenance + applied frontier) on every
//!   state change. A read is served from the first candidate whose
//!   frontier *covers* both components of the session's dependency on
//!   that register — read-your-writes and monotonic reads hold by the
//!   covering argument below, and the read never takes a replica's
//!   engine lock.
//! * **A write completes in the call.** [`ServingWorker::write`] routes
//!   the op and issues it with [`ThreadedCluster::try_write`] on the
//!   worker's own thread: the write is issued, snapshot-visible at its
//!   replica and shipped when the call returns, and the session's
//!   dependency on it is recorded before the session's next op routes.
//!   No buffer, completion channel or park sits between a client write
//!   and its acknowledgement.
//! * **Fault tolerance.** When a session's target replica is inside a
//!   crash window the op fails over to another live holder — reads via
//!   [`route_live`] candidate skipping, writes via bounded re-route
//!   retries of crash rejections — and the session's portable
//!   dependency state makes the guarantees hold across the move. Ops
//!   that cannot be served degrade to typed [`ServingError`]s (never a
//!   panic): a read blocked past [`ServingConfig::op_timeout`], or every
//!   holder down.
//!
//! # Why covering is sound
//!
//! Let `d` be the session's dependency on register `x` (its own last
//! write and last observation, both updates *on `x`*). Every serving
//! candidate for `x` stores `x`. If the candidate's published frontier
//! covers `d`, the candidate has applied `d`; causal delivery means no
//! update happened-before `d` can be applied after it, and writes to one
//! register are applied in causal order — so the candidate's published
//! value of `x` is never causally older than `d`. Observing it violates
//! neither read-your-writes nor monotonic reads. The verdict is checked
//! from the trace, not trusted: drive the tier, then hand its recorded
//! [`SessionEvent`]s to [`check_sessions`](prcc_checker::check_sessions).

use crate::runtime::{ReplicaView, ThreadedCluster};
use crate::stats::LatencyStats;
use crate::value::Value;
use parking_lot::Mutex;
use prcc_checker::{SessionEvent, UpdateId};
use prcc_sharegraph::{ClientId, RegisterId, ReplicaId, ShareGraph};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock stripes in the session table. More stripes, less contention
/// between workers that share sessions (workers with disjoint session
/// sets never contend regardless).
const TABLE_SHARDS: usize = 64;

/// Re-route attempts for a write rejected by a crashed (or shut-down)
/// replica before the (never-acked) write is abandoned.
const MAX_RETRIES: u32 = 3;

/// First step of the deterministic exponential backoff used while an op
/// blocks (doubles per attempt, capped at one millisecond).
const BACKOFF_BASE: Duration = Duration::from_micros(5);

/// Tuning knobs for a [`ServingTier`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Replicas per session attach set `R_c` (clamped to the cluster
    /// size).
    pub attach_span: usize,
    /// Soft cap on per-session dependency entries. Above it, entries
    /// every holder already covers are evicted (they can never block a
    /// future read). Uncovered entries are *never* dropped — the cap
    /// bounds memory without weakening guarantees.
    pub dep_cap: usize,
    /// How long a read may block on a dependency no live candidate
    /// covers yet, counted from the call, before it degrades to
    /// [`ServingError::Timeout`] (or [`ServingError::ReplicaCrashed`]
    /// when every candidate is down) instead of wedging the worker.
    pub op_timeout: Duration,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            attach_span: 2,
            dep_cap: 64,
            op_timeout: Duration::from_secs(30),
        }
    }
}

/// Why the serving tier could not serve an op — the panic-free
/// degradation surface. Callers decide whether to retry, shed the
/// client request, or fail it upward; the tier stays live either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// A read stayed blocked past [`ServingConfig::op_timeout`]: its
    /// dependency never became covered.
    Timeout {
        /// The register the op targeted.
        register: RegisterId,
    },
    /// Every replica that could serve the op is inside a crash window
    /// (or, for a write, stayed down through its re-routes).
    ReplicaCrashed {
        /// The op's preferred (fault-free) target.
        replica: ReplicaId,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Timeout { register } => {
                write!(f, "op on {register} timed out waiting for coverage")
            }
            ServingError::ReplicaCrashed { replica } => {
                write!(f, "every holder reachable from {replica} is crashed")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// One session's dependency on one register: the update produced by the
/// session's last write of it, and the update observed by its last read
/// of it. A read of the register is safe at any replica whose view
/// covers *both* (a newer observation must not stand in for the
/// session's own write — the two may be concurrent).
#[derive(Debug, Clone, Copy, Default)]
struct Dep {
    wrote: Option<UpdateId>,
    read: Option<UpdateId>,
}

impl Dep {
    fn covered_by(&self, view: &ReplicaView) -> bool {
        self.wrote.is_none_or(|u| view.covers(u)) && self.read.is_none_or(|u| view.covers(u))
    }
}

/// Per-session guarantee state: its register dependencies. Bounded by
/// [`ServingConfig::dep_cap`] plus whatever is still uncovered — O(1) in
/// ops issued.
#[derive(Debug, Default)]
struct SessionState {
    deps: HashMap<RegisterId, Dep>,
}

/// Monotonic counters the tier exposes; see [`ServingStats`] for the
/// snapshot shape.
#[derive(Debug, Default)]
struct TierCounters {
    ops_routed_local: AtomicU64,
    ops_forwarded: AtomicU64,
    ryw_blocks: AtomicU64,
    mr_blocks: AtomicU64,
    dep_evictions: AtomicU64,
    failovers: AtomicU64,
    op_timeouts: AtomicU64,
    writes_abandoned: AtomicU64,
}

/// A point-in-time snapshot of serving-tier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Ops served inside the session's attach set.
    pub ops_routed_local: u64,
    /// Ops detoured to a holder outside the attach set (the register is
    /// not stored anywhere in `R_c` — the routed-update analogue).
    pub ops_forwarded: u64,
    /// Reads that found the session's own-write dependency uncovered at
    /// the primary candidate and had to fall over or wait.
    pub ryw_blocks: u64,
    /// Reads blocked on the observation (monotonic-reads) dependency
    /// instead.
    pub mr_blocks: u64,
    /// Dependency entries evicted because every holder already covered
    /// them.
    pub dep_evictions: u64,
    /// Ops re-routed away from a crashed replica to another live holder
    /// in (or beyond) the session's attach window.
    pub failovers: u64,
    /// Always 0: a write completes inside its call, so the tier has no
    /// queue to shed from. Kept for readers of the counter set.
    pub ops_shed: u64,
    /// Reads that degraded to a typed error at
    /// [`ServingConfig::op_timeout`].
    pub op_timeouts: u64,
    /// Writes abandoned after three re-routes of crash rejections, or
    /// with no live holder left after a rejection — never acked, so no
    /// guarantee covers them.
    pub writes_abandoned: u64,
}

/// What one worker (or the whole run, after merging) collected:
/// the served-op event log for checking plus client-visible latency.
#[derive(Debug, Default)]
pub struct Collected {
    /// Served ops in per-session order — feed to
    /// [`check_sessions`](prcc_checker::check_sessions).
    pub events: Vec<SessionEvent>,
    /// Client-visible read latency (nanoseconds).
    pub read_lat: LatencyStats,
    /// Client-visible write latency (nanoseconds; call to
    /// snapshot-visible at the serving replica).
    pub write_lat: LatencyStats,
    /// Client-visible latency of ops that failed over to a non-preferred
    /// replica (nanoseconds) — the cost of riding out a crash window.
    pub failover_lat: LatencyStats,
    /// Total ops served (acked).
    pub ops: u64,
    /// Ops that entered the tier but timed out or were abandoned before
    /// acking. Never recorded as events: the checker owes them nothing.
    pub failed: u64,
}

impl Collected {
    /// Folds another worker's collection into this one. Event order
    /// within a session is preserved because each session is owned by
    /// exactly one worker; interleaving between sessions is irrelevant
    /// to the checker.
    pub fn absorb(&mut self, other: Collected) {
        self.events.extend(other.events);
        self.read_lat.absorb(other.read_lat);
        self.write_lat.absorb(other.write_lat);
        self.failover_lat.absorb(other.failover_lat);
        self.ops += other.ops;
        self.failed += other.failed;
    }
}

/// The deterministic attach set `R_c` of session `sid`: a window of
/// `span` consecutive replicas starting at `sid mod n`. Public so the
/// lockstep oracle can reproduce the tier's routing exactly.
pub fn attach_set(sid: u64, num_replicas: usize, span: usize) -> Vec<ReplicaId> {
    let n = num_replicas as u64;
    let span = span.clamp(1, num_replicas);
    (0..span as u64)
        .map(|k| ReplicaId::new(((sid + k) % n) as u32))
        .collect()
}

/// Routes one op of session `sid` on register `x`: the first attach
/// replica storing `x`, else an arbitrary holder (`local == false` — the
/// forwarded detour). Public for oracle reuse.
///
/// # Panics
///
/// Panics if no replica holds `x`.
pub fn route(graph: &ShareGraph, sid: u64, span: usize, x: RegisterId) -> (ReplicaId, bool) {
    route_live(graph, sid, span, x, |_| false).expect("register has a holder")
}

/// Routes like [`route`] but skips replicas `is_down` reports dead —
/// the serving tier's failover path. Agrees with [`route`] whenever the
/// preferred target is up; returns `None` when every holder of `x` is
/// down (nothing can serve the op right now).
pub fn route_live(
    graph: &ShareGraph,
    sid: u64,
    span: usize,
    x: RegisterId,
    is_down: impl Fn(ReplicaId) -> bool,
) -> Option<(ReplicaId, bool)> {
    let p = graph.placement();
    for r in attach_set(sid, graph.num_replicas(), span) {
        if p.stores(r, x) && !is_down(r) {
            return Some((r, true));
        }
    }
    p.holders(x)
        .iter()
        .copied()
        .find(|&h| !is_down(h))
        .map(|h| (h, false))
}

/// A serving tier multiplexing many client sessions onto a borrowed
/// [`ThreadedCluster`]. Shared by reference across worker threads; all
/// hot-path state is either striped, atomic, or worker-local.
///
/// # Examples
///
/// ```
/// use prcc_core::serving::{ServingConfig, ServingTier};
/// use prcc_core::runtime::ThreadedCluster;
/// use prcc_core::Value;
/// use prcc_net::DelayModel;
/// use prcc_sharegraph::{topology, RegisterId};
///
/// let cluster = ThreadedCluster::new(topology::clique_full(4, 2), DelayModel::Fixed(1), 7);
/// let tier = ServingTier::new(&cluster, ServingConfig::default());
/// let mut w = tier.worker();
/// w.write(3, RegisterId::new(0), Value::from(9u64)).unwrap();
/// let (v, _) = w.read(3, RegisterId::new(0), 0).unwrap();
/// assert_eq!(v, Some(Value::from(9u64)));
/// let collected = w.finish();
/// assert_eq!(collected.ops, 2);
/// ```
#[derive(Debug)]
pub struct ServingTier<'c> {
    cluster: &'c ThreadedCluster,
    cfg: ServingConfig,
    shards: Vec<Mutex<HashMap<u64, SessionState>>>,
    counters: TierCounters,
}

impl<'c> ServingTier<'c> {
    /// Builds a tier over `cluster`.
    pub fn new(cluster: &'c ThreadedCluster, cfg: ServingConfig) -> Self {
        let shards = (0..TABLE_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        ServingTier {
            cluster,
            cfg,
            shards,
            counters: TierCounters::default(),
        }
    }

    /// The tier's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// A snapshot of the tier counters.
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            ops_routed_local: self.counters.ops_routed_local.load(Ordering::Relaxed),
            ops_forwarded: self.counters.ops_forwarded.load(Ordering::Relaxed),
            ryw_blocks: self.counters.ryw_blocks.load(Ordering::Relaxed),
            mr_blocks: self.counters.mr_blocks.load(Ordering::Relaxed),
            dep_evictions: self.counters.dep_evictions.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            ops_shed: 0,
            op_timeouts: self.counters.op_timeouts.load(Ordering::Relaxed),
            writes_abandoned: self.counters.writes_abandoned.load(Ordering::Relaxed),
        }
    }

    /// Creates a worker handle. Spawn one per driver thread; a session
    /// must be driven by a single worker at a time (its ops need a
    /// service order).
    pub fn worker(&self) -> ServingWorker<'c, '_> {
        ServingWorker {
            tier: self,
            out: Collected::default(),
        }
    }

    fn shard_of(&self, sid: u64) -> &Mutex<HashMap<u64, SessionState>> {
        &self.shards[(sid as usize) % self.shards.len()]
    }

    /// Runs `f` on the session's state (created on first touch).
    fn with_session<T>(&self, sid: u64, f: impl FnOnce(&mut SessionState) -> T) -> T {
        let mut shard = self.shard_of(sid).lock();
        f(shard.entry(sid).or_default())
    }

    /// Evicts dependency entries every holder of their register already
    /// covers — such entries can never block a future read, so dropping
    /// them is guarantee-preserving. Called when a session exceeds
    /// [`ServingConfig::dep_cap`].
    fn evict_covered(&self, state: &mut SessionState) {
        let p = self.cluster.graph().placement();
        let mut views: HashMap<ReplicaId, Arc<ReplicaView>> = HashMap::new();
        let before = state.deps.len();
        state.deps.retain(|&x, dep| {
            !p.holders(x).iter().all(|&h| {
                let v = views
                    .entry(h)
                    .or_insert_with(|| self.cluster.store_snapshot(h));
                dep.covered_by(v)
            })
        });
        let evicted = (before - state.deps.len()) as u64;
        if evicted > 0 {
            self.counters
                .dep_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// One driver thread's handle onto the tier: thread-local event and
/// latency collection. Created by [`ServingTier::worker`]; call
/// [`finish`](Self::finish) when done to collect.
#[derive(Debug)]
pub struct ServingWorker<'c, 't> {
    tier: &'t ServingTier<'c>,
    out: Collected,
}

impl ServingWorker<'_, '_> {
    /// Serves a write for session `sid`: routes it (failing over past a
    /// crashed preferred target), issues it at the target on this
    /// thread, and records the session's dependency on it, its event and
    /// its latency before returning. A write the target rejects because
    /// it crashed (or shut down) after routing is re-routed to a live
    /// holder after a short backoff, at most `MAX_RETRIES` times.
    /// [`ServingError::ReplicaCrashed`] when no holder is up, or the
    /// write was abandoned.
    pub fn write(&mut self, sid: u64, x: RegisterId, v: Value) -> Result<(), ServingError> {
        let started = Instant::now();
        let tier = self.tier;
        let cluster = tier.cluster;
        let graph = cluster.graph();
        let span = tier.cfg.attach_span;
        let (preferred, mut local) = route(graph, sid, span, x);
        let mut target = preferred;
        let mut failed_over = false;
        if cluster.is_crashed(preferred) {
            let Some((alt, alt_local)) = route_live(graph, sid, span, x, |r| cluster.is_crashed(r))
            else {
                return Err(ServingError::ReplicaCrashed { replica: preferred });
            };
            tier.counters.failovers.fetch_add(1, Ordering::Relaxed);
            (target, local, failed_over) = (alt, alt_local, true);
        }
        let ctr = if local {
            &tier.counters.ops_routed_local
        } else {
            &tier.counters.ops_forwarded
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        let mut attempts = 0;
        let uid = loop {
            // `Crashed` and `Disconnected` both mean "not issued here".
            if let Ok(uid) = cluster.try_write(target, x, v.clone()) {
                break uid;
            }
            attempts += 1;
            failed_over = true;
            let rerouted = (attempts <= MAX_RETRIES)
                .then(|| route_live(graph, sid, span, x, |r| cluster.is_crashed(r)))
                .flatten();
            let Some((alt, _)) = rerouted else {
                tier.counters
                    .writes_abandoned
                    .fetch_add(1, Ordering::Relaxed);
                self.out.failed += 1;
                return Err(ServingError::ReplicaCrashed { replica: preferred });
            };
            tier.counters.failovers.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff(attempts));
            target = alt;
        };
        tier.with_session(sid, |s| {
            let d = s.deps.entry(x).or_default();
            // The session's own write is also its latest observation
            // (mirrors the checker's semantics).
            d.wrote = Some(uid);
            d.read = Some(uid);
            if s.deps.len() > tier.cfg.dep_cap {
                tier.evict_covered(s);
            }
        });
        self.out.events.push(SessionEvent::Write {
            client: ClientId::new(sid as u32),
            update: uid,
            register: x,
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        self.out.write_lat.record(elapsed);
        if failed_over {
            self.out.failover_lat.record(elapsed);
        }
        self.out.ops += 1;
        Ok(())
    }

    /// Serves a read for session `sid` on register `x`, returning the
    /// value and which replica served it. `roam` rotates the preferred
    /// candidate among the attach replicas storing `x`, modelling a
    /// client roaming within its `R_c`.
    ///
    /// The fast path is entirely lock-free past the session-table
    /// stripe: candidates' published [`ReplicaView`]s are checked for
    /// dependency covering; the first covering view serves. Crashed
    /// candidates are skipped — the failover path — and if no live view
    /// covers (an observed update still in flight to this candidate),
    /// the read backs off exponentially — never enqueues — until one
    /// does, up to [`ServingConfig::op_timeout`] after the call.
    pub fn read(
        &mut self,
        sid: u64,
        x: RegisterId,
        roam: u64,
    ) -> Result<(Option<Value>, ReplicaId), ServingError> {
        // Client-visible: latency and the timeout both run from the call.
        let started = Instant::now();
        let deadline = started + self.tier.cfg.op_timeout;
        let tier = self.tier;
        let graph = tier.cluster.graph();
        let p = graph.placement();
        // Candidate order: attach replicas storing x (rotated by roam),
        // then every holder (the forwarded detour).
        let mut candidates: Vec<(ReplicaId, bool)> = Vec::new();
        let attach: Vec<ReplicaId> = attach_set(sid, graph.num_replicas(), tier.cfg.attach_span)
            .into_iter()
            .filter(|&r| p.stores(r, x))
            .collect();
        if !attach.is_empty() {
            let start = (roam as usize) % attach.len();
            for k in 0..attach.len() {
                candidates.push((attach[(start + k) % attach.len()], true));
            }
        }
        for &h in p.holders(x) {
            if !candidates.iter().any(|&(c, _)| c == h) {
                candidates.push((h, false));
            }
        }
        let dep = tier.with_session(sid, |s| s.deps.get(&x).copied().unwrap_or_default());
        let mut blocked = false;
        let mut attempt = 0u32;
        let failed_over;
        let (view, server, local) = loop {
            let mut served = None;
            let mut skipped_preferred = false;
            for (i, &(r, local)) in candidates.iter().enumerate() {
                if tier.cluster.is_crashed(r) {
                    skipped_preferred |= i == 0;
                    continue;
                }
                let view = tier.cluster.store_snapshot(r);
                if dep.covered_by(&view) {
                    served = Some((view, r, local));
                    break;
                }
            }
            if let Some(hit) = served {
                failed_over = skipped_preferred;
                break hit;
            }
            if !blocked {
                blocked = true;
                // Classify the stall once: own-write dependency still in
                // flight is a read-your-writes block, otherwise the
                // observation (monotonic-reads) dependency is behind.
                let primary = tier.cluster.store_snapshot(candidates[0].0);
                let ctr = if dep.wrote.is_some_and(|u| !primary.covers(u)) {
                    &tier.counters.ryw_blocks
                } else {
                    &tier.counters.mr_blocks
                };
                ctr.fetch_add(1, Ordering::Relaxed);
            }
            if Instant::now() >= deadline {
                tier.counters.op_timeouts.fetch_add(1, Ordering::Relaxed);
                self.out.failed += 1;
                return Err(
                    if candidates.iter().all(|&(r, _)| tier.cluster.is_crashed(r)) {
                        ServingError::ReplicaCrashed {
                            replica: candidates[0].0,
                        }
                    } else {
                        ServingError::Timeout { register: x }
                    },
                );
            }
            std::thread::sleep(backoff(attempt));
            attempt += 1;
        };
        let ctr = if local {
            &tier.counters.ops_routed_local
        } else {
            &tier.counters.ops_forwarded
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        let value = view.get(&x).cloned();
        let observed = if value.is_some() {
            view.source_of(x)
        } else {
            None
        };
        if let Some(obs) = observed {
            tier.with_session(sid, |s| {
                s.deps.entry(x).or_default().read = Some(obs);
                if s.deps.len() > tier.cfg.dep_cap {
                    tier.evict_covered(s);
                }
            });
        }
        self.out.events.push(SessionEvent::Read {
            client: ClientId::new(sid as u32),
            register: x,
            observed,
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        self.out.read_lat.record(elapsed);
        if failed_over {
            tier.counters.failovers.fetch_add(1, Ordering::Relaxed);
            self.out.failover_lat.record(elapsed);
        }
        self.out.ops += 1;
        Ok((value, server))
    }

    /// A no-op, kept for drivers that mark the end of a quantum: every
    /// write completes inside [`write`](Self::write), so nothing waits
    /// to be shipped.
    pub fn flush(&mut self) {}

    /// A no-op, kept for drivers that poll between ops: a write's
    /// completion is recorded before [`write`](Self::write) returns.
    pub fn poll(&mut self) {}

    /// Returns everything this worker collected.
    pub fn finish(self) -> Collected {
        self.out
    }
}

/// Deterministic exponential backoff: `BACKOFF_BASE << attempt`, capped
/// at one millisecond so a long stall keeps probing often enough to
/// notice a restart promptly.
fn backoff(attempt: u32) -> Duration {
    (BACKOFF_BASE * (1u32 << attempt.min(8))).min(Duration::from_millis(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_net::DelayModel;
    use prcc_sharegraph::topology;

    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn attach_set_is_deterministic_window() {
        assert_eq!(
            attach_set(6, 4, 2),
            vec![ReplicaId::new(2), ReplicaId::new(3)]
        );
        assert_eq!(
            attach_set(3, 4, 2),
            vec![ReplicaId::new(3), ReplicaId::new(0)]
        );
        // Span clamps to the cluster.
        assert_eq!(attach_set(0, 2, 5).len(), 2);
    }

    #[test]
    fn routing_prefers_attach_then_detours() {
        // ring(4): register i is shared by replicas i and i+1 mod 4.
        let g = topology::ring(4);
        // Session 0 attaches to {0, 1}; register 1 is stored at 1 — local.
        let (r, local) = route(&g, 0, 2, x(1));
        assert!(local);
        assert_eq!(r, ReplicaId::new(1));
        // Register 2 is stored at {2, 3}, outside session 0's window.
        let (r, local) = route(&g, 0, 2, x(2));
        assert!(!local);
        assert!(g.placement().stores(r, x(2)));
    }

    #[test]
    fn read_your_writes_through_the_tier() {
        let cluster = ThreadedCluster::new(topology::clique_full(4, 8), DelayModel::Fixed(1), 11);
        let tier = ServingTier::new(&cluster, ServingConfig::default());
        let mut w = tier.worker();
        for k in 0..50u64 {
            // One register per session: with no concurrent writer, a
            // session's read must return exactly its own last write (the
            // write's completion lands in the dependency set before the
            // read routes).
            let sid = k % 7;
            w.write(sid, x(sid as u32), Value::from(k)).unwrap();
            let (v, _) = w.read(sid, x(sid as u32), k).unwrap();
            assert_eq!(v, Some(Value::from(k)));
        }
        let collected = w.finish();
        assert_eq!(collected.ops, 100);
        assert_eq!(collected.events.len(), 100);
        cluster.settle();
        assert!(cluster.check().is_consistent());
        let trace = cluster.trace_snapshot();
        assert!(prcc_checker::check_sessions(&trace, &collected.events).is_empty());
    }

    #[test]
    fn forwarded_ops_are_counted() {
        // path(3): replica 0 stores {0}, 1 stores {0,1,2}... actually
        // path placement: replica i stores registers of its incident
        // edges. Session 0 attaches to {0,1}; find a register outside.
        let g = topology::ring(6);
        let cluster = ThreadedCluster::new(g, DelayModel::Fixed(1), 3);
        let tier = ServingTier::new(&cluster, ServingConfig::default());
        let mut w = tier.worker();
        // Register 3 is held by replicas {2,3}, outside session 0's
        // attach window {0,1}.
        w.write(0, x(3), Value::from(1u64)).unwrap();
        let (v, _) = w.read(0, x(3), 0).unwrap();
        assert_eq!(v, Some(Value::from(1u64)));
        w.finish();
        let stats = tier.stats();
        assert_eq!(stats.ops_forwarded, 2);
        assert_eq!(stats.ops_routed_local, 0);
    }

    #[test]
    fn session_state_stays_bounded() {
        // Deterministic by construction: session 0 fills its dependency
        // table exactly to the cap (no sweep runs at or below it), the
        // cluster settles so every holder covers those entries, and one
        // over-cap read must then sweep them.
        let cluster = ThreadedCluster::new(topology::clique_full(4, 8), DelayModel::Fixed(0), 5);
        let cfg = ServingConfig {
            dep_cap: 4,
            ..ServingConfig::default()
        };
        let cap = cfg.dep_cap;
        let tier = ServingTier::new(&cluster, cfg);
        let mut w = tier.worker();
        // Session 1 writes the register session 0 reads past its cap.
        let past_cap = x(cap as u32);
        w.write(1, past_cap, Value::from(0u64)).unwrap();
        for k in 0..cap as u32 {
            w.write(0, x(k), Value::from(u64::from(k))).unwrap();
        }
        assert_eq!(tier.with_session(0, |s| s.deps.len()), cap);
        assert_eq!(tier.stats().dep_evictions, 0);
        cluster.settle();
        let (v, _) = w.read(0, past_cap, 0).unwrap();
        assert_eq!(v, Some(Value::from(0u64)));
        let entries = tier.with_session(0, |s| s.deps.len());
        assert!(entries <= cap, "deps grew to {entries}");
        assert!(tier.stats().dep_evictions > 0);
        let collected = w.finish();
        let trace = cluster.trace_snapshot();
        assert!(prcc_checker::check_sessions(&trace, &collected.events).is_empty());
    }

    #[test]
    fn concurrent_workers_preserve_session_guarantees() {
        let cluster = ThreadedCluster::new(topology::clique_full(4, 4), DelayModel::Fixed(1), 17);
        let tier = ServingTier::new(&cluster, ServingConfig::default());
        let collected = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|wid| {
                    let tier = &tier;
                    s.spawn(move || {
                        let mut w = tier.worker();
                        for k in 0..200u64 {
                            // Worker wid owns sessions {wid, wid+4, ...}.
                            let sid = wid + 4 * (k % 3);
                            if k % 4 == 0 {
                                w.write(sid, x((k % 4) as u32), Value::from(wid * 1000 + k))
                                    .unwrap();
                            } else {
                                w.read(sid, x((k % 4) as u32), k).unwrap();
                            }
                        }
                        w.finish()
                    })
                })
                .collect();
            let mut all = Collected::default();
            for h in handles {
                all.absorb(h.join().expect("worker"));
            }
            all
        });
        assert_eq!(collected.ops, 800);
        cluster.settle();
        assert!(cluster.check().is_consistent());
        let trace = cluster.trace_snapshot();
        assert!(
            prcc_checker::check_sessions(&trace, &collected.events).is_empty(),
            "session guarantees violated"
        );
    }

    #[test]
    fn ops_fail_over_when_preferred_replica_crashes() {
        // Session layer armed: updates shipped into the crash window are
        // retransmitted after the restart, so the cluster still settles.
        let cluster = ThreadedCluster::with_config(
            topology::clique_full(3, 2),
            DelayModel::Fixed(1),
            9,
            crate::runtime::ClusterConfig {
                durability: Some(8),
                session: Some(prcc_net::SessionConfig {
                    rto_base: 10,
                    rto_max: 80,
                    jitter: 3,
                    ack_delay: 0,
                }),
                ..crate::runtime::ClusterConfig::default()
            },
        );
        let tier = ServingTier::new(&cluster, ServingConfig::default());
        let mut w = tier.worker();
        let (preferred, _) = route(cluster.graph(), 0, 2, x(0));
        cluster.crash(preferred);
        for k in 0..10u64 {
            w.write(0, x(0), Value::from(k)).unwrap();
            let (v, server) = w.read(0, x(0), 0).unwrap();
            assert_eq!(v, Some(Value::from(k)));
            assert_ne!(server, preferred, "read served by a crashed replica");
        }
        let collected = w.finish();
        assert_eq!(collected.ops, 20);
        assert_eq!(collected.failed, 0);
        assert!(!collected.failover_lat.is_empty());
        let stats = tier.stats();
        assert!(stats.failovers > 0, "no failover counted: {stats:?}");
        assert_eq!(stats.writes_abandoned, 0);
        cluster.restart(preferred);
        cluster.settle();
        let trace = cluster.trace_snapshot();
        assert!(prcc_checker::check_sessions(&trace, &collected.events).is_empty());
    }

    #[test]
    fn a_write_is_acked_and_visible_when_the_call_returns() {
        // ring(4): a session attached to {0, 1} writes register 1 at
        // replica 1. Each write's event, dependency and snapshot
        // visibility are in place before the call returns.
        let cluster = ThreadedCluster::new(topology::ring(4), DelayModel::Fixed(1), 8);
        let tier = ServingTier::new(&cluster, ServingConfig::default());
        let mut w = tier.worker();
        for k in 0..200u64 {
            w.write(0, x(1), Value::from(k)).unwrap();
            let Some(&SessionEvent::Write { update, .. }) = w.out.events.last() else {
                panic!("write {k} returned without its event");
            };
            assert!(cluster.store_snapshot(ReplicaId::new(1)).covers(update));
            let dep = tier.with_session(0, |s| s.deps[&x(1)]);
            assert_eq!(dep.wrote, Some(update));
        }
        assert_eq!(w.finish().ops, 200);
    }

    #[test]
    fn a_read_blocks_one_op_timeout_from_its_call() {
        // ring(4): register 1 is held by replicas {1, 2} only. With both
        // down, a read waits out exactly one `op_timeout`, counted from
        // the call (two timeouts back to back were the old worst case).
        const TIMEOUT: Duration = Duration::from_millis(100);
        let cluster = ThreadedCluster::with_config(
            topology::ring(4),
            DelayModel::Fixed(1),
            6,
            crate::runtime::ClusterConfig {
                durability: Some(8),
                ..crate::runtime::ClusterConfig::default()
            },
        );
        let cfg = ServingConfig {
            op_timeout: TIMEOUT,
            ..ServingConfig::default()
        };
        let tier = ServingTier::new(&cluster, cfg);
        let mut w = tier.worker();
        w.write(1, x(1), Value::from(1u64)).unwrap();
        cluster.crash(ReplicaId::new(1));
        cluster.crash(ReplicaId::new(2));
        let t = Instant::now();
        let err = w.read(1, x(1), 0).unwrap_err();
        let blocked = t.elapsed();
        assert_eq!(
            err,
            ServingError::ReplicaCrashed {
                replica: ReplicaId::new(1)
            }
        );
        assert!(
            blocked >= TIMEOUT && blocked < 2 * TIMEOUT,
            "a read with a {TIMEOUT:?} timeout blocked {blocked:?}"
        );
        assert_eq!(tier.stats().op_timeouts, 1);
        cluster.restart(ReplicaId::new(1));
        cluster.restart(ReplicaId::new(2));
    }

    #[test]
    fn ops_degrade_to_typed_errors_when_every_holder_is_down() {
        // ring(4): register 1 is held by replicas {1, 2} only.
        let cluster = ThreadedCluster::with_config(
            topology::ring(4),
            DelayModel::Fixed(1),
            6,
            crate::runtime::ClusterConfig {
                durability: Some(8),
                ..crate::runtime::ClusterConfig::default()
            },
        );
        let cfg = ServingConfig {
            op_timeout: Duration::from_millis(50),
            ..ServingConfig::default()
        };
        let tier = ServingTier::new(&cluster, cfg);
        let mut w = tier.worker();
        cluster.crash(ReplicaId::new(1));
        cluster.crash(ReplicaId::new(2));
        // Writes reject immediately: no live holder to route to.
        assert_eq!(
            w.write(0, x(1), Value::from(7u64)).unwrap_err(),
            ServingError::ReplicaCrashed {
                replica: ReplicaId::new(1)
            }
        );
        // Reads block (a restart could still serve them), then degrade.
        assert_eq!(
            w.read(0, x(1), 0).unwrap_err(),
            ServingError::ReplicaCrashed {
                replica: ReplicaId::new(1)
            }
        );
        assert!(tier.stats().op_timeouts >= 1);
        let collected = w.finish();
        assert_eq!(collected.ops, 0);
        cluster.restart(ReplicaId::new(1));
        cluster.restart(ReplicaId::new(2));
        cluster.settle();
    }
}
