//! The reference differential: production replicas, run by a
//! [`System`] or a [`ThreadedCluster`], against the reference model of
//! the `prcc-spec` crate, which shares nothing with them but the
//! timestamp graphs.
//!
//! * **Replica level** — [`replay`] runs a seeded write/step workload on
//!   a `System` and feeds a reference cluster the same writes and, step
//!   by step, the same arrival sequence at every replica. The two must
//!   record the identical issue/apply sequence, hold identical stores
//!   (value and producing update) and pending counts, and give the same
//!   checker verdict; no replica may evaluate its predicate more often
//!   than the reference's scan evaluates `J`. The arrivals are read off
//!   what each production replica applied or parked, so the replay also
//!   asserts that every holder of a register received each write to it
//!   exactly once (every replica, under the vector-clock baseline's
//!   broadcast) and that the reference's trace is consistent: a
//!   replica that drops a message on receipt cannot hide it by starving
//!   the reference alike.
//! * **Cluster level** — with one writer per register the final state
//!   does not depend on delivery order, so a run's [`Observed`] final
//!   stores, frontiers, `covers` grid and verdict must equal the
//!   reference's ([`single_writer_reference`]).
//!
//! The edge-indexed rows run the reference's own counter maps; the
//! baselines run the reference's scan loop over a fresh production
//! tracker of their kind ([`TrackerClock`]).
//!
//! Shared by the differential suites of several packages, which include
//! it with `#[path]`.

#![allow(dead_code)]

use prcc_checker::{Event, UpdateId};
use prcc_core::{
    CausalityTracker, FullDepsTracker, Metadata, System, ThreadedCluster, TrackerKind, UpdateMsg,
    Value, VcTracker, WireMode,
};
use prcc_net::DelayModel;
use prcc_sharegraph::{RegisterId, ReplicaId, ShareGraph, TimestampGraphs};
use prcc_spec::{Clock, EdgeClock, Spec, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A production tracker run by the reference model's scan loop.
#[derive(Debug, Clone)]
pub struct TrackerClock(Box<dyn CausalityTracker>);

fn as_msg(u: &Update<Arc<Metadata>>) -> UpdateMsg {
    UpdateMsg {
        issuer: u.id.issuer,
        seq: u.id.seq,
        register: u.register,
        value: Some(Value::from(u.value)),
        meta: Arc::clone(&u.stamp),
        transit: None,
    }
}

impl Clock for TrackerClock {
    type Stamp = Arc<Metadata>;

    fn advance(&mut self, x: RegisterId) -> Arc<Metadata> {
        Arc::new(self.0.on_local_write(x))
    }

    fn ready(&self, u: &Update<Arc<Metadata>>) -> bool {
        self.0.ready(&as_msg(u))
    }

    fn merge(&mut self, u: &Update<Arc<Metadata>>) {
        self.0.on_apply(&as_msg(u));
    }
}

/// Runs the seeded write/step workload on a `System` with `tracker` and
/// `wire` under `Uniform{1,200}` delays, replays it into the reference,
/// and asserts the replica-level equivalence of the module docs.
pub fn replay(g: &ShareGraph, tracker: TrackerKind, wire: WireMode, seed: u64) {
    let n = g.num_replicas();
    let r = |i: usize| ReplicaId::new(i as u32);
    match tracker {
        TrackerKind::EdgeIndexed(loops) => {
            let clocks = EdgeClock::all(g, &TimestampGraphs::build(g, loops));
            replay_with(g, tracker, wire, seed, clocks)
        }
        TrackerKind::VectorClock => {
            let clocks = (0..n).map(|i| TrackerClock(Box::new(VcTracker::new(r(i), n))));
            replay_with(g, tracker, wire, seed, clocks.collect())
        }
        TrackerKind::FullDeps => {
            let clocks = (0..n).map(|i| {
                let stores = g.placement().registers_of(r(i)).clone();
                TrackerClock(Box::new(FullDepsTracker::new(r(i), stores)))
            });
            replay_with(g, tracker, wire, seed, clocks.collect())
        }
    }
}

fn replay_with<C: Clock>(
    g: &ShareGraph,
    tracker: TrackerKind,
    wire: WireMode,
    seed: u64,
    clocks: Vec<C>,
) {
    let mut sys = System::builder(g.clone())
        .tracker(tracker)
        .wire_mode(wire)
        .delay(DelayModel::Uniform { min: 1, max: 200 })
        .seed(seed)
        .build();
    let mut spec = Spec::new(g, clocks);
    let n = g.num_replicas();
    let mut parked = vec![BTreeSet::new(); n];
    let mut due = BTreeSet::new();
    let mut seen = 0;
    // Interleave writes with partial network steps so pending buffers
    // fill up before each drain.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let writes = 4 * n as u64;
    for w in 0..writes {
        let r = ReplicaId::new(rng.gen_range(0..n as u32));
        let regs: Vec<RegisterId> = g.placement().registers_of(r).iter().collect();
        let x = regs[rng.gen_range(0..regs.len())];
        sys.write(r, x, Value::from(w));
        let (id, holders) = spec.write(r, x, w);
        // The vector-clock baseline sends its metadata to every replica.
        let to = match tracker {
            TrackerKind::VectorClock => g.replicas().filter(|&h| h != r).collect(),
            _ => holders,
        };
        due.extend(to.into_iter().map(|h| (h, id)));
        seen += 1;
        for _ in 0..rng.gen_range(0usize..4) {
            sys.step();
            seen = deliver_arrivals(&sys, &mut spec, &mut parked, &mut due, seen);
        }
    }
    while sys.step() {
        seen = deliver_arrivals(&sys, &mut spec, &mut parked, &mut due, seen);
    }
    assert!(due.is_empty(), "never received: {due:?}");

    assert_eq!(sys.trace().events(), spec.trace().events());
    for i in g.replicas() {
        assert_eq!(
            stores_of_system(&sys, i),
            canonical(&spec, i),
            "store at {i}"
        );
        assert_eq!(sys.replica(i).pending_count(), spec.pending_count(i));
        let (evals, j) = (sys.replica(i).predicate_evals(), spec.evals(i));
        assert!(
            evals <= j,
            "{i} evaluated its predicate {evals} times, the scan {j}"
        );
    }
    assert_eq!(sys.check().violations, spec.check().violations);
    let verdict = spec.check();
    assert!(verdict.is_consistent(), "reference: {verdict:?}");
}

/// Infers the arrivals of the step just taken — every update a replica
/// applied or newly parked that was not parked before — and delivers
/// them to the reference in arrival order. A step delivers at most one
/// frame: one batch from one issuer to one replica, in issue order.
/// Each arrival must be one of the `due` (holder, update) messages not
/// yet received; it is struck off. Returns how many trace events have
/// been read.
fn deliver_arrivals<C: Clock>(
    sys: &System,
    spec: &mut Spec<C>,
    parked: &mut [BTreeSet<UpdateId>],
    due: &mut BTreeSet<(ReplicaId, UpdateId)>,
    seen: usize,
) -> usize {
    let events = sys.trace().events();
    let mut arrived = BTreeSet::new();
    for e in &events[seen..] {
        let &Event::Apply { update, at } = e else {
            panic!("a step issued {e:?}");
        };
        if !parked[at.index()].remove(&update) {
            arrived.insert((at, update.issuer, update.seq));
        }
    }
    for (i, parked) in parked.iter_mut().enumerate() {
        let r = ReplicaId::new(i as u32);
        for m in sys.replica(r).pending() {
            let id = UpdateId {
                issuer: m.issuer,
                seq: m.seq,
            };
            if parked.insert(id) {
                arrived.insert((r, m.issuer, m.seq));
            }
        }
    }
    let frames: BTreeSet<_> = arrived.iter().map(|&(at, from, _)| (at, from)).collect();
    assert!(frames.len() <= 1, "one step delivered {frames:?}");
    for (at, issuer, seq) in arrived {
        let id = UpdateId { issuer, seq };
        assert!(
            due.remove(&(at, id)),
            "{at} received {id:?} unsent or twice"
        );
        spec.deliver(at, id);
    }
    events.len()
}

/// One replica's store: value and producing update per register.
pub type Store = BTreeMap<RegisterId, (Value, Option<UpdateId>)>;

fn canonical<C: Clock>(spec: &Spec<C>, r: ReplicaId) -> Store {
    let store = spec.store(r).iter();
    store
        .map(|(&x, &(v, id))| (x, (Value::from(v), Some(id))))
        .collect()
}

fn stores_of_system(sys: &System, r: ReplicaId) -> Store {
    let store = sys.replica(r).store_cow().iter();
    store.map(|(&x, e)| (x, (e.value.clone(), e.src))).collect()
}

/// Everything a cluster-level comparison reads of a finished run.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// Per-replica final stores.
    pub stores: Vec<Store>,
    /// Per-replica frontiers: updates per issuer issued or applied.
    pub frontiers: Vec<Vec<u64>>,
    /// Per-replica `covers` verdicts over every issuer × sequence
    /// number up to one past the grid bound.
    pub covers: Vec<Vec<bool>>,
    /// The checker's verdict on the run's trace.
    pub consistent: bool,
}

fn grid(frontiers: &[Vec<u64>], max_seq: u64) -> Vec<Vec<bool>> {
    let covers = |f: &Vec<u64>| {
        let ids = (0..f.len()).flat_map(|i| (0..=max_seq + 1).map(move |s| (i, s)));
        ids.map(|(i, s)| f[i] > s).collect()
    };
    frontiers.iter().map(covers).collect()
}

impl Observed {
    /// The reference cluster's final state.
    pub fn of_spec(spec: &Spec<EdgeClock>, g: &ShareGraph, max_seq: u64) -> Self {
        let frontiers: Vec<Vec<u64>> = g.replicas().map(|r| spec.frontier(r).to_vec()).collect();
        Observed {
            stores: g.replicas().map(|r| canonical(spec, r)).collect(),
            covers: grid(&frontiers, max_seq),
            frontiers,
            consistent: spec.check().is_consistent(),
        }
    }

    /// A threaded cluster's published final state, `covers` asked of
    /// the published views themselves.
    pub fn of_cluster(cluster: &ThreadedCluster, g: &ShareGraph, max_seq: u64) -> Self {
        let views: Vec<_> = g.replicas().map(|r| cluster.store_snapshot(r)).collect();
        let covers = views.iter().map(|v| {
            let ids = g
                .replicas()
                .flat_map(|i| (0..=max_seq + 1).map(move |s| (i, s)));
            ids.map(|(issuer, seq)| v.covers(UpdateId { issuer, seq }))
                .collect()
        });
        Observed {
            stores: views
                .iter()
                .map(|v| {
                    v.store()
                        .into_iter()
                        .map(|(x, val)| (x, (val, v.source_of(x))))
                        .collect()
                })
                .collect(),
            frontiers: views.iter().map(|v| v.frontier().to_vec()).collect(),
            covers: covers.collect(),
            consistent: cluster.check().is_consistent(),
        }
    }

    /// A lockstep system's final state; its frontiers are read off the
    /// trace's issues and applies.
    pub fn of_system(sys: &System, g: &ShareGraph, max_seq: u64) -> Self {
        let n = g.num_replicas();
        let mut frontiers = vec![vec![0; n]; n];
        for e in sys.trace().events() {
            let (update, at) = match *e {
                Event::Issue { update, .. } => (update, update.issuer),
                Event::Apply { update, at } => (update, at),
            };
            let f = &mut frontiers[at.index()][update.issuer.index()];
            *f = (*f).max(update.seq + 1);
        }
        Observed {
            stores: g.replicas().map(|r| stores_of_system(sys, r)).collect(),
            covers: grid(&frontiers, max_seq),
            frontiers,
            consistent: sys.check().is_consistent(),
        }
    }
}

/// The reference run of a single-writer workload: `writes` (of integer
/// values), in order, then every message delivered to its holders in
/// issue order. Returns the reference and the largest sequence number
/// any issuer reached.
pub fn single_writer_reference(
    g: &ShareGraph,
    writes: impl IntoIterator<Item = (ReplicaId, RegisterId, Value)>,
) -> (Spec<EdgeClock>, u64) {
    let graphs = TimestampGraphs::build(g, prcc_sharegraph::LoopConfig::EXHAUSTIVE);
    let mut spec = Spec::new(g, EdgeClock::all(g, &graphs));
    let sent: Vec<_> = writes
        .into_iter()
        .map(|(r, x, v)| {
            let Value::U64(v) = v else {
                panic!("the reference stores integers, not {v:?}")
            };
            spec.write(r, x, v)
        })
        .collect();
    let max_seq = sent.iter().map(|(id, _)| id.seq).max().unwrap_or(0);
    for (id, to) in sent {
        for dst in to {
            spec.deliver(dst, id);
        }
    }
    (spec, max_seq)
}
