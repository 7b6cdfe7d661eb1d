//! Restricted inter-replica communication — breaking share-graph edges
//! (Appendix D, Figure 13, and its "more general topologies may also be
//! created").
//!
//! In a ring of `n` replicas every timestamp needs `2n` counters. If one
//! ring edge is *broken* — its shared register split into two local
//! copies kept in sync by piggybacking the value on **virtual registers**
//! along the remaining path — the share graph becomes a tree and each
//! timestamp shrinks to `2·N_i` counters, at the cost of multi-hop
//! propagation latency for writes to the broken register.
//!
//! [`RoutedSystem`] performs that surgery on any set of edges: for each
//! broken edge `(a, b)`, each register shared by exactly `{a, b}` is
//! split into the original copy at `a` plus a twin at `b`; a BFS path
//! through the residual share graph carries writes between them as
//! metadata+payload updates on fresh virtual registers, re-issued hop by
//! hop until the far endpoint applies the value to its twin. The
//! timestamp graphs are built on the *effective* (post-surgery) share
//! graph, which is where the metadata savings come from. Breaking
//! `(n−1, 0)` on `topology::ring(n)` gives Figure 13's broken ring
//! (experiment E7).

use crate::message::{TransitInfo, UpdateMsg};
use crate::replica::Replica;
use crate::system::{SystemMetrics, TrackerKind};
use crate::value::Value;
use prcc_checker::{check, CheckReport, Trace, UpdateId};
use prcc_net::{DelayModel, SimNetwork};
use prcc_sharegraph::{LoopConfig, Placement, RegSet, RegisterId, ReplicaId, ShareGraph};
use std::collections::HashMap;
use std::fmt;

/// Why a routing surgery could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedError {
    /// The named pair shares no registers.
    NothingShared(ReplicaId, ReplicaId),
    /// A register on the broken edge has holders beyond the pair, so
    /// removing the direct edge would not disconnect them.
    NotPairwise(RegisterId),
    /// After removing the broken edges, no residual path connects the
    /// pair.
    NoResidualPath(ReplicaId, ReplicaId),
}

impl fmt::Display for RoutedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutedError::NothingShared(a, b) => {
                write!(f, "replicas {a} and {b} share no registers")
            }
            RoutedError::NotPairwise(x) => {
                write!(f, "register {x} has holders beyond the broken pair")
            }
            RoutedError::NoResidualPath(a, b) => {
                write!(f, "no residual path between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for RoutedError {}

#[derive(Debug, Clone)]
struct BrokenInfo {
    a: ReplicaId,
    b: ReplicaId,
    twin: RegisterId,
    /// Residual path `a = route[0], …, route[last] = b`.
    route: Vec<ReplicaId>,
}

/// A deployment with broken edges and routed registers.
pub struct RoutedSystem {
    logical: Placement,
    effective: ShareGraph,
    replicas: Vec<Replica>,
    net: SimNetwork<UpdateMsg>,
    trace: Trace,
    metrics: SystemMetrics,
    issue_time: HashMap<UpdateId, u64>,
    transit_issue: HashMap<(ReplicaId, u64), u64>,
    broken: HashMap<RegisterId, BrokenInfo>,
    /// Virtual register per undirected residual edge used by some route.
    virtuals: HashMap<(ReplicaId, ReplicaId), RegisterId>,
}

impl fmt::Debug for RoutedSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedSystem")
            .field("replicas", &self.replicas.len())
            .field("broken_registers", &self.broken.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl RoutedSystem {
    /// Breaks every `(a, b)` pair in `break_edges` on `graph`.
    ///
    /// # Errors
    ///
    /// See [`RoutedError`]. All registers on a broken edge must be held
    /// by exactly that pair, and the residual graph must still connect
    /// each pair.
    pub fn new(
        graph: &ShareGraph,
        break_edges: &[(ReplicaId, ReplicaId)],
        delay: DelayModel,
        seed: u64,
    ) -> Result<Self, RoutedError> {
        let logical = graph.placement().clone();
        let n = logical.num_replicas();
        let mut sets: Vec<RegSet> = (0..n)
            .map(|i| logical.registers_of(ReplicaId::new(i as u32)).clone())
            .collect();
        let mut next_reg = logical.num_registers() as u32;
        let mut broken: HashMap<RegisterId, BrokenInfo> = HashMap::new();

        // Surgery: split each pairwise register of each broken edge.
        let mut pending_routes: Vec<(RegisterId, ReplicaId, ReplicaId)> = Vec::new();
        for &(a, b) in break_edges {
            let shared = logical.shared(a, b);
            if shared.is_empty() {
                return Err(RoutedError::NothingShared(a, b));
            }
            for x in shared.iter() {
                if logical.holders(x) != [a.min(b), a.max(b)] {
                    return Err(RoutedError::NotPairwise(x));
                }
                let twin = RegisterId::new(next_reg);
                next_reg += 1;
                sets[b.index()].remove(x);
                sets[b.index()].insert(twin);
                broken.insert(
                    x,
                    BrokenInfo {
                        a,
                        b,
                        twin,
                        route: Vec::new(),
                    },
                );
                pending_routes.push((x, a, b));
            }
        }

        // Residual graph (before virtuals) for route computation.
        let residual = ShareGraph::new(Placement::from_sets(sets.clone()));
        let mut virtuals: HashMap<(ReplicaId, ReplicaId), RegisterId> = HashMap::new();
        for (x, a, b) in pending_routes {
            let route = bfs_path(&residual, a, b).ok_or(RoutedError::NoResidualPath(a, b))?;
            for w in route.windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                virtuals.entry(key).or_insert_with(|| {
                    let v = RegisterId::new(next_reg);
                    next_reg += 1;
                    sets[key.0.index()].insert(v);
                    sets[key.1.index()].insert(v);
                    v
                });
            }
            broken.get_mut(&x).expect("inserted above").route = route;
        }

        let effective = ShareGraph::new(Placement::from_sets(sets));
        let (_, replicas) = TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE).build_replicas(
            &effective,
            effective.placement(),
            &[],
        );

        Ok(RoutedSystem {
            logical,
            effective,
            replicas,
            net: SimNetwork::new(delay, seed),
            trace: Trace::new(),
            metrics: SystemMetrics::default(),
            issue_time: HashMap::new(),
            transit_issue: HashMap::new(),
            broken,
            virtuals,
        })
    }

    /// The effective (post-surgery) share graph.
    pub fn effective_graph(&self) -> &ShareGraph {
        &self.effective
    }

    /// Per-replica timestamp counter counts.
    pub fn timestamp_counters(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .map(|r| r.tracker().num_counters())
            .collect()
    }

    fn local_register(&self, r: ReplicaId, x: RegisterId) -> RegisterId {
        match self.broken.get(&x) {
            Some(info) if r == info.b => info.twin,
            _ => x,
        }
    }

    /// Client write of the *logical* register `x` at replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not logically store `x`.
    pub fn write(&mut self, r: ReplicaId, x: RegisterId, v: Value) -> UpdateId {
        assert!(
            self.logical.stores(r, x),
            "register {x} not logically stored at {r}"
        );
        let local = self.local_register(r, x);
        let recipients: Vec<ReplicaId> = self
            .effective
            .placement()
            .holders(local)
            .iter()
            .copied()
            .filter(|&h| h != r)
            .collect();
        let (msg, recipients) = self.replicas[r.index()]
            .write(local, v.clone(), recipients)
            .unwrap_or_else(|e| panic!("{e}"));
        let id = UpdateId {
            issuer: r,
            seq: msg.seq,
        };
        self.trace.record_issue_with_id(id, x);
        self.issue_time.insert(id, self.net.now());
        for dst in &recipients {
            self.metrics.count_send(&msg);
            self.net.send(r, *dst, msg.clone());
        }
        if let Some(info) = self.broken.get(&x).cloned() {
            if r == info.a || r == info.b {
                let final_dst = if r == info.a { info.b } else { info.a };
                self.transit_issue.insert((r, msg.seq), self.net.now());
                self.send_transit_hop(
                    r,
                    TransitInfo {
                        origin: (r, msg.seq),
                        register: x,
                        final_dst,
                        value: v,
                    },
                );
            }
        }
        id
    }

    fn send_transit_hop(&mut self, at: ReplicaId, transit: TransitInfo) {
        let info = self.broken[&transit.register].clone();
        let pos = info
            .route
            .iter()
            .position(|&p| p == at)
            .expect("transit holder on route");
        let next = if transit.final_dst == info.b {
            info.route[pos + 1]
        } else {
            info.route[pos - 1]
        };
        let key = (at.min(next), at.max(next));
        let vreg = self.virtuals[&key];
        let mut msg = self.replicas[at.index()].issue_virtual(vreg, None);
        msg.transit = Some(transit);
        let id = UpdateId {
            issuer: at,
            seq: msg.seq,
        };
        self.trace.record_issue_with_id(id, vreg);
        self.issue_time.insert(id, self.net.now());
        self.metrics.count_send(&msg);
        self.net.send(at, next, msg);
    }

    /// Reads the *logical* register `x` at replica `r`.
    pub fn read(&self, r: ReplicaId, x: RegisterId) -> Option<&Value> {
        self.replicas[r.index()].read(self.local_register(r, x))
    }

    /// Delivers one message; returns `false` at quiescence.
    pub fn step(&mut self) -> bool {
        let Some((t, env)) = self.net.next_delivery() else {
            return false;
        };
        let dst = env.dst;
        let applied = self.replicas[dst.index()].receive(env.msg);
        for a in applied {
            let id = UpdateId {
                issuer: a.msg.issuer,
                seq: a.msg.seq,
            };
            // A terminating transit applies the logical write atomically
            // with the hop update — record the origin first so the trace
            // reflects that the dependency lands with (not after) the hop.
            if let Some(transit) = &a.msg.transit {
                if transit.final_dst == dst {
                    self.trace.record_apply(
                        UpdateId {
                            issuer: transit.origin.0,
                            seq: transit.origin.1,
                        },
                        dst,
                    );
                }
            }
            self.trace.record_apply(id, dst);
            self.metrics.applies += 1;
            if let Some(&issued) = self.issue_time.get(&id) {
                self.metrics.count_visibility(t.saturating_sub(issued));
            }
            if let Some(transit) = a.msg.transit.clone() {
                if transit.final_dst == dst {
                    let local = self.local_register(dst, transit.register);
                    self.replicas[dst.index()].store_local(local, transit.value.clone());
                    if let Some(issued) = self.transit_issue.remove(&transit.origin) {
                        self.metrics.count_visibility(t.saturating_sub(issued));
                    }
                } else {
                    self.send_transit_hop(dst, transit);
                }
            }
        }
        true
    }

    /// Runs until quiescence.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// True if nothing is in flight or pending.
    pub fn is_settled(&self) -> bool {
        self.net.is_quiescent() && self.replicas.iter().all(|r| r.pending_count() == 0)
    }

    /// Checks the trace against the *logical* placement.
    pub fn check(&self) -> CheckReport {
        check(&self.trace, &self.logical)
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }
}

/// Shortest path `from → to` in `g`, inclusive of both endpoints.
fn bfs_path(g: &ShareGraph, from: ReplicaId, to: ReplicaId) -> Option<Vec<ReplicaId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: Vec<Option<ReplicaId>> = vec![None; g.num_replicas()];
    let mut seen = vec![false; g.num_replicas()];
    seen[from.index()] = true;
    let mut q = std::collections::VecDeque::from([from]);
    while let Some(v) = q.pop_front() {
        for &w in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                prev[w.index()] = Some(v);
                if w == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use prcc_sharegraph::topology;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    /// Figure 13: `ring(n)` with the edge (n−1, 0) broken. Register n−1
    /// keeps its copy at n−1 and reaches its twin at 0 along
    /// n−1 → n−2 → … → 0.
    fn broken_ring(n: usize, delay: DelayModel, seed: u64) -> RoutedSystem {
        let edge = (r(n as u32 - 1), r(0));
        RoutedSystem::new(&topology::ring(n), &[edge], delay, seed).expect("ring edge is breakable")
    }

    #[test]
    fn broken_ring_has_tree_sized_timestamps() {
        let n = 6;
        let counters = broken_ring(n, DelayModel::Fixed(1), 0).timestamp_counters();
        // Unbroken ring: every replica tracks 2n = 12 counters.
        let plain = System::builder(topology::ring(n))
            .tracker(TrackerKind::EdgeIndexed(LoopConfig::EXHAUSTIVE))
            .build()
            .timestamp_counters();
        assert!(plain.iter().all(|&c| c == 2 * n));
        // Broken ring (a path): counters are per *edge*, and the virtual
        // registers double edge multiplicity, not edge count — interior
        // replicas track 4, endpoints 2.
        for (i, &c) in counters.iter().enumerate() {
            let expected = if i == 0 || i == n - 1 { 2 } else { 4 };
            assert_eq!(c, expected, "replica {i}");
            assert!(c < plain[i]);
        }
    }

    #[test]
    fn unbroken_registers_flow_directly() {
        let mut ring = broken_ring(5, DelayModel::Fixed(1), 1);
        // Register 1 is shared by replicas 1 and 2 — untouched by the
        // break.
        ring.write(r(1), x(1), Value::from(7u64));
        ring.run_to_quiescence();
        assert!(ring.is_settled());
        assert_eq!(ring.read(r(2), x(1)), Some(&Value::from(7u64)));
        assert!(ring.check().is_consistent());
    }

    #[test]
    fn broken_register_routes_in_both_directions() {
        let n = 5;
        let far = r(n as u32 - 1);
        let broken = x(n as u32 - 1);
        let mut ring = broken_ring(n, DelayModel::Fixed(1), 2);
        // Write at replica n−1 (holder of the original copy): replica 0
        // sees the value through the transit chain.
        ring.write(far, broken, Value::from(42u64));
        ring.run_to_quiescence();
        assert!(ring.is_settled());
        assert_eq!(ring.read(r(0), broken), Some(&Value::from(42u64)));
        let rep = ring.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        // And the reverse direction, from the twin.
        ring.write(r(0), broken, Value::from(43u64));
        ring.run_to_quiescence();
        assert_eq!(ring.read(far, broken), Some(&Value::from(43u64)));
    }

    #[test]
    fn transit_latency_exceeds_direct_latency() {
        let n = 6;
        let mut ring = broken_ring(n, DelayModel::Fixed(10), 3);
        // Direct write on an unbroken edge.
        ring.write(r(1), x(1), Value::from(1u64));
        ring.run_to_quiescence();
        let direct_max = ring.metrics().max_visibility;
        // Routed write crosses n−1 hops.
        ring.write(r(n as u32 - 1), x(n as u32 - 1), Value::from(2u64));
        ring.run_to_quiescence();
        let routed_max = ring.metrics().max_visibility;
        assert!(routed_max >= direct_max * ((n - 1) as u64) / 2);
    }

    #[test]
    fn causal_chain_through_transit_respected() {
        // Writes around the ring with causal chains crossing the broken
        // edge; run with adversarial delays across seeds.
        let n = 5;
        for seed in 0..10 {
            let mut ring = broken_ring(n, DelayModel::Uniform { min: 1, max: 60 }, seed);
            for round in 0..3u64 {
                for i in 0..n as u32 {
                    // Each replica writes one register it logically holds.
                    ring.write(r(i), x(i), Value::from(round));
                }
            }
            ring.run_to_quiescence();
            assert!(ring.is_settled(), "seed {seed}");
            let rep = ring.check();
            assert!(rep.is_consistent(), "seed {seed}: {:?}", rep.violations);
        }
    }

    #[test]
    #[should_panic(expected = "not logically stored")]
    fn write_requires_logical_holder() {
        let mut ring = broken_ring(4, DelayModel::Fixed(1), 0);
        ring.write(r(2), x(0), Value::from(0u64));
    }

    #[test]
    fn broken_ring_golden_cells() {
        // E7's four cells: Fixed(5) delays, seed 7, five rounds of one
        // write per register, each round run to quiescence. The values
        // were read from the ring-only router this type generalised, so
        // a change that moves one changed the routed protocol.
        let golden: [(usize, SystemMetrics, &[usize]); 4] = [
            (
                4,
                SystemMetrics {
                    data_messages: 15,
                    meta_messages: 15,
                    metadata_bytes: 800,
                    payload_bytes: 120,
                    applies: 30,
                    total_pending_wait: 0,
                    max_pending_wait: 0,
                    total_visibility: 225,
                    visibility_samples: 35,
                    max_visibility: 15,
                },
                &[2, 4, 4, 2],
            ),
            (
                6,
                SystemMetrics {
                    data_messages: 25,
                    meta_messages: 25,
                    metadata_bytes: 1440,
                    payload_bytes: 200,
                    applies: 50,
                    total_pending_wait: 0,
                    max_pending_wait: 0,
                    total_visibility: 375,
                    visibility_samples: 55,
                    max_visibility: 25,
                },
                &[2, 4, 4, 4, 4, 2],
            ),
            (
                8,
                SystemMetrics {
                    data_messages: 35,
                    meta_messages: 35,
                    metadata_bytes: 2080,
                    payload_bytes: 280,
                    applies: 70,
                    total_pending_wait: 0,
                    max_pending_wait: 0,
                    total_visibility: 525,
                    visibility_samples: 75,
                    max_visibility: 35,
                },
                &[2, 4, 4, 4, 4, 4, 4, 2],
            ),
            (
                10,
                SystemMetrics {
                    data_messages: 45,
                    meta_messages: 45,
                    metadata_bytes: 2720,
                    payload_bytes: 360,
                    applies: 90,
                    total_pending_wait: 0,
                    max_pending_wait: 0,
                    total_visibility: 675,
                    visibility_samples: 95,
                    max_visibility: 45,
                },
                &[2, 4, 4, 4, 4, 4, 4, 4, 4, 2],
            ),
        ];
        for (n, metrics, counters) in golden {
            let mut ring = broken_ring(n, DelayModel::Fixed(5), 7);
            for round in 0..5u64 {
                for i in 0..n as u32 {
                    ring.write(r(i), x(i), Value::from(round));
                }
                ring.run_to_quiescence();
            }
            assert_eq!(*ring.metrics(), metrics, "n = {n}");
            assert_eq!(ring.timestamp_counters(), counters, "n = {n}");
            assert!(ring.check().is_consistent(), "n = {n}");
        }
    }

    #[test]
    fn grid_with_broken_edge() {
        // Grid 3x3: break the edge between replicas 0 and 1 (register 0).
        let g = topology::grid(3, 3);
        let mut sys =
            RoutedSystem::new(&g, &[(r(0), r(1))], DelayModel::Fixed(1), 0).expect("routable");
        // Counters shrink at the endpoints relative to the plain grid.
        let plain = System::builder(g.clone()).build();
        let plain_counters = plain.timestamp_counters();
        let routed_counters = sys.timestamp_counters();
        assert!(
            routed_counters.iter().sum::<usize>() <= plain_counters.iter().sum::<usize>() + 8,
            "virtual edges may add counters but the broken direct edge is gone"
        );
        // Writes to the broken register still converge.
        sys.write(r(0), x(0), Value::from(11u64));
        sys.run_to_quiescence();
        assert_eq!(sys.read(r(1), x(0)), Some(&Value::from(11u64)));
        sys.write(r(1), x(0), Value::from(12u64));
        sys.run_to_quiescence();
        assert_eq!(sys.read(r(0), x(0)), Some(&Value::from(12u64)));
        assert!(sys.is_settled());
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
    }

    #[test]
    fn multiple_broken_edges_on_torus() {
        let g = topology::torus(3, 3);
        // Break two disjoint edges.
        let e1 = (r(0), r(1));
        let shared01 = g.placement().shared(r(0), r(1));
        assert!(!shared01.is_empty());
        let e2 = (r(4), r(5));
        let mut sys = RoutedSystem::new(&g, &[e1, e2], DelayModel::Fixed(2), 3).expect("routable");
        // Drive writes on every logical register at one holder each.
        let logical_regs = g.placement().num_registers() as u32;
        for reg in 0..logical_regs {
            let holder = *g.placement().holders(x(reg)).first().unwrap();
            sys.write(holder, x(reg), Value::from(u64::from(reg)));
        }
        sys.run_to_quiescence();
        assert!(sys.is_settled());
        let rep = sys.check();
        assert!(rep.is_consistent(), "{:?}", rep.violations);
        // Both broken registers reached their far endpoints.
        for reg in shared01.iter() {
            assert_eq!(
                sys.read(r(1), reg),
                Some(&Value::from(u64::from(reg.raw())))
            );
        }
    }

    #[test]
    fn errors_reported() {
        let g = topology::path(3);
        // Non-adjacent pair.
        assert_eq!(
            RoutedSystem::new(&g, &[(r(0), r(2))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NothingShared(r(0), r(2))
        );
        // Breaking the only path disconnects: path 0-1, register 0.
        assert_eq!(
            RoutedSystem::new(&g, &[(r(0), r(1))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NoResidualPath(r(0), r(1))
        );
        // Register with three holders cannot be broken pairwise.
        let tri = prcc_sharegraph::ShareGraph::new(
            prcc_sharegraph::Placement::builder(3)
                .share(0, [0, 1, 2])
                .share(1, [0, 1])
                .build(),
        );
        assert_eq!(
            RoutedSystem::new(&tri, &[(r(0), r(2))], DelayModel::Fixed(1), 0).unwrap_err(),
            RoutedError::NotPairwise(x(0))
        );
    }

    #[test]
    fn causal_chains_across_broken_edges() {
        let g = topology::grid(3, 2);
        for seed in 0..5 {
            let mut sys = RoutedSystem::new(
                &g,
                &[(r(0), r(1))],
                DelayModel::Uniform { min: 1, max: 40 },
                seed,
            )
            .expect("routable");
            for round in 0..3u64 {
                for reg in 0..g.placement().num_registers() as u32 {
                    let holder = *g.placement().holders(x(reg)).first().unwrap();
                    sys.write(holder, x(reg), Value::from(round));
                    sys.step();
                }
            }
            sys.run_to_quiescence();
            assert!(sys.is_settled(), "seed {seed}");
            let rep = sys.check();
            assert!(rep.is_consistent(), "seed {seed}: {:?}", rep.violations);
        }
    }
}
