//! `(i, e_jk)`-loop detection — Definition 4 of the paper, and the
//! augmented loops of Definition 27 (Appendix E).
//!
//! Given replica `i` and a directed share-graph edge `e_jk` with
//! `j ≠ i ≠ k`, an `(i, e_jk)`-loop is a simple loop
//! `(i, l_1, …, l_s = k, j = r_1, r_2, …, r_t, i)` with `s ≥ 1`, `t ≥ 1`
//! (and `r_{t+1} = i`) such that
//!
//! 1. `X_jk − ∪_{1≤p≤s−1} X_{l_p} ≠ ∅`
//! 2. `X_{j r_2} − ∪_{1≤p≤s−1} X_{l_p} ≠ ∅`
//! 3. for `2 ≤ q ≤ t`: `X_{r_q r_{q+1}} − ∪_{1≤p≤s} X_{l_p} ≠ ∅`
//!
//! The existence of such a loop is exactly what forces replica `i` to track
//! edge `e_jk` in its timestamp (Theorem 8), and the edge set it induces is
//! also sufficient (Section 3.3).
//!
//! An *augmented* loop (Definition 27) is the same loop in the augmented
//! share graph `Ĝ`: a pair of replicas co-accessed by some client is
//! adjacent, and such a pair satisfies conditions (ii) and (iii) on its
//! own. [`find_loop`] searches for either kind; the client assignment
//! selects which.
//!
//! Detection enumerates simple paths with pruning. This is exponential in
//! the worst case (the problem inherently quantifies over simple loops);
//! [`LoopConfig::max_loop_edges`] bounds the search for large graphs and
//! doubles as the paper's "sacrificing causality" truncation (Appendix D).

use crate::augmented::ClientAssignment;
use crate::graph::ShareGraph;
use crate::ids::{EdgeId, ReplicaId};
use crate::regset::RegSet;

/// Search configuration for loop detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopConfig {
    /// If set, only loops with at most this many edges (equivalently,
    /// vertices) are considered. `None` searches exhaustively.
    ///
    /// Setting this to `l + 1` implements the truncated tracking of
    /// Appendix D ("Sacrificing causality"): causal consistency is then only
    /// guaranteed when single-hop messages outrun `l`-hop propagation.
    pub max_loop_edges: Option<usize>,
}

impl LoopConfig {
    /// Exhaustive search (no length bound).
    pub const EXHAUSTIVE: LoopConfig = LoopConfig {
        max_loop_edges: None,
    };

    /// Only consider loops of at most `edges` edges.
    pub fn bounded(edges: usize) -> Self {
        LoopConfig {
            max_loop_edges: Some(edges),
        }
    }
}

/// A concrete `(i, e_jk)`-loop found by [`find_loop`]; useful for building
/// the adversarial executions of Theorem 8's proof (Section 3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopWitness {
    /// The anchor replica `i`.
    pub anchor: ReplicaId,
    /// The tracked edge `e_jk`.
    pub edge: EdgeId,
    /// `l_1, …, l_s` with `l_s = k`. Never empty.
    pub left: Vec<ReplicaId>,
    /// `r_1, …, r_t` with `r_1 = j`. Never empty.
    pub right: Vec<ReplicaId>,
}

impl LoopWitness {
    /// Number of edges (= vertices) in the loop: `1 + s + t`.
    pub fn num_edges(&self) -> usize {
        1 + self.left.len() + self.right.len()
    }

    /// The full vertex cycle `i, l_1, …, l_s, r_1, …, r_t` (implicitly
    /// closing back at `i`).
    pub fn cycle(&self) -> Vec<ReplicaId> {
        let mut v = Vec::with_capacity(self.num_edges());
        v.push(self.anchor);
        v.extend_from_slice(&self.left);
        v.extend_from_slice(&self.right);
        v
    }

    /// Checks the witness against Definition 4. Returns `false` if the
    /// structural constraints or any of conditions (i)–(iii) fail.
    pub fn verify(&self, g: &ShareGraph) -> bool {
        let i = self.anchor;
        let (j, k) = (self.edge.from, self.edge.to);
        if i == j || i == k || j == k {
            return false;
        }
        if self.left.last() != Some(&k) || self.right.first() != Some(&j) {
            return false;
        }
        // Simple loop: all vertices distinct.
        let cycle = self.cycle();
        let mut sorted = cycle.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != cycle.len() {
            return false;
        }
        // Consecutive vertices adjacent, closing at i. The k—j adjacency is
        // edge e_jk itself.
        for w in cycle.windows(2) {
            if !g.has_edge(EdgeId::new(w[0], w[1])) {
                return false;
            }
        }
        if !g.has_edge(EdgeId::new(*cycle.last().unwrap(), i)) {
            return false;
        }
        // Interior union B = ∪_{p=1..s-1} X_{l_p} and B' = B ∪ X_{l_s}.
        let mut b = RegSet::new();
        for &l in &self.left[..self.left.len() - 1] {
            b.union_with(g.placement().registers_of(l));
        }
        let mut b_full = b.clone();
        b_full.union_with(g.placement().registers_of(k));
        // (i)
        if !g.edge_registers(self.edge).has_element_outside(&b) {
            return false;
        }
        // (ii): r_2 is right[1] if t >= 2 else i.
        let r2 = self.right.get(1).copied().unwrap_or(i);
        if !g.edge_registers(EdgeId::new(j, r2)).has_element_outside(&b) {
            return false;
        }
        // (iii): edges r_q — r_{q+1} for q = 2..=t, with r_{t+1} = i.
        for q in 1..self.right.len() {
            let rq = self.right[q];
            let rq1 = self.right.get(q + 1).copied().unwrap_or(i);
            if !g
                .edge_registers(EdgeId::new(rq, rq1))
                .has_element_outside(&b_full)
            {
                return false;
            }
        }
        true
    }
}

/// True if an `(i, e_jk)`-loop exists in `g` (Definition 4).
///
/// `e.from` is `j`, `e.to` is `k`; requires `j ≠ i ≠ k` and `e ∈ E` to be
/// meaningful — returns `false` otherwise.
///
/// # Examples
///
/// ```
/// use prcc_sharegraph::{paper_examples, loops, ReplicaId, edge, LoopConfig};
/// let g = paper_examples::figure5();
/// let r1 = ReplicaId::new(0);
/// // (1,2,3,4) is a (1, e_43)-loop but (1,4,3,2) is not a (1, e_34)-loop.
/// assert!(loops::exists_loop(&g, r1, edge(3, 2), LoopConfig::EXHAUSTIVE));
/// assert!(!loops::exists_loop(&g, r1, edge(2, 3), LoopConfig::EXHAUSTIVE));
/// ```
pub fn exists_loop(g: &ShareGraph, i: ReplicaId, e: EdgeId, config: LoopConfig) -> bool {
    find_loop(g, i, e, config, None).is_some()
}

/// Finds an `(i, e_jk)`-loop if one exists, returning a witness.
///
/// Without `clients` the loop is Definition 4's and the witness passes
/// [`LoopWitness::verify`]. With `clients` it is an augmented loop
/// (Definition 27): a co-accessed pair is adjacent and satisfies a
/// right-path hop, so the witness may use client edges.
///
/// The search extends left paths `i → k` (avoiding `j`) depth-first and,
/// for each, right paths `j → i` disjoint from the left path, checking
/// the conditions incrementally.
pub fn find_loop(
    g: &ShareGraph,
    i: ReplicaId,
    e: EdgeId,
    config: LoopConfig,
    clients: Option<&ClientAssignment>,
) -> Option<LoopWitness> {
    let (j, k) = (e.from, e.to);
    if i == j || i == k || j == k || !g.has_edge(e) {
        return None;
    }
    let max_edges = config.max_loop_edges.unwrap_or(g.num_replicas());
    // A loop has 1 + s + t vertices, all distinct, so at most R vertices.
    let max_edges = max_edges.min(g.num_replicas());
    if max_edges < 3 {
        return None; // smallest loop is (i, k, j): s = t = 1, 3 edges
    }

    let mut on_left = vec![false; g.num_replicas()];
    on_left[i.index()] = true;
    let mut left_path = Vec::new();
    let mut search = Search {
        g,
        clients,
        i,
        j,
        k,
        e,
        max_edges,
        on_left: &mut on_left,
        left_path: &mut left_path,
    };
    search.left_dfs(i, &RegSet::new())
}

struct Search<'a> {
    g: &'a ShareGraph,
    clients: Option<&'a ClientAssignment>,
    i: ReplicaId,
    j: ReplicaId,
    k: ReplicaId,
    e: EdgeId,
    max_edges: usize,
    /// Marks vertices on the current left path (including `i`).
    on_left: &'a mut Vec<bool>,
    /// Current left path `l_1, …` (not including `i`).
    left_path: &'a mut Vec<ReplicaId>,
}

impl Search<'_> {
    fn co_accessed(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.clients.is_some_and(|c| c.co_accessed(a, b))
    }

    /// The sorted neighbors of `v` in `G`, or in `Ĝ` with clients.
    fn neighbors(&self, v: ReplicaId) -> Vec<ReplicaId> {
        let mut out = self.g.neighbors(v).to_vec();
        if let Some(c) = self.clients {
            out.extend(
                c.partners(v)
                    .filter(|&w| !self.g.has_edge(EdgeId::new(v, w))),
            );
            out.sort();
        }
        out
    }

    /// A right-path hop `v → w` (conditions (ii) and (iii)): a register of
    /// `X_vw` outside `sub`, or a client that co-accesses `v` and `w`.
    fn hop(&self, v: ReplicaId, w: ReplicaId, sub: &RegSet) -> bool {
        self.co_accessed(v, w)
            || self
                .g
                .edge_registers(EdgeId::new(v, w))
                .has_element_outside(sub)
    }

    /// Extends the left path from `v`. `interior_union` is the union of
    /// `X_l` over the vertices now on `left_path`: when the path closes by
    /// stepping to `k`, that is `∪_{p<s} X_{l_p}`.
    fn left_dfs(&mut self, v: ReplicaId, interior_union: &RegSet) -> Option<LoopWitness> {
        // Try closing: step v -> k (if adjacent and k not already used).
        let k_adjacent = self.g.has_edge(EdgeId::new(v, self.k)) || self.co_accessed(v, self.k);
        if v != self.k && k_adjacent && !self.on_left[self.k.index()] {
            // Condition (i): X_jk − interior_union ≠ ∅.
            if self
                .g
                .edge_registers(self.e)
                .has_element_outside(interior_union)
            {
                self.left_path.push(self.k);
                self.on_left[self.k.index()] = true;
                let mut b_full = interior_union.clone();
                b_full.union_with(self.g.placement().registers_of(self.k));
                let found = self.right_search(interior_union, &b_full);
                self.on_left[self.k.index()] = false;
                self.left_path.pop();
                if found.is_some() {
                    return found;
                }
            }
        }
        // Extend with another interior vertex. A loop has 1 + s + t ≤
        // max_edges vertices with t ≥ 1, and one more interior vertex
        // makes s = left_path.len() + 2 (it and k).
        if self.left_path.len() + 1 > self.max_edges - 3 {
            return None;
        }
        for w in self.neighbors(v) {
            if w == self.j || w == self.k || self.on_left[w.index()] {
                continue;
            }
            let mut next_union = interior_union.clone();
            next_union.union_with(self.g.placement().registers_of(w));
            // Monotone prune: the interior union only grows along the
            // path, so once condition (i) fails it can never recover. A
            // prune on X_j, which bounds condition (ii)'s register witness,
            // would cut nothing more: X_jk ⊆ X_j.
            if !self
                .g
                .edge_registers(self.e)
                .has_element_outside(&next_union)
            {
                continue;
            }
            self.on_left[w.index()] = true;
            self.left_path.push(w);
            let found = self.left_dfs(w, &next_union);
            self.left_path.pop();
            self.on_left[w.index()] = false;
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Searches for the right path `j = r_1, …, r_t, i`, disjoint from the
    /// left path. `b` is `∪ X_{l_p}` for `p < s`; `b_full` adds `X_{l_s}`.
    fn right_search(&mut self, b: &RegSet, b_full: &RegSet) -> Option<LoopWitness> {
        // t ≥ 1; total vertices 1 + s + t ≤ max_edges ⇒ t ≤ max_edges − 1 − s.
        let s = self.left_path.len();
        let t_budget = self.max_edges.saturating_sub(1 + s);
        if t_budget == 0 {
            return None;
        }
        let mut on_right = vec![false; self.g.num_replicas()];
        on_right[self.j.index()] = true;
        let mut right_path = vec![self.j];
        self.right_dfs(
            self.j,
            true,
            b,
            b_full,
            t_budget,
            &mut on_right,
            &mut right_path,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn right_dfs(
        &mut self,
        v: ReplicaId,
        first_hop: bool,
        b: &RegSet,
        b_full: &RegSet,
        t_budget: usize,
        on_right: &mut Vec<bool>,
        right_path: &mut Vec<ReplicaId>,
    ) -> Option<LoopWitness> {
        // The next hop from v uses subtrahend `b` on the first hop
        // (condition (ii): edge e_{j r_2}) and `b_full` afterwards
        // (condition (iii)).
        let sub = if first_hop { b } else { b_full };
        // Close: v -> i.
        if self.hop(v, self.i, sub) {
            return Some(LoopWitness {
                anchor: self.i,
                edge: self.e,
                left: self.left_path.clone(),
                right: right_path.clone(),
            });
        }
        if right_path.len() >= t_budget {
            return None;
        }
        for w in self.neighbors(v) {
            if w == self.i || on_right[w.index()] || self.on_left[w.index()] || !self.hop(v, w, sub)
            {
                continue;
            }
            on_right[w.index()] = true;
            right_path.push(w);
            let found = self.right_dfs(w, false, b, b_full, t_budget, on_right, right_path);
            right_path.pop();
            on_right[w.index()] = false;
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::edge;
    use crate::placement::Placement;

    /// Ring of n replicas, register i shared by replicas i and i+1 mod n.
    fn ring(n: u32) -> ShareGraph {
        let mut b = Placement::builder(n as usize);
        for i in 0..n {
            b = b.share(i, [i, (i + 1) % n]);
        }
        ShareGraph::new(b.build())
    }

    #[test]
    fn triangle_has_loops_for_all_far_edges() {
        // Triangle with distinct registers per edge: every (i, e_jk) with
        // {i,j,k} = {0,1,2} has the loop (i, k, j).
        let g = ring(3);
        for i in 0..3u32 {
            let (j, k) = ((i + 1) % 3, (i + 2) % 3);
            for e in [edge(j, k), edge(k, j)] {
                let w = find_loop(&g, ReplicaId::new(i), e, LoopConfig::EXHAUSTIVE, None)
                    .unwrap_or_else(|| panic!("no ({i}, {e})-loop"));
                assert!(w.verify(&g), "witness failed verification: {w:?}");
                assert_eq!(w.num_edges(), 3);
            }
        }
    }

    #[test]
    fn ring_tracks_all_edges() {
        // In a ring with distinct per-edge registers every replica must
        // track every directed edge: 2n counters (Section 4 implication).
        let n = 6;
        let g = ring(n);
        let i = ReplicaId::new(0);
        for &e in g.edges() {
            if e.touches(i) {
                continue;
            }
            let w = find_loop(&g, i, e, LoopConfig::EXHAUSTIVE, None)
                .unwrap_or_else(|| panic!("no (0, {e})-loop in ring"));
            assert!(w.verify(&g));
        }
    }

    #[test]
    fn line_has_no_loops() {
        // A path graph has no cycles at all, so no (i, e_jk)-loops.
        let p = Placement::builder(4)
            .share(0, [0, 1])
            .share(1, [1, 2])
            .share(2, [2, 3])
            .build();
        let g = ShareGraph::new(p);
        for i in g.replicas() {
            for &e in g.edges() {
                if !e.touches(i) {
                    assert!(!exists_loop(&g, i, e, LoopConfig::EXHAUSTIVE));
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let g = ring(4);
        // i on the edge, or edge not in E.
        assert!(!exists_loop(
            &g,
            ReplicaId::new(1),
            edge(1, 2),
            LoopConfig::EXHAUSTIVE
        ));
        assert!(!exists_loop(
            &g,
            ReplicaId::new(2),
            edge(1, 2),
            LoopConfig::EXHAUSTIVE
        ));
        assert!(!exists_loop(
            &g,
            ReplicaId::new(0),
            edge(1, 3),
            LoopConfig::EXHAUSTIVE
        ));
    }

    #[test]
    fn bounded_search_misses_long_loops() {
        let g = ring(6);
        let i = ReplicaId::new(0);
        let far = edge(3, 4); // requires the full 6-cycle
        assert!(exists_loop(&g, i, far, LoopConfig::EXHAUSTIVE));
        assert!(!exists_loop(&g, i, far, LoopConfig::bounded(5)));
        assert!(exists_loop(&g, i, far, LoopConfig::bounded(6)));
    }

    #[test]
    fn shared_register_around_cycle_kills_loop() {
        // 4-cycle where one register y is shared by replicas 1, 2, 3:
        // X0={a,d}, X1={a,y}, X2={y,b}, X3={b,d}... make edges:
        // 0-1: a, 1-2: y, 2-3: b, 3-0: d; and y also stored at 3.
        // For i=0, edge e_12 (j=1, k=2): left path (0,3,2): interior {3};
        // condition (i): X_12 − X_3 = {y} − {b,d,y} = ∅ ⇒ that left path
        // fails; left path (0, 1...) can't be used since j=1. So no loop.
        let p = Placement::builder(4)
            .share(0, [0, 1]) // a: 0-1
            .share(1, [1, 2, 3]) // y: 1-2 and 3
            .share(2, [2, 3]) // b: 2-3
            .share(3, [3, 0]) // d: 3-0
            .build();
        let g = ShareGraph::new(p);
        assert!(g.has_edge(edge(1, 2)));
        assert!(!exists_loop(
            &g,
            ReplicaId::new(0),
            edge(1, 2),
            LoopConfig::EXHAUSTIVE
        ));
        // But e_21 (j=2, k=1): left path (0,1): interior ∅;
        // (i): X_21 − ∅ = {y} ≠ ∅; right path (2,3,0):
        // (ii): X_23 − ∅ = {b} ≠ ∅; (iii): X_30 − X_1 = {d}−{a,y,b... wait
        // X_1 = {a,y}; {d} − {a,y} ≠ ∅. Loop exists.
        assert!(exists_loop(
            &g,
            ReplicaId::new(0),
            edge(2, 1),
            LoopConfig::EXHAUSTIVE
        ));
    }

    #[test]
    fn witness_verify_rejects_corrupted() {
        let g = ring(4);
        let i = ReplicaId::new(0);
        let e = edge(2, 3); // j=2, k=3? left path from 0 to 3, right 2->...->0
        let mut w = find_loop(&g, i, e, LoopConfig::EXHAUSTIVE, None).expect("loop");
        assert!(w.verify(&g));
        w.right.push(ReplicaId::new(3)); // duplicate vertex
        assert!(!w.verify(&g));
    }
}
