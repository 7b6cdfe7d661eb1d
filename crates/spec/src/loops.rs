//! The loop definitions as the paper states them: Definition 4's
//! `(i, e_jk)`-loop and Definition 27's augmented loop (Appendix E).
//!
//! [`loops`] lists every simple cycle through `i` that crosses `e_jk`
//! from `k` to `j`, and keeps those that [`is_loop`] accepts. Nothing is
//! pruned and no condition is checked early, so the production search
//! (`prcc_sharegraph::find_loop`) can be compared with it for
//! completeness as well as soundness.

use prcc_sharegraph::{ClientAssignment, EdgeId, RegisterId, ReplicaId, ShareGraph};

/// One loop `(i, l_1, …, l_s, r_1, …, r_t)`, closing back at `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// `l_1, …, l_s` with `l_s = k`.
    pub left: Vec<ReplicaId>,
    /// `r_1, …, r_t` with `r_1 = j`.
    pub right: Vec<ReplicaId>,
}

impl Loop {
    /// Number of edges of the cycle: `1 + s + t`.
    pub fn num_edges(&self) -> usize {
        1 + self.left.len() + self.right.len()
    }
}

/// Adjacency in `G`, or in the augmented share graph `Ĝ` with `clients`.
fn adjacent(
    g: &ShareGraph,
    clients: Option<&ClientAssignment>,
    a: ReplicaId,
    b: ReplicaId,
) -> bool {
    g.has_edge(EdgeId::new(a, b)) || clients.is_some_and(|c| c.co_accessed(a, b))
}

/// True if some register of `X_ab` is stored at none of `replicas`.
fn shares_outside(g: &ShareGraph, a: ReplicaId, b: ReplicaId, replicas: &[ReplicaId]) -> bool {
    let stored_by = |x: RegisterId| replicas.iter().any(|&l| g.placement().stores(l, x));
    g.edge_registers(EdgeId::new(a, b))
        .iter()
        .any(|x| !stored_by(x))
}

/// True if `(i, left, right)` is an `(i, e_jk)`-loop (Definition 4), or
/// with `clients` an augmented one (Definition 27): the cycle runs in
/// `Ĝ`, and a pair some client co-accesses satisfies conditions (ii) and
/// (iii) whatever the registers.
pub fn is_loop(
    g: &ShareGraph,
    clients: Option<&ClientAssignment>,
    i: ReplicaId,
    e: EdgeId,
    lp: &Loop,
) -> bool {
    let (j, k) = (e.from, e.to);
    if !g.has_edge(e) || lp.left.last() != Some(&k) || lp.right.first() != Some(&j) {
        return false;
    }
    let mut cycle = vec![i];
    cycle.extend(&lp.left);
    cycle.extend(&lp.right);
    let mut distinct = cycle.clone();
    distinct.sort();
    distinct.dedup();
    if distinct.len() != cycle.len() {
        return false;
    }
    let mut closed = cycle.iter().zip(cycle.iter().skip(1).chain([&i]));
    if !closed.all(|(&a, &b)| adjacent(g, clients, a, b)) {
        return false;
    }
    let client_hop = |a, b| clients.is_some_and(|c| c.co_accessed(a, b));
    let interior = &lp.left[..lp.left.len() - 1];
    // (i) X_jk − ∪_{p<s} X_{l_p} ≠ ∅.
    if !shares_outside(g, j, k, interior) {
        return false;
    }
    // (ii) X_{j r_2} − ∪_{p<s} X_{l_p} ≠ ∅, with r_2 = i when t = 1.
    let r2 = lp.right.get(1).copied().unwrap_or(i);
    if !(shares_outside(g, j, r2, interior) || client_hop(j, r2)) {
        return false;
    }
    // (iii) X_{r_q r_{q+1}} − ∪_{p≤s} X_{l_p} ≠ ∅ for 2 ≤ q ≤ t.
    (1..lp.right.len()).all(|q| {
        let (a, b) = (lp.right[q], lp.right.get(q + 1).copied().unwrap_or(i));
        shares_outside(g, a, b, &lp.left) || client_hop(a, b)
    })
}

/// Every `(i, e_jk)`-loop of `g` (augmented loops with `clients`), each
/// once, found by listing all simple cycles `i → … → k → j → … → i` of
/// `G` (or `Ĝ`) and keeping those [`is_loop`] accepts.
pub fn loops(
    g: &ShareGraph,
    clients: Option<&ClientAssignment>,
    i: ReplicaId,
    e: EdgeId,
) -> Vec<Loop> {
    let (j, k) = (e.from, e.to);
    if i == j || i == k || j == k {
        return Vec::new();
    }
    let mut out = Vec::new();
    for left in simple_paths(g, clients, i, k, &[j]) {
        // A right path runs j → … → i and avoids every left vertex.
        for path in simple_paths(g, clients, j, i, &left) {
            let mut right = vec![j];
            right.extend(&path[..path.len() - 1]);
            let lp = Loop {
                left: left.clone(),
                right,
            };
            if is_loop(g, clients, i, e, &lp) {
                out.push(lp);
            }
        }
    }
    out
}

/// Every simple path `from → … → to` whose vertices after `from` avoid
/// `avoid`, listed without `from` (so it ends with `to`).
fn simple_paths(
    g: &ShareGraph,
    clients: Option<&ClientAssignment>,
    from: ReplicaId,
    to: ReplicaId,
    avoid: &[ReplicaId],
) -> Vec<Vec<ReplicaId>> {
    fn extend(
        g: &ShareGraph,
        clients: Option<&ClientAssignment>,
        path: &mut Vec<ReplicaId>,
        to: ReplicaId,
        avoid: &[ReplicaId],
        out: &mut Vec<Vec<ReplicaId>>,
    ) {
        let v = *path.last().expect("path starts at `from`");
        for w in g.replicas() {
            if path.contains(&w) || avoid.contains(&w) || !adjacent(g, clients, v, w) {
                continue;
            }
            path.push(w);
            if w == to {
                out.push(path[1..].to_vec());
            } else {
                extend(g, clients, path, to, avoid, out);
            }
            path.pop();
        }
    }
    let mut out = Vec::new();
    extend(g, clients, &mut vec![from], to, avoid, &mut out);
    out
}
