//! Timestamp compression — Appendix D of the paper.
//!
//! The counters of a replica's timestamp are not independent: the counter
//! of edge `e_jk` equals the number of writes by `j` to registers in
//! `X_jk`, so if `X_j4 = X_j1 ∪ X_j2 ∪ X_j3` (disjointly), the fourth
//! counter is the sum of the first three. For each issuer `j`, the minimum
//! number of counters needed to reconstruct all of `O_j` (the outgoing
//! edges of `j` tracked in `E_i`) is the **rank** of the edge×register
//! incidence matrix; counting per register *atom* (groups of registers
//! with identical edge membership) is the paper's refinement that can
//! shrink individual counters further.
//!
//! In the full-replication clique every issuer's outgoing edges carry the
//! same register set (rank 1 each), so the compressed timestamp collapses
//! to one counter per replica — exactly a classic vector clock, as the
//! paper observes.

use prcc_sharegraph::{RegSet, RegisterId, ReplicaId, ShareGraph, TimestampGraph};
use std::collections::HashMap;

/// The result of compressing one replica's timestamp (experiment E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionReport {
    /// The replica whose timestamp was analyzed.
    pub replica: ReplicaId,
    /// Counters before compression: `|E_i|`.
    pub uncompressed: usize,
    /// Minimum counters with linear reconstruction: `Σ_j rank(O_j)`.
    pub rank_compressed: usize,
    /// Counters when counting per register atom: `Σ_j atoms(O_j)`.
    pub atom_compressed: usize,
}

impl CompressionReport {
    /// Compression ratio `uncompressed / rank_compressed` (1.0 when
    /// nothing compresses; ∞ avoided by treating 0 as 1).
    pub fn ratio(&self) -> f64 {
        self.uncompressed as f64 / self.rank_compressed.max(1) as f64
    }
}

/// Rank over ℚ of the 0/1 matrix whose rows are the register sets in
/// `rows` (columns = union of registers). Uses fraction-free Gaussian
/// elimination on `i128` (Bareiss), exact for these sizes.
pub fn rank(rows: &[RegSet]) -> usize {
    // Column index assignment.
    let mut cols: Vec<RegisterId> = Vec::new();
    {
        let mut seen = RegSet::new();
        for r in rows {
            for x in r.iter() {
                if seen.insert(x) {
                    cols.push(x);
                }
            }
        }
    }
    if cols.is_empty() || rows.is_empty() {
        return 0;
    }
    let mut m: Vec<Vec<i128>> = rows
        .iter()
        .map(|r| cols.iter().map(|&c| i128::from(r.contains(c))).collect())
        .collect();
    let (nr, nc) = (m.len(), cols.len());
    let mut rank = 0;
    let mut prev_pivot: i128 = 1;
    for col in 0..nc {
        // Find pivot row.
        let pivot_row = (rank..nr).find(|&r| m[r][col] != 0);
        let Some(p) = pivot_row else { continue };
        m.swap(rank, p);
        let pivot = m[rank][col];
        for r in 0..nr {
            if r == rank || m[r][col] == 0 {
                continue;
            }
            for c in 0..nc {
                if c == col {
                    continue;
                }
                m[r][c] = (m[r][c] * pivot - m[rank][c] * m[r][col]) / prev_pivot;
            }
            m[r][col] = 0;
        }
        prev_pivot = pivot;
        rank += 1;
        if rank == nr {
            break;
        }
    }
    rank
}

/// Number of register *atoms* across `rows`: registers are equivalent when
/// they appear in exactly the same rows; atoms are the non-empty classes.
pub fn atoms(rows: &[RegSet]) -> usize {
    let mut signature: HashMap<RegisterId, u64> = HashMap::new();
    for (idx, r) in rows.iter().enumerate() {
        for x in r.iter() {
            *signature.entry(x).or_insert(0) |= 1u64 << (idx % 64);
        }
    }
    // For > 64 rows the bit signature could collide; fall back to exact
    // membership vectors in that case.
    if rows.len() <= 64 {
        let mut sigs: Vec<u64> = signature.values().copied().collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs.len()
    } else {
        let mut sigs: Vec<Vec<bool>> = signature
            .keys()
            .map(|&x| rows.iter().map(|r| r.contains(x)).collect())
            .collect();
        sigs.sort();
        sigs.dedup();
        sigs.len()
    }
}

/// Analyzes the compressibility of replica `tg.replica()`'s timestamp
/// under share graph `g` (Appendix D "Compressing timestamps").
pub fn compress_replica(g: &ShareGraph, tg: &TimestampGraph) -> CompressionReport {
    // Group tracked edges by issuer j.
    let mut by_issuer: HashMap<ReplicaId, Vec<RegSet>> = HashMap::new();
    for &e in tg.edges() {
        by_issuer
            .entry(e.from)
            .or_default()
            .push(g.edge_registers(e).clone());
    }
    let mut rank_total = 0;
    let mut atom_total = 0;
    for rows in by_issuer.values() {
        rank_total += rank(rows);
        atom_total += atoms(rows);
    }
    CompressionReport {
        replica: tg.replica(),
        uncompressed: tg.len(),
        rank_compressed: rank_total,
        atom_compressed: atom_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::{topology, LoopConfig, Placement, TimestampGraphs};

    fn rs(v: &[u32]) -> RegSet {
        RegSet::from_indices(v.iter().copied())
    }

    #[test]
    fn rank_of_disjoint_rows() {
        assert_eq!(rank(&[rs(&[0]), rs(&[1]), rs(&[2])]), 3);
    }

    #[test]
    fn rank_detects_union_dependency() {
        // {x}, {y}, {z}, {x,y,z}: the fourth row is the sum of the others.
        assert_eq!(rank(&[rs(&[0]), rs(&[1]), rs(&[2]), rs(&[0, 1, 2])]), 3);
    }

    #[test]
    fn rank_of_identical_rows_is_one() {
        assert_eq!(rank(&[rs(&[0, 1]), rs(&[0, 1]), rs(&[0, 1])]), 1);
    }

    #[test]
    fn rank_of_empty() {
        assert_eq!(rank(&[]), 0);
        assert_eq!(rank(&[RegSet::new()]), 0);
    }

    #[test]
    fn rank_overlapping_independent() {
        // {x,y}, {y,z}: independent (rank 2) though overlapping.
        assert_eq!(rank(&[rs(&[0, 1]), rs(&[1, 2])]), 2);
    }

    #[test]
    fn atoms_counts_membership_classes() {
        // {x}, {y}, {z}, {x,y,z}: atoms are {x}, {y}, {z} ⇒ 3.
        assert_eq!(atoms(&[rs(&[0]), rs(&[1]), rs(&[2]), rs(&[0, 1, 2])]), 3);
        // {x,y} and {y,z}: atoms {x}, {y}, {z} ⇒ 3 (atoms ≥ rank).
        assert_eq!(atoms(&[rs(&[0, 1]), rs(&[1, 2])]), 3);
        // identical rows: single atom.
        assert_eq!(atoms(&[rs(&[0, 1]), rs(&[0, 1])]), 1);
    }

    #[test]
    fn appendix_d_example_compresses() {
        // The nested_example topology embeds the X_j1={x}, X_j2={y},
        // X_j3={z}, X_j4={x,y,z} example: replica 4 sees issuer 0's four
        // outgoing edges... here we check issuer 0's edges from replica 4's
        // perspective using the raw row API.
        let g = topology::nested_example();
        use prcc_sharegraph::edge;
        let rows: Vec<RegSet> = [edge(0, 1), edge(0, 2), edge(0, 3), edge(0, 4)]
            .iter()
            .map(|&e| g.edge_registers(e).clone())
            .collect();
        assert_eq!(rank(&rows), 3);
        assert_eq!(atoms(&rows), 3);
    }

    #[test]
    fn clique_compresses_to_vector_clock() {
        // Full replication: each replica's compressed timestamp has R
        // counters — the classic vector clock (paper, Section 5).
        let r = 5;
        let g = topology::clique_full(r, 4);
        let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        for tg in graphs.iter() {
            let rep = compress_replica(&g, tg);
            assert_eq!(rep.rank_compressed, r, "replica {}", tg.replica());
            assert_eq!(rep.atom_compressed, r);
            assert!(rep.uncompressed > r);
            assert!(rep.ratio() > 1.0);
        }
    }

    #[test]
    fn ring_does_not_compress() {
        // Distinct register per edge: nothing is linearly dependent.
        let g = topology::ring(5);
        let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
        for tg in graphs.iter() {
            let rep = compress_replica(&g, tg);
            assert_eq!(rep.rank_compressed, rep.uncompressed);
            assert!((rep.ratio() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph_report() {
        let g = ShareGraph::new(Placement::builder(2).build());
        let tg = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
        let rep = compress_replica(&g, &tg);
        assert_eq!(rep.uncompressed, 0);
        assert_eq!(rep.rank_compressed, 0);
        assert_eq!(rep.ratio(), 0.0);
    }
}
