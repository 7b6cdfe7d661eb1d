//! Share graphs, `(i, e_jk)`-loops, and timestamp graphs for partially
//! replicated causally consistent shared memory.
//!
//! This crate implements the graph-theoretic machinery of *"Partially
//! Replicated Causally Consistent Shared Memory: Lower Bounds and An
//! Algorithm"* (Xiang & Vaidya; PODC 2018 brief announcement):
//!
//! * [`Placement`] — the static register-to-replica assignment `X_i`;
//! * [`ShareGraph`] — Definition 3: replicas adjacent iff they share a
//!   register;
//! * [`loops`] — Definition 4: the `(i, e_jk)`-loop condition that makes an
//!   edge *necessary* to track (Theorem 8);
//! * [`TimestampGraph`] — Definition 5: the exact edge set `E_i` each
//!   replica must (and need only) keep counters for;
//! * [`hoops`] — the Hélary–Milani minimal-hoop condition the paper
//!   corrects (Section 3.2);
//! * [`augmented`] — the client-server extension (Section 6, Appendix E);
//! * [`topology`] and [`paper_examples`] — generators and the paper's
//!   figures.
//!
//! # Examples
//!
//! Reproducing the paper's Figure 5 worked example:
//!
//! ```
//! use prcc_sharegraph::{paper_examples, TimestampGraph, ReplicaId, edge, LoopConfig};
//!
//! let g = paper_examples::figure5();
//! let g1 = TimestampGraph::build(&g, ReplicaId::new(0), LoopConfig::EXHAUSTIVE);
//! assert!(g1.contains(edge(3, 2)));  // e_43 is tracked by replica 1
//! assert!(!g1.contains(edge(2, 3))); // e_34 is not
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod augmented;
pub mod dot;
pub mod graph;
pub mod hoops;
pub mod ids;
pub mod loops;
pub mod paper_examples;
pub mod placement;
pub mod regset;
pub mod spanning;
pub mod topology;
pub mod tsgraph;

pub use augmented::{AugmentedShareGraph, ClientAssignment};
pub use graph::ShareGraph;
pub use ids::{edge, ClientId, EdgeId, RegisterId, ReplicaId};
pub use loops::{exists_loop, find_loop, LoopConfig, LoopWitness};
pub use placement::{Placement, PlacementBuilder};
pub use regset::RegSet;
pub use spanning::SpanningTree;
pub use tsgraph::{TimestampGraph, TimestampGraphs};
