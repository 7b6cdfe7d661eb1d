//! Causal-consistency checking for the PRCC reproduction.
//!
//! Protocol-independent verification machinery:
//!
//! * [`Trace`] — execution records (issues and applies, globally ordered);
//! * [`HbGraph`] — the exact happened-before relation `↪` of Definition 1;
//! * [`check`] — safety and liveness of replica-centric causal consistency
//!   (Definition 2), reporting every [`Violation`];
//! * [`conflict`] — the conflict relation on causal pasts (Definition 13)
//!   underlying the paper's timestamp-space lower bound (Theorem 15).
//!
//! The checker never looks at protocol metadata: it recomputes causality
//! from the trace itself, so it catches protocols that under-track
//! (safety violations) or lose updates (liveness violations).
//!
//! # Examples
//!
//! ```
//! use prcc_checker::{Trace, check};
//! use prcc_sharegraph::{Placement, RegisterId, ReplicaId};
//!
//! let p = Placement::builder(2).share(0, [0, 1]).build();
//! let mut t = Trace::new();
//! let u = t.record_issue(ReplicaId::new(0), RegisterId::new(0));
//! t.record_apply(u, ReplicaId::new(1));
//! assert!(check(&t, &p).is_consistent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod conflict;
pub mod consistency;
pub mod hb;
pub mod lower_bound;
pub mod sessions;
pub mod trace;
pub mod trace_io;

pub use conflict::{conflicts, conflicts_symmetric, CausalPast};
pub use consistency::{causal_past, check, check_with_hb, CheckReport, Violation};
pub use hb::HbGraph;
pub use lower_bound::{greedy_coloring, prefix_clique_bits, verify_prefix_clique};
pub use sessions::{acked_writes, check_sessions, check_sessions_with_hb, SessionEvent};
pub use trace::{Event, Trace, UpdateId};
pub use trace_io::{from_text, to_text, ParseTraceError};
