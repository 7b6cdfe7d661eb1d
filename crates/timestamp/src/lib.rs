//! Timestamps for partially replicated causal consistency.
//!
//! Implements the metadata side of Xiang & Vaidya's algorithm:
//!
//! * [`EdgeTimestamp`] / [`TsRegistry`] — the edge-indexed vector
//!   timestamps of Section 3.3 with `advance`, `merge`, and the delivery
//!   predicate `J`;
//! * [`ClientTimestamp`] / [`ClientTsRegistry`] — the client-server
//!   extension of Appendix E.5 (`J₁`/`J₂`, `merge₁`/`merge₂`, client-aware
//!   `advance`);
//! * [`VectorClock`] — the classic length-`R` baseline used by
//!   full-replication systems (Lazy Replication) and by the
//!   dummy-register emulation of Appendix D;
//! * [`compress`] — Appendix D's timestamp compression (rank / atom
//!   analysis);
//! * [`bits`] — timestamp sizes in bits and the closed-form lower bounds
//!   of Section 4.
//!
//! # Examples
//!
//! ```
//! use prcc_sharegraph::{topology, TimestampGraphs, LoopConfig, ReplicaId, RegisterId};
//! use prcc_timestamp::TsRegistry;
//!
//! let g = topology::ring(4);
//! let graphs = TimestampGraphs::build(&g, LoopConfig::EXHAUSTIVE);
//! let reg = TsRegistry::new(&g, graphs);
//! let mut t = reg.new_timestamp(ReplicaId::new(0));
//! reg.advance(&mut t, RegisterId::new(0));
//! assert_eq!(t.max_counter(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bits;
pub mod client_ts;
pub mod compress;
pub mod edge_ts;
pub mod vector_clock;
pub mod wire;

pub use client_ts::{ClientTimestamp, ClientTsRegistry};
pub use compress::{compress_replica, CompressionReport};
pub use edge_ts::{EdgeTimestamp, JVerdict, Stamp, TsRegistry};
pub use vector_clock::VectorClock;
pub use wire::{DecodeError, DerivedRow, PairLayout, WireDecoder, WireEncoder};
