//! Partially replicated causally consistent shared memory — the protocol
//! core.
//!
//! Implements the replica prototype of Xiang & Vaidya (Section 2.1) with
//! pluggable causality trackers, plus the paper's optimizations:
//!
//! * [`Replica`] — the prototype state machine (write / pending / apply);
//! * [`EdgeTracker`] — the edge-indexed algorithm (Section 3.3);
//! * [`VcTracker`] — the vector-clock baseline with metadata broadcast
//!   (full-replication emulation, Appendix D);
//! * [`System`] — a complete simulated deployment over a deterministic
//!   network, producing checkable execution traces and metrics;
//! * dummy registers and oblivious replicas via [`SystemBuilder`];
//! * loop-truncated tracking via [`TrackerKind::EdgeIndexed`] with a
//!   bounded `LoopConfig` (Appendix D, "sacrificing causality").
//!
//! # Examples
//!
//! ```
//! use prcc_core::{System, Value};
//! use prcc_sharegraph::{topology, ReplicaId, RegisterId};
//!
//! let mut sys = System::builder(topology::ring(4)).seed(1).build();
//! sys.write(ReplicaId::new(0), RegisterId::new(0), Value::from(7u64));
//! sys.run_to_quiescence();
//! assert_eq!(
//!     sys.read(ReplicaId::new(1), RegisterId::new(0)),
//!     Some(&Value::from(7u64))
//! );
//! assert!(sys.check().is_consistent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod client_server;
pub mod codec;
pub mod construct;
mod engine;
pub mod explore;
pub mod explore_cs;
pub mod message;
pub mod netframe;
pub mod recovery;
pub mod replica;
pub mod routed_general;
pub mod runtime;
pub mod serving;
pub mod stats;
pub mod store_cow;
pub mod system;
pub mod tracker;
pub mod value;

pub use client_server::{ClientServerSystem, RequestId, SessionEvent};
pub use codec::{CodecStats, WireCodec, WireMode};
pub use construct::{propagate, release_all, WritePlan};
pub use explore::{ExplorationResult, Scenario, ScriptedWrite};
pub use explore_cs::{CsOp, CsScenario};
pub use message::{BatchMsg, DepEntry, Metadata, TransitInfo, UpdateMsg};
pub use netframe::{cluster_codec, ClusterCodec};
pub use recovery::{RecoveryLog, WalEntry};
pub use replica::{Applied, Replica, ReplicaError, WriteOutput};
pub use routed_general::{RoutedError, RoutedSystem};
pub use runtime::{
    merge_node_events, ClusterConfig, ClusterError, NodeEvent, ReplicaView, ThreadedCluster,
};
pub use serving::{
    Collected, ServingConfig, ServingError, ServingStats, ServingTier, ServingWorker,
};
pub use stats::LatencyStats;
pub use store_cow::{CowStore, Entry, SharedShards, StoreMode};
pub use system::{BatchPolicy, System, SystemBuilder, SystemMetrics, TrackerKind};
pub use tracker::{CausalityTracker, EdgeTracker, FullDepsTracker, ReadyCheck, VcTracker};
pub use value::Value;
