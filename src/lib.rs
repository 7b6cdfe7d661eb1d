//! # prcc — Partially Replicated Causally Consistent shared memory
//!
//! A production-quality reproduction of *"Partially Replicated Causally
//! Consistent Shared Memory: Lower Bounds and An Algorithm"* (Xiang &
//! Vaidya; brief announcement at PODC 2018).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sharegraph`] — share graphs, `(i, e_jk)`-loops, timestamp graphs
//!   (Definitions 3–5), hoops, client-server augmented graphs;
//! * [`timestamp`] — edge-indexed vector timestamps (`advance`/`merge`/
//!   predicate `J`, Section 3.3), vector-clock baseline, compression,
//!   lower-bound formulas;
//! * [`net`] — deterministic simulated network and a threaded transport
//!   (reliable, asynchronous, non-FIFO channels);
//! * [`core`] — the replica prototype (Section 2.1), complete simulated
//!   deployments, the client-server protocol (Appendix E), dummy
//!   registers, ring breaking, loop truncation (Appendix D);
//! * [`sim`] — workload generation and scenario measurement;
//! * [`checker`] — protocol-independent causal-consistency verification.
//!
//! ## Quickstart
//!
//! ```
//! use prcc::core::{System, Value};
//! use prcc::sharegraph::{topology, ReplicaId, RegisterId};
//!
//! // Four replicas in a ring, one shared register per adjacent pair.
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

pub use prcc_checker as checker;
pub use prcc_core as core;
pub use prcc_net as net;
pub use prcc_sharegraph as sharegraph;
pub use prcc_sim as sim;
pub use prcc_timestamp as timestamp;
