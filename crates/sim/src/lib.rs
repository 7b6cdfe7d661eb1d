//! Simulation harness for the PRCC experiments: workload generation and
//! scenario running.
//!
//! * [`zipf`] — a seeded Zipf sampler;
//! * [`workload`] — schedules of client writes over a share graph;
//! * [`scenario`] — drive a workload through a
//!   [`System`](prcc_core::System) and measure messages, metadata bytes,
//!   latencies, and consistency.
//!
//! # Examples
//!
//! ```
//! use prcc_sim::scenario::{run_scenario, ScenarioConfig};
//! use prcc_sharegraph::topology;
//!
//! let g = topology::ring(4);
//! let report = run_scenario(&g, &ScenarioConfig::default());
//! assert!(report.consistent);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod client_scenario;
pub mod netrun;
pub mod scenario;
pub mod serving;
pub mod workload;
pub mod zipf;

pub use aggregate::{run_many, AggregateReport, Spread};
pub use client_scenario::{run_client_scenario, ClientRunReport, ClientScenarioConfig};
pub use netrun::{designated_writer, store_fingerprint, store_lines, write_value, NetWorkload};
pub use scenario::{run_head_to_head, run_scenario, RunReport, ScenarioConfig};
pub use serving::{
    generate_session_ops, run_serving_oracle, run_serving_scenario, OracleReport, ServingRunReport,
    ServingScenarioConfig, SessionOp,
};
pub use workload::{Op, Workload, WorkloadConfig};
