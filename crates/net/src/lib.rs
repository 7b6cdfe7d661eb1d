//! Network substrates for the PRCC reproduction.
//!
//! The paper assumes an asynchronous system of replicas connected by
//! reliable, point-to-point, **non-FIFO** channels. Two interchangeable
//! substrates provide that model:
//!
//! * [`SimNetwork`] — a deterministic discrete-event network, seeded and
//!   fully reproducible, with link-hold controls for constructing the
//!   adversarial executions used in the paper's impossibility proofs;
//! * [`ThreadNet`] — a real-threads transport (per-node inboxes that
//!   hold each message until its seeded delay is up) for exercising the
//!   protocol under genuine concurrency.
//!
//! Delays come from a shared [`DelayModel`].
//!
//! # Examples
//!
//! ```
//! use prcc_net::{SimNetwork, DelayModel};
//! use prcc_sharegraph::ReplicaId;
//!
//! let mut net: SimNetwork<u64> = SimNetwork::new(DelayModel::default(), 1);
//! net.send(ReplicaId::new(0), ReplicaId::new(1), 99);
//! let (_, env) = net.next_delivery().unwrap();
//! assert_eq!(env.msg, 99);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod delay;
pub mod faults;
#[allow(unsafe_code)]
mod os;
pub mod session;
pub mod sim_net;
pub mod tcp_net;
pub mod thread_net;
pub mod transport;

pub use delay::DelayModel;
pub use faults::{CrashEvent, FaultAction, FaultPlan, FaultSchedule, LinkOutage};
pub use session::{SessionConfig, SessionEndpoint, SessionFrame, SessionStats};
pub use sim_net::{Envelope, NetStats, SimNetwork};
pub use tcp_net::{
    pack_zero_runs, unpack_zero_runs, BoundListener, CodecFactory, FrameBuffer, FrameError,
    LinkCodec, TcpEndpoint, TcpHandle, TcpNetConfig, TcpStatsSnapshot,
};
pub use thread_net::{NodeHandle, ThreadNet, TICK};
pub use transport::{Doorbell, Transport};
