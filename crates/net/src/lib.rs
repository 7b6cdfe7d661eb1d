//! Network substrates for the PRCC reproduction.
//!
//! The paper assumes an asynchronous system of replicas connected by
//! reliable, point-to-point, **non-FIFO** channels. Two drivers over one
//! link core provide that model; the core rolls each send's fault action
//! and delays from its sender's seeded stream, so one seed draws the same
//! per-link sequence under both:
//!
//! * [`SimNetwork`] — a lockstep discrete-event network over simulated
//!   ticks, fully reproducible, with link-hold controls for constructing
//!   the adversarial executions used in the paper's impossibility proofs;
//! * [`ThreadNet`] — a real-threads transport (per-node inboxes that
//!   hold each message until its seeded delay is up) for exercising the
//!   protocol under genuine concurrency.
//!
//! Delays come from a shared [`DelayModel`], faults from a
//! [`FaultSchedule`].
//!
//! # Examples
//!
//! ```
//! use prcc_net::{SimNetwork, DelayModel, ThreadNet, TICK};
//! use prcc_sharegraph::ReplicaId;
//! use std::time::Instant;
//!
//! let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
//! let delay = DelayModel::Uniform { min: 1, max: 9 };
//! let mut sim: SimNetwork<u64> = SimNetwork::new(delay.clone(), 1);
//! sim.send(a, b, 99);
//! let (ticks, env) = sim.next_delivery().unwrap();
//! assert_eq!(env.msg, 99);
//!
//! // Node 0's first send under seed 1 draws the same delay on threads.
//! let net: ThreadNet<u64> = ThreadNet::new(2, delay, 1);
//! let before = Instant::now();
//! net.handle(a).send(b, 99);
//! let (after, flight) = (Instant::now(), TICK * ticks as u32);
//! let due = net.handle(b).next_due().unwrap();
//! assert!(before + flight <= due && due <= after + flight);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod delay;
pub mod faults;
mod link;
mod lockstep;
#[allow(unsafe_code)]
mod os;
pub mod session;
pub mod tcp_net;
pub mod thread_net;
pub mod transport;

pub use delay::DelayModel;
pub use faults::{CrashEvent, FaultPlan, FaultSchedule, LinkOutage};
pub use link::Envelope;
pub use lockstep::{NetStats, SimNetwork};
pub use session::{SessionConfig, SessionEndpoint, SessionFrame, SessionStats};
pub use tcp_net::{
    pack_zero_runs, unpack_zero_runs, BoundListener, CodecFactory, FrameBuffer, FrameError,
    LinkCodec, TcpEndpoint, TcpHandle, TcpNetConfig, TcpStatsSnapshot,
};
pub use thread_net::{NodeHandle, ThreadNet, TICK};
pub use transport::{Doorbell, Transport};
