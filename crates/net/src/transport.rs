//! The transport seam between a replica runtime and a message substrate.
//!
//! `prcc-core`'s threaded runtime drives its per-replica event loop
//! through five operations — identity, fire-and-forget send,
//! non-blocking receive, the [`Doorbell`] its other input sources ring,
//! and the park that waits for the next input (a bounded blocking
//! receive serves callers that have no loop of their own: tests and
//! probes). [`Transport`] names that seam so the same loop runs unchanged
//! over [`ThreadNet`](crate::ThreadNet) handles (in-process, seeded
//! delays and faults) and [`TcpEndpoint`](crate::TcpEndpoint) handles
//! (real kernel sockets, one process per replica).
//!
//! A thread's first park through this crate sets its own timer slack to
//! 10 µs. The kernel's default lets a timed park end up to 50 µs past
//! its deadline, and every update's delivery waits out a park that ends
//! on a due instant — two, when the sender promised the ring — so the
//! default slack would add up to 100 µs to each hop.

use crate::sim_net::Envelope;
use crate::thread_net::NodeHandle;
use prcc_sharegraph::ReplicaId;
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The timer slack, in nanoseconds, that a thread sets on its first park
/// through this crate: how late past its deadline the kernel may end a
/// timed park. Not 1 ns: a wake at the exact due instant of a frame finds
/// fewer frames due than one that lands a little later, so loops pass
/// more often for the same work (DESIGN §14 has the sweep).
pub(crate) const PARK_SLACK_NS: u64 = 10_000;

/// `std::thread::park_timeout`, after setting the calling thread's timer
/// slack to [`PARK_SLACK_NS`] on its first park here. The slack is per
/// thread, so no thread that never parks through this crate is touched.
pub(crate) fn park_timeout(wait: Duration) {
    thread_local!(static SLACK_SET: Cell<bool> = const { Cell::new(false) });
    if !SLACK_SET.replace(true) {
        crate::os::set_timer_slack(PARK_SLACK_NS);
    }
    std::thread::park_timeout(wait);
}

/// Wake-on-arrival for the one thread that consumes a node's input.
///
/// The consumer [`bind`](Doorbell::bind)s the bell to itself, drains its
/// queues, and [`wait_until`](Doorbell::wait_until)s its next deadline;
/// every producer enqueues first and [`ring`](Doorbell::ring)s second.
/// Built on `std::thread::park_timeout` / `Thread::unpark`, whose token is
/// sticky: a ring that lands between the consumer's last queue check and
/// its park makes that park return at once, so no arrival is ever slept
/// through, and ringing a thread that is not parked costs one atomic swap
/// and no syscall.
#[derive(Clone, Debug, Default)]
pub struct Doorbell(Arc<OnceLock<Thread>>);

impl Doorbell {
    /// An unbound bell: rings are no-ops until a consumer binds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the bell to the calling thread (the first bind wins).
    /// Deliveries rung before this are not lost: they are already queued,
    /// and a consumer drains its queues before its first wait.
    pub fn bind(&self) {
        let _ = self.0.set(std::thread::current());
    }

    /// Wakes the bound thread if it is parked, or makes its next park
    /// return immediately if it is not.
    pub fn ring(&self) {
        if let Some(t) = self.0.get() {
            t.unpark();
        }
    }

    /// True if the calling thread is the one bound to this bell.
    pub(crate) fn is_bound_here(&self) -> bool {
        self.0
            .get()
            .is_some_and(|t| t.id() == std::thread::current().id())
    }

    /// Parks the calling thread — which must be the bound one — until the
    /// bell rings or `deadline` passes. May also return spuriously;
    /// callers re-check their queues after every return. The thread's
    /// first park sets its timer slack (see the [module docs](self)).
    pub fn wait_until(&self, deadline: Instant) {
        debug_assert!(
            self.is_bound_here(),
            "Doorbell::wait_until from a thread the bell is not bound to"
        );
        let wait = deadline.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            park_timeout(wait);
        }
    }
}

/// A per-node message endpoint: everything the replica event loop needs
/// from a network.
///
/// Semantics required of implementations:
///
/// * `send` never blocks the caller — a backed-up or disconnected peer
///   surfaces as `false` (loss), which the session layer repairs;
/// * delivery may reorder, duplicate, or drop messages — the protocol
///   stack above assumes nothing stronger;
/// * `try_recv`/`recv_timeout` return messages addressed to this node,
///   each tagged with its true source;
/// * a message is delivered by its due instant: a consumer parked in
///   [`wait_until`](Transport::wait_until) wakes by the time it can be
///   received — a substrate that misses one leaves a parked loop asleep
///   until its next deadline.
pub trait Transport: Send + 'static {
    /// The message type carried.
    type Msg;

    /// This node's replica id.
    fn id(&self) -> ReplicaId;

    /// Sends `msg` to `dst` without blocking. Returns `false` if the
    /// message was immediately known to be lost (shed on a full queue or
    /// a shut-down substrate); `true` means *accepted*, not delivered.
    fn send(&self, dst: ReplicaId, msg: Self::Msg) -> bool;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope<Self::Msg>>;

    /// Blocking receive with timeout.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<Self::Msg>>;

    /// The bell of this node's consumer. An event loop binds it, and its
    /// other input sources ring it after every enqueue.
    fn doorbell(&self) -> &Doorbell;

    /// Parks the consumer — the thread bound to
    /// [`doorbell`](Transport::doorbell) — until `deadline`, a ring, or
    /// a delivery, whichever comes first. May return early; callers
    /// re-check their inputs after every return. The default parks on
    /// the doorbell, for substrates that ring it on every delivery.
    ///
    /// A thread's first park sets its timer slack to 10 µs, from the
    /// kernel's 50 µs default, so a park ends close to `deadline`: every
    /// delivery waits out a park that ends on the frame's due instant,
    /// and session retransmit timers end on one too.
    fn wait_until(&self, deadline: Instant) {
        self.doorbell().wait_until(deadline);
    }
}

impl<M: Clone + Send + 'static> Transport for NodeHandle<M> {
    type Msg = M;

    fn id(&self) -> ReplicaId {
        NodeHandle::id(self)
    }

    fn send(&self, dst: ReplicaId, msg: M) -> bool {
        NodeHandle::send(self, dst, msg)
    }

    fn try_recv(&self) -> Option<Envelope<M>> {
        NodeHandle::try_recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        NodeHandle::recv_timeout(self, timeout)
    }

    fn doorbell(&self) -> &Doorbell {
        NodeHandle::doorbell(self)
    }

    fn wait_until(&self, deadline: Instant) {
        NodeHandle::wait_until(self, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn ring_before_wait_is_not_slept_through() {
        let bell = Doorbell::new();
        bell.bind();
        bell.ring();
        let t = Instant::now();
        bell.wait_until(t + Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(1), "sticky ring was lost");
    }

    #[test]
    fn ring_wakes_a_parked_consumer_and_unbound_ring_is_a_no_op() {
        let bell = Doorbell::new();
        bell.ring(); // nobody bound yet
        let rung = Arc::new(AtomicBool::new(false));
        let consumer = std::thread::spawn({
            let (bell, rung) = (bell.clone(), rung.clone());
            move || {
                bell.bind();
                let t = Instant::now();
                while !rung.load(Ordering::SeqCst) {
                    bell.wait_until(t + Duration::from_secs(5));
                }
                t.elapsed()
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        rung.store(true, Ordering::SeqCst);
        bell.ring();
        let waited = consumer.join().unwrap();
        assert!(
            waited < Duration::from_secs(1),
            "ring did not wake the park"
        );
    }

    #[test]
    fn wait_until_returns_at_the_deadline() {
        let bell = Doorbell::new();
        bell.bind();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(5) {
            bell.wait_until(t + Duration::from_millis(5));
        }
        assert!(t.elapsed() < Duration::from_secs(1));
    }
}
