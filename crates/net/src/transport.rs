//! The transport seam between a replica runtime and a message substrate.
//!
//! `prcc-core`'s threaded runtime drives its replica engines through five
//! operations — identity, fire-and-forget send, non-blocking receive,
//! the [`Doorbell`] its input sources ring, and the instant the next
//! queued message falls due (a bounded blocking receive serves callers
//! that have no loop of their own: tests and probes). [`Transport`]
//! names that seam so the same worker loop runs unchanged over
//! [`ThreadNet`](crate::ThreadNet) handles (in-process, seeded delays and
//! faults) and [`TcpEndpoint`](crate::TcpEndpoint) handles (real kernel
//! sockets). Implementations are `Sync`: the runtime sends from whichever
//! thread issues a client write.
//!
//! A consumer sleeps on its doorbell's timer, and every producer moves
//! that timer: [`Doorbell::ring`] to now, [`Doorbell::ring_at`] to the
//! instant the consumer must be awake by. So a delivery due in 200 µs
//! wakes its receiver once, at the due instant, whatever thread sent it.
//! Several nodes may share one bell — the runtime gives every replica of
//! one worker thread the same bell — as long as one thread consumes it.
//! On Linux the timer is a `timerfd`, an exact kernel timer that the
//! parked thread's timer slack does not delay.

use crate::os::Timer;
use crate::sim_net::Envelope;
use crate::thread_net::NodeHandle;
use prcc_sharegraph::ReplicaId;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks `m`. Every critical section in this crate leaves its data valid
/// at each step, so a lock poisoned by a panicking holder is still sound
/// to use.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wake-on-time for the one thread that consumes the input of one or
/// more nodes.
///
/// The consumer drains its queues and [`park`](Doorbell::park)s until its
/// next deadline; every producer enqueues first and rings second —
/// [`ring`](Doorbell::ring) to wake the consumer now,
/// [`ring_at`](Doorbell::ring_at) to have it awake by an instant. The
/// consumer sleeps on a one-shot timer that a ring re-arms, so a ring
/// wakes it at most once and never before it asked for.
///
/// **No ring is lost.** A ring records its instant under the bell's lock
/// (the earliest one wins) whether or not the consumer is parked. A park
/// reads its queues' next due instant first, then, in one critical
/// section, folds the recorded instant into its deadline and arms the
/// timer. A ring that takes the lock before that section is folded in;
/// one that takes it after finds the timer armed and pulls it earlier if
/// it must. The recorded instant is dropped only once it has passed with
/// the consumer awake, so a ring that lands during a pass makes the next
/// park return at once.
#[derive(Clone)]
pub struct Doorbell(Arc<Bell>);

struct Bell {
    timer: Box<dyn Timer>,
    state: Mutex<BellState>,
}

#[derive(Default)]
struct BellState {
    /// What the timer is armed for while the consumer parks on it.
    armed: Option<Instant>,
    /// The earliest instant a ring asked the consumer to be awake by.
    due: Option<Instant>,
}

impl BellState {
    /// Forgets the recorded ring once it has passed: the consumer, awake
    /// now, re-checks its inputs before it parks again.
    fn awake(&mut self, now: Instant) {
        if self.due.is_some_and(|d| d <= now) {
            self.due = None;
        }
    }
}

impl fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock(&self.0.state);
        f.debug_struct("Doorbell")
            .field("armed", &s.armed)
            .field("due", &s.due)
            .finish()
    }
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::with_timer(crate::os::os_timer())
    }
}

impl Doorbell {
    /// A bell on this platform's timer.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_timer(timer: Box<dyn Timer>) -> Self {
        Doorbell(Arc::new(Bell {
            timer,
            state: Mutex::new(BellState::default()),
        }))
    }

    /// Wakes the consumer now if it is parked, or makes its next park
    /// return at once if it is not.
    pub fn ring(&self) {
        self.ring_at(Instant::now());
    }

    /// Makes sure the consumer is awake by `due`: a parked consumer's
    /// timer is pulled in to `due` if it would fire later, and a consumer
    /// that is not parked yet folds `due` into its next park.
    pub fn ring_at(&self, due: Instant) {
        let mut s = lock(&self.0.state);
        s.due = Some(s.due.map_or(due, |d| d.min(due)));
        if s.armed.is_some_and(|at| due < at) {
            s.armed = Some(due);
            self.0.timer.arm(due);
        }
    }

    /// Parks the calling thread — the one consumer of this bell — until
    /// `deadline`, the instant `next_due` returns (the consumer's own
    /// queues, read before the park arms its timer), or the earliest
    /// ring, whichever comes first. May return early; callers re-check
    /// their inputs after every return.
    pub fn park(&self, deadline: Instant, next_due: impl FnOnce() -> Option<Instant>) {
        let queued = next_due();
        {
            let mut s = lock(&self.0.state);
            let until = [queued, s.due]
                .into_iter()
                .flatten()
                .fold(deadline, Instant::min);
            let now = Instant::now();
            if until <= now {
                s.awake(now);
                return;
            }
            s.armed = Some(until);
            self.0.timer.arm(until);
        }
        self.0.timer.wait();
        let mut s = lock(&self.0.state);
        s.armed = None;
        s.awake(Instant::now());
    }
}

/// A per-node message endpoint: everything the replica runtime needs
/// from a network.
///
/// Semantics required of implementations:
///
/// * `send` never blocks the caller — a backed-up or disconnected peer
///   surfaces as `false` (loss), which the session layer repairs — and
///   any thread may call it while the consumer parks;
/// * delivery may reorder, duplicate, or drop messages — the protocol
///   stack above assumes nothing stronger;
/// * `try_recv`/`recv_timeout` return messages addressed to this node,
///   each tagged with its true source;
/// * a message is receivable by the time the [`doorbell`](Transport::doorbell)
///   is rung for it, or by [`next_due`](Transport::next_due): a consumer
///   that parks on the bell until the earliest `next_due` of its nodes
///   wakes by the time each message can be received — a substrate that
///   misses one leaves a parked consumer asleep until its next deadline.
pub trait Transport: Send + Sync + 'static {
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

    /// The bell of this node's consumer: its input sources ring it after
    /// every enqueue.
    fn doorbell(&self) -> &Doorbell;

    /// When the earliest message queued for this node falls due, if it
    /// is held back until then — what a consumer reads in
    /// [`Doorbell::park`]'s `next_due`. The default is `None`, for
    /// substrates that ring the bell on every delivery.
    fn next_due(&self) -> Option<Instant> {
        None
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

    fn next_due(&self) -> Option<Instant> {
        NodeHandle::next_due(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::tests::timers;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A bell of every timer implementation this platform can build.
    fn bells() -> Vec<(&'static str, Doorbell)> {
        timers()
            .into_iter()
            .map(|(name, make)| (name, Doorbell::with_timer(make())))
            .collect()
    }

    #[test]
    fn a_ring_before_the_park_is_sticky() {
        for (name, bell) in bells() {
            bell.ring();
            let t = Instant::now();
            bell.park(t + Duration::from_secs(5), || None);
            assert!(t.elapsed() < Duration::from_secs(1), "{name}: ring lost");
            // Consumed: the next park waits for its deadline.
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(5) {
                bell.park(t + Duration::from_millis(5), || None);
            }
        }
    }

    #[test]
    fn a_ring_at_before_the_park_is_honoured() {
        for (name, bell) in bells() {
            let t = Instant::now();
            bell.ring_at(t + Duration::from_millis(5));
            while t.elapsed() < Duration::from_millis(5) {
                bell.park(t + Duration::from_secs(5), || None);
            }
            assert!(t.elapsed() < Duration::from_secs(1), "{name}: ring_at lost");
        }
    }

    /// Parks a consumer with a 5 s deadline, then rings it from this
    /// thread with `ring`; returns how long after the ring it woke.
    fn woken_after(bell: &Doorbell, ring: impl FnOnce(&Doorbell)) -> Duration {
        let parked = Instant::now();
        let consumer = std::thread::spawn({
            let bell = bell.clone();
            move || {
                bell.park(parked + Duration::from_secs(5), || None);
                Instant::now()
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let rung = Instant::now();
        ring(bell);
        consumer.join().unwrap().saturating_duration_since(rung)
    }

    #[test]
    fn ring_at_wakes_a_parked_consumer_at_its_due_instant() {
        for (name, bell) in bells() {
            let woke = woken_after(&bell, |b| {
                b.ring_at(Instant::now() + Duration::from_millis(5))
            });
            assert!(
                woke >= Duration::from_millis(5) && woke < Duration::from_secs(1),
                "{name}: a ring_at 5 ms out woke the park after {woke:?}"
            );
        }
    }

    #[test]
    fn ring_wakes_a_parked_consumer() {
        for (name, bell) in bells() {
            let woke = woken_after(&bell, Doorbell::ring);
            assert!(woke < Duration::from_secs(1), "{name}: woke after {woke:?}");
        }
    }

    #[test]
    fn a_park_ends_at_its_deadline_or_its_next_due() {
        for (name, bell) in bells() {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(5) {
                bell.park(t + Duration::from_millis(5), || None);
            }
            assert!(t.elapsed() < Duration::from_secs(1), "{name}");
            let t = Instant::now();
            let next = t + Duration::from_millis(5);
            while t.elapsed() < Duration::from_millis(5) {
                bell.park(t + Duration::from_secs(5), || Some(next));
            }
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "{name}: next_due ignored"
            );
        }
    }

    #[test]
    fn a_ring_between_the_queue_read_and_the_arm_is_folded_in() {
        // The narrowest race: a producer enqueues after the park read the
        // consumer's queues, and rings before the park armed its timer.
        for (name, bell) in bells() {
            let t = Instant::now();
            bell.park(t + Duration::from_secs(5), || {
                bell.ring();
                None
            });
            assert!(t.elapsed() < Duration::from_secs(1), "{name}: ring lost");
            let t = Instant::now();
            let due = t + Duration::from_millis(5);
            while t.elapsed() < Duration::from_millis(5) {
                bell.park(t + Duration::from_secs(5), || {
                    bell.ring_at(due);
                    None
                });
            }
            assert!(t.elapsed() < Duration::from_secs(1), "{name}: ring_at lost");
        }
    }

    #[test]
    fn a_ring_from_a_thread_that_saw_the_flag_is_never_slept_through() {
        // The consumer checks a flag, then parks; the producer sets the
        // flag, then rings. Whichever lands first, the park ends soon.
        for (name, bell) in bells() {
            for _ in 0..200 {
                let flag = Arc::new(AtomicBool::new(false));
                let consumer = std::thread::spawn({
                    let (bell, flag) = (bell.clone(), Arc::clone(&flag));
                    move || {
                        let t = Instant::now();
                        while !flag.load(Ordering::SeqCst) {
                            bell.park(t + Duration::from_secs(5), || None);
                        }
                        t.elapsed()
                    }
                });
                flag.store(true, Ordering::SeqCst);
                bell.ring();
                let waited = consumer.join().unwrap();
                assert!(waited < Duration::from_secs(1), "{name}: waited {waited:?}");
            }
        }
    }
}
