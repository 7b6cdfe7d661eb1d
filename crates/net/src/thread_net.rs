//! A real-threads transport with randomized delivery delays.
//!
//! [`ThreadNet`] gives each node a handle backed by crossbeam channels and
//! routes every message through a scheduler thread that imposes a seeded
//! random delay — the same non-FIFO semantics as
//! [`SimNetwork`](crate::SimNetwork), but with actual concurrency. The
//! threaded runtime in `prcc-core` uses it to exercise the protocol under
//! real interleavings (the "tokio async nodes" role of the reproduction,
//! built on crossbeam since the offline crate set has no async runtime).
//!
//! A message is stamped when it is sent and is due `delay` after that
//! stamp, so the time the router takes to pick it up does not lengthen
//! the hop. The router parks on its own [`Doorbell`] until its earliest
//! due delivery and publishes that instant; a sender rings the bell only
//! when its message could fall due before it.

use crate::delay::DelayModel;
use crate::faults::{FaultAction, FaultPlan, FaultSchedule};
use crate::sim_net::Envelope;
use crate::transport::Doorbell;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use prcc_sharegraph::ReplicaId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One simulated-delay tick in wall-clock time. Public so harnesses can
/// convert a [`FaultSchedule`](crate::faults::FaultSchedule) horizon
/// (in ticks) into the wall-clock span they must wait out.
pub const TICK: Duration = Duration::from_micros(200);

/// How long the router parks with nothing in flight. Every send that
/// could fall due sooner rings it, so nothing waits on this period.
const ROUTER_IDLE_PARK: Duration = Duration::from_millis(50);

struct Pending<M> {
    due: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A message on its way to the router, stamped with its send instant.
type Sent<M> = (Instant, Envelope<M>);

/// What senders share with the router: its bell and when its park ends.
struct RouterWake {
    bell: Doorbell,
    /// Nanoseconds after `epoch` at which the parked router wakes on its
    /// own; 0 while it runs (it drains the channel before parking again).
    parked_until: AtomicU64,
    epoch: Instant,
    /// The shortest delay the model can draw: a message sent at `t` is
    /// never due before `t + min_delay`.
    min_delay: Duration,
}

impl RouterWake {
    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Called after a message sent at `sent` is enqueued: wakes the
    /// router if it is parked past the message's earliest due instant.
    fn sent(&self, sent: Instant) {
        let parked = self.parked_until.load(Ordering::SeqCst);
        if parked != 0 && self.nanos(sent + self.min_delay) < parked {
            self.bell.ring();
        }
    }
}

/// A per-node endpoint. Cloneable; sends go through the router thread,
/// receives read the node's inbox.
pub struct NodeHandle<M> {
    id: ReplicaId,
    to_router: Sender<Sent<M>>,
    router: Arc<RouterWake>,
    inbox: Receiver<Envelope<M>>,
    /// Rung by the router after every delivery into `inbox`.
    bell: Doorbell,
}

impl<M> Clone for NodeHandle<M> {
    fn clone(&self) -> Self {
        NodeHandle {
            id: self.id,
            to_router: self.to_router.clone(),
            router: Arc::clone(&self.router),
            inbox: self.inbox.clone(),
            bell: self.bell.clone(),
        }
    }
}

impl<M> fmt::Debug for NodeHandle<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle").field("id", &self.id).finish()
    }
}

impl<M> NodeHandle<M> {
    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Sends `msg` to `dst` (delivered after a randomized delay counted
    /// from now). Returns `false` if the network has shut down.
    pub fn send(&self, dst: ReplicaId, msg: M) -> bool {
        let sent = Instant::now();
        let env = Envelope {
            src: self.id,
            dst,
            msg,
        };
        if self.to_router.send((sent, env)).is_err() {
            return false;
        }
        self.router.sent(sent);
        true
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.try_recv().ok()
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// The bell the router rings after every delivery to this node — an
    /// event loop parks on it in place of polling [`try_recv`](Self::try_recv).
    pub fn doorbell(&self) -> &Doorbell {
        &self.bell
    }
}

/// A threaded message bus with seeded random delays.
///
/// # Examples
///
/// ```
/// use prcc_net::{ThreadNet, DelayModel};
/// use prcc_sharegraph::ReplicaId;
/// use std::time::Duration;
///
/// let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Fixed(1), 7);
/// let a = net.handle(ReplicaId::new(0));
/// let b = net.handle(ReplicaId::new(1));
/// a.send(ReplicaId::new(1), 42);
/// let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!(env.msg, 42);
/// ```
pub struct ThreadNet<M> {
    /// Node handles (each holds a sender to the router; the router exits
    /// once all of them are gone).
    handles: Vec<NodeHandle<M>>,
    wake: Arc<RouterWake>,
    router: Option<JoinHandle<()>>,
}

impl<M> fmt::Debug for ThreadNet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadNet")
            .field("nodes", &self.handles.len())
            .finish()
    }
}

impl<M: Send + Clone + 'static> ThreadNet<M> {
    /// Spawns the router thread for `n` nodes.
    pub fn new(n: usize, delay: DelayModel, seed: u64) -> Self {
        Self::with_faults(n, delay, seed, FaultPlan::default())
    }

    /// Like [`ThreadNet::new`], but the router rolls `faults` on every
    /// message: dropped messages vanish, duplicated ones are enqueued
    /// twice with independently sampled delays. Reordering comes for
    /// free from the randomized delays.
    pub fn with_faults(n: usize, delay: DelayModel, seed: u64, faults: FaultPlan) -> Self {
        Self::with_config(n, delay, seed, faults, 4096)
    }

    /// Full-control constructor: like [`ThreadNet::with_faults`] with an
    /// explicit per-node ingress capacity. A node whose inbox is full
    /// sheds further deliveries (backpressure surfaces as loss, which the
    /// session layer repairs) — the router never blocks on a slow node.
    pub fn with_config(
        n: usize,
        delay: DelayModel,
        seed: u64,
        faults: FaultPlan,
        capacity: usize,
    ) -> Self {
        Self::with_schedule(n, delay, seed, FaultSchedule::from_plan(faults), capacity)
    }

    /// Like [`ThreadNet::with_config`], but the router also enforces the
    /// schedule's scripted link outages. Outage windows are expressed in
    /// simulated ticks and mapped onto wall-clock time from the moment of
    /// construction (one tick = 200 µs); the check uses the *send* stamp,
    /// matching [`FaultSchedule::link_down`]'s documented semantics — a
    /// message already in flight when the outage starts still arrives.
    /// Crash windows are *not* enforced here: a crashed replica's inbox
    /// keeps filling and the runtime harness discards the frames, which
    /// keeps crash semantics (and the loss accounting) in one place.
    pub fn with_schedule(
        n: usize,
        delay: DelayModel,
        seed: u64,
        schedule: FaultSchedule,
        capacity: usize,
    ) -> Self {
        let (to_router, from_nodes) = unbounded::<Sent<M>>();
        let wake = Arc::new(RouterWake {
            bell: Doorbell::new(),
            parked_until: AtomicU64::new(0),
            epoch: Instant::now(),
            min_delay: TICK * delay.min_delay().min(u32::MAX as u64) as u32,
        });
        let mut inboxes = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = bounded::<Envelope<M>>(capacity.max(1));
            let bell = Doorbell::new();
            inboxes.push((tx, bell.clone()));
            handles.push(NodeHandle {
                id: ReplicaId::new(i as u32),
                to_router: to_router.clone(),
                router: Arc::clone(&wake),
                inbox: rx,
                bell,
            });
        }
        let router = Router {
            rng: StdRng::seed_from_u64(seed),
            delay,
            schedule,
            heap: BinaryHeap::new(),
            seq: 0,
            inboxes,
            wake: Arc::clone(&wake),
        };
        let router = std::thread::Builder::new()
            .name("net-router".into())
            .spawn(move || router.run(from_nodes));
        drop(to_router);
        ThreadNet {
            handles,
            wake,
            router: Some(router.expect("spawn net-router thread")),
        }
    }

    /// The handle of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn handle(&self, i: ReplicaId) -> NodeHandle<M> {
        self.handles[i.index()].clone()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if the net has no nodes.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

impl<M> Drop for ThreadNet<M> {
    fn drop(&mut self) {
        // Drop the node handles' router senders; the router thread then
        // observes disconnection, drains in-flight messages, and exits —
        // we detach rather than join so dropping the net never blocks
        // (C-DTOR-BLOCK).
        self.handles.clear();
        self.wake.bell.ring();
        self.router.take();
    }
}

/// The router thread's state: frames in flight ordered by due instant,
/// the seeded fault and delay draws, and the per-node inboxes.
struct Router<M> {
    rng: StdRng,
    delay: DelayModel,
    schedule: FaultSchedule,
    heap: BinaryHeap<Reverse<Pending<M>>>,
    seq: u64,
    inboxes: Vec<(Sender<Envelope<M>>, Doorbell)>,
    wake: Arc<RouterWake>,
}

impl<M: Clone> Router<M> {
    fn run(mut self, from_nodes: Receiver<Sent<M>>) {
        self.wake.bell.bind();
        let mut disconnected = false;
        loop {
            // Take in everything sent so far.
            while !disconnected {
                match from_nodes.try_recv() {
                    Ok((sent, env)) => self.admit(sent, env),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => disconnected = true,
                }
            }
            let now = Instant::now();
            self.deliver_due(now);
            if disconnected && self.heap.is_empty() {
                return;
            }
            let until = self
                .heap
                .peek()
                .map_or(now + ROUTER_IDLE_PARK, |Reverse(p)| p.due);
            let nanos = self.wake.nanos(until).max(1);
            self.wake.parked_until.store(nanos, Ordering::SeqCst);
            // A send enqueued before the store above saw the router
            // running and did not ring: look once more before parking.
            match from_nodes.try_recv() {
                Ok((sent, env)) => self.admit(sent, env),
                Err(_) => self.wake.bell.wait_until(until),
            }
            self.wake.parked_until.store(0, Ordering::SeqCst);
        }
    }

    /// Rolls the fault plan and the delay for one sent message and
    /// schedules each surviving copy at `sent + delay`.
    fn admit(&mut self, sent: Instant, env: Envelope<M>) {
        let scripted_down = !self.schedule.outages.is_empty() && {
            let since = sent.saturating_duration_since(self.wake.epoch);
            let ticks = (since.as_micros() / TICK.as_micros()) as u64;
            self.schedule.link_down(env.src, env.dst, ticks)
        };
        let copies = if scripted_down {
            0
        } else {
            match self.schedule.plan.decide(&mut self.rng, env.src, env.dst) {
                FaultAction::Drop => 0,
                FaultAction::Deliver => 1,
                FaultAction::Duplicate => 2,
            }
        };
        for _ in 0..copies {
            let ticks = self.delay.sample(&mut self.rng, env.src, env.dst);
            self.heap.push(Reverse(Pending {
                due: sent + TICK * ticks.min(u32::MAX as u64) as u32,
                seq: self.seq,
                env: env.clone(),
            }));
            self.seq += 1;
        }
    }

    /// Hands every message due by `now` to its node's inbox.
    fn deliver_due(&mut self, now: Instant) {
        while self.heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            let Reverse(p) = self.heap.pop().expect("peeked");
            if let Some((inbox, bell)) = self.inboxes.get(p.env.dst.index()) {
                // A full or closed inbox drops the message (`try_send`,
                // never a blocking `send`: one slow node must not stall
                // the whole router).
                if inbox.try_send(p.env).is_ok() {
                    bell.ring();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn point_to_point_delivery() {
        let net: ThreadNet<String> = ThreadNet::new(3, DelayModel::Fixed(1), 0);
        let a = net.handle(r(0));
        let c = net.handle(r(2));
        assert!(a.send(r(2), "ping".into()));
        let env = c.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(env.src, r(0));
        assert_eq!(env.msg, "ping");
        // Nothing for node 1.
        let b = net.handle(r(1));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn many_messages_all_arrive() {
        let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Uniform { min: 0, max: 5 }, 3);
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        for i in 0..100 {
            a.send(r(1), i);
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            match b.recv_timeout(Duration::from_secs(2)) {
                Some(env) => got.push(env.msg),
                None => panic!("lost messages: got {}", got.len()),
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_senders() {
        let net: ThreadNet<u32> = ThreadNet::new(3, DelayModel::Fixed(0), 1);
        let c = net.handle(r(2));
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        let t1 = std::thread::spawn(move || {
            for i in 0..50 {
                a.send(r(2), i);
            }
        });
        let t2 = std::thread::spawn(move || {
            for i in 50..100 {
                b.send(r(2), i);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut got = Vec::new();
        while got.len() < 100 {
            match c.recv_timeout(Duration::from_secs(2)) {
                Some(env) => got.push(env.msg),
                None => panic!("lost messages: got {}", got.len()),
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_inbox_sheds_overflow_without_blocking_router() {
        let net: ThreadNet<u32> =
            ThreadNet::with_config(2, DelayModel::Fixed(0), 0, FaultPlan::default(), 2);
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        for i in 0..50 {
            a.send(r(1), i);
        }
        // Give the router time to process everything while the receiver
        // stays idle: only `capacity` messages can be admitted.
        std::thread::sleep(Duration::from_millis(100));
        let mut got = 0;
        while b.try_recv().is_some() {
            got += 1;
        }
        assert!(
            got <= 2,
            "bounded inbox admitted more than its capacity: {got}"
        );
        // The router shed the rest instead of blocking: it still routes.
        a.send(r(1), 999);
        let env = b
            .recv_timeout(Duration::from_secs(2))
            .expect("router alive");
        assert_eq!(env.msg, 999);
    }

    #[test]
    fn scripted_outage_drops_then_heals() {
        // Link 0 -> 1 is down for the first 250 ticks (50 ms of wall
        // clock): an immediate send vanishes, a send after the heal
        // instant arrives.
        let schedule = FaultSchedule::none().outage(r(0), r(1), 0, 250);
        let net: ThreadNet<u32> =
            ThreadNet::with_schedule(2, DelayModel::Fixed(0), 0, schedule, 64);
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        a.send(r(1), 1);
        assert!(
            b.recv_timeout(Duration::from_millis(20)).is_none(),
            "message crossed a severed link"
        );
        std::thread::sleep(Duration::from_millis(80));
        a.send(r(1), 2);
        let env = b.recv_timeout(Duration::from_secs(2)).expect("healed link");
        assert_eq!(env.msg, 2);
    }

    #[test]
    fn a_send_into_an_idle_router_wakes_it() {
        // With nothing in flight the router parks for its full idle
        // period; only the sender's ring gets a ping through sooner.
        let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Fixed(1), 0);
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        let mut slow = Vec::new();
        for i in 0..40 {
            // Let the router deliver the last ping and park idle.
            std::thread::sleep(Duration::from_millis(2));
            let t = Instant::now();
            a.send(r(1), i);
            let env = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
            assert_eq!(env.msg, i);
            if t.elapsed() > ROUTER_IDLE_PARK / 4 {
                slow.push((i, t.elapsed()));
            }
        }
        assert!(
            slow.len() <= 2,
            "pings waited out the router's idle park: {slow:?}"
        );
    }

    #[test]
    fn fixed_delay_links_stay_fifo_under_concurrent_senders() {
        const PER_SENDER: u32 = 5_000;
        let net: ThreadNet<u32> =
            ThreadNet::with_config(5, DelayModel::Fixed(1), 0, FaultPlan::default(), 1 << 15);
        let sink = net.handle(r(4));
        let senders: Vec<_> = (0..4)
            .map(|i| {
                let h = net.handle(r(i));
                std::thread::spawn(move || {
                    for k in 0..PER_SENDER {
                        assert!(h.send(r(4), k));
                    }
                })
            })
            .collect();
        let mut next = [0u32; 4];
        for _ in 0..4 * PER_SENDER {
            let env = sink
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("lost messages: got {next:?}"));
            let expect = &mut next[env.src.index()];
            assert_eq!(env.msg, *expect, "link {} -> 4 reordered", env.src);
            *expect += 1;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(next, [PER_SENDER; 4]);
    }

    #[test]
    fn handle_accessors() {
        let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Fixed(0), 0);
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.handle(r(1)).id(), r(1));
    }
}
