//! A real-threads transport with randomized delivery delays.
//!
//! [`ThreadNet`] gives each node a handle onto a shared set of inboxes:
//! the link core under [`SimNetwork`](crate::SimNetwork) — the same
//! per-sender streams, so one seed draws the same fault actions and
//! delays on every link — but over wall-clock time and with actual
//! concurrency. The threaded runtime in `prcc-core` uses
//! it to exercise the protocol under real interleavings (the "tokio async
//! nodes" role of the reproduction, built on std threads since the
//! offline crate set has no async runtime).
//!
//! There is no delivery thread. A sender stamps each message when it
//! sends it, rolls the fault plan and the delay from its own seeded
//! stream, and pushes the message straight into the receiver's inbox,
//! due `delay` after that stamp. An inbox is a due-ordered heap: a
//! receive returns only messages that are due.
//!
//! A push ends with [`Doorbell::ring_at`] on the receiver's bell at the
//! message's due instant, from whatever thread sent it: a receiver
//! parked past that instant has its timer pulled in to it, and one that
//! is not parked folds it into its next park. A receiver parks on its
//! bell with [`NodeHandle::next_due`] — the heap's next due instant — as
//! the park's `next_due`, which is read before the timer is armed (see
//! [`Doorbell`] for why no push is slept through). So every hop wakes
//! its receiver once, at the due instant, and never early. Nodes built
//! by [`ThreadNet::with_bells`] may share a bell: one thread consuming
//! several nodes parks once until the earliest of their due instants.

use crate::delay::DelayModel;
use crate::faults::{FaultPlan, FaultSchedule};
use crate::link::{Draws, Envelope, Queue};
use crate::transport::{lock, Doorbell};
use prcc_sharegraph::ReplicaId;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One simulated-delay tick in wall-clock time. Public so harnesses can
/// convert a [`FaultSchedule`] horizon
/// (in ticks) into the wall-clock span they must wait out.
pub const TICK: Duration = Duration::from_micros(200);

/// Per-node ingress bound of [`ThreadNet::new`].
const DEFAULT_CAPACITY: usize = 4096;

/// One node's share of the net: its inbox and its consumer's bell.
struct Node<M> {
    /// In due order, then by arrival. A sender's stamps never go
    /// backwards, so a fixed-delay link stays FIFO.
    inbox: Mutex<Queue<Instant, M>>,
    bell: Doorbell,
}

/// What every handle shares: the nodes and the rules of the links.
struct Links<M> {
    nodes: Vec<Node<M>>,
    capacity: usize,
    delay: DelayModel,
    schedule: FaultSchedule,
    /// Scripted outages count ticks from here.
    epoch: Instant,
}

impl<M> Links<M> {
    /// Admits `env` into node `dst`'s inbox, due at `due`, and has its
    /// consumer awake by then; `false` (shed) if `capacity` messages are
    /// already in flight to it.
    fn push(&self, dst: usize, due: Instant, env: Envelope<M>) -> bool {
        let node = &self.nodes[dst];
        {
            let mut inbox = lock(&node.inbox);
            if inbox.len() >= self.capacity {
                return false;
            }
            inbox.push(due, env);
        }
        node.bell.ring_at(due);
        true
    }
}

/// A per-node endpoint. Cloneable; clones share the node's inbox and its
/// send-side random stream.
pub struct NodeHandle<M> {
    id: ReplicaId,
    links: Arc<Links<M>>,
    /// This node's fault and delay draws: one seeded stream per sender,
    /// so what one node's sends draw does not depend on other threads.
    draws: Arc<Mutex<Draws>>,
}

impl<M> Clone for NodeHandle<M> {
    fn clone(&self) -> Self {
        NodeHandle {
            id: self.id,
            links: Arc::clone(&self.links),
            draws: Arc::clone(&self.draws),
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

    /// Non-blocking receive: the earliest message that is due, if any.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        let mut inbox = lock(&self.links.nodes[self.id.index()].inbox);
        let due = inbox.peek().is_some_and(|due| due <= Instant::now());
        due.then(|| inbox.pop().expect("peeked").1)
    }

    /// Blocking receive with timeout. Any thread may call it, but only
    /// one thread at a time should wait on a node's bell.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = self.try_recv() {
                return Some(env);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.doorbell().park(deadline, || self.next_due());
        }
    }

    /// When the earliest message in flight to this node falls due — the
    /// [`Transport::next_due`](crate::Transport::next_due) of this
    /// substrate.
    pub fn next_due(&self) -> Option<Instant> {
        lock(&self.links.nodes[self.id.index()].inbox).peek()
    }

    /// The bell this node's consumer parks on. Every send to this node
    /// rings it at the message's due instant; the node's other input
    /// sources ring it too.
    pub fn doorbell(&self) -> &Doorbell {
        &self.links.nodes[self.id.index()].bell
    }
}

impl<M: Clone> NodeHandle<M> {
    /// Sends `msg` to `dst`, delivered after a randomized delay counted
    /// from now. Returns `false` if `dst`'s inbox is full (the message
    /// is shed) or `dst` is not a node of this net; a message the fault
    /// plan drops still counts as sent.
    pub fn send(&self, dst: ReplicaId, msg: M) -> bool {
        let sent = Instant::now();
        let links = &*self.links;
        if dst.index() >= links.nodes.len() {
            return false;
        }
        let tick =
            || (sent.saturating_duration_since(links.epoch).as_micros() / TICK.as_micros()) as u64;
        let rolled = lock(&self.draws).roll(&links.delay, &links.schedule, self.id, dst, tick);
        let Some((first, second)) = rolled else {
            return true;
        };
        let due = |ticks: u64| sent + TICK * ticks.min(u32::MAX as u64) as u32;
        let env = Envelope {
            src: self.id,
            dst,
            msg,
        };
        if let Some(ticks) = second {
            if !links.push(dst.index(), due(ticks), env.clone()) {
                return false;
            }
        }
        links.push(dst.index(), due(first), env)
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
    handles: Vec<NodeHandle<M>>,
}

impl<M> fmt::Debug for ThreadNet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadNet")
            .field("nodes", &self.handles.len())
            .finish()
    }
}

impl<M> ThreadNet<M> {
    /// `n` nodes with `delay` links, no faults and a per-node ingress
    /// bound of 4096 messages.
    pub fn new(n: usize, delay: DelayModel, seed: u64) -> Self {
        Self::with_config(n, delay, seed, FaultPlan::default(), DEFAULT_CAPACITY)
    }

    /// Like [`ThreadNet::new`], but every send rolls `faults` (dropped
    /// messages vanish, duplicated ones are delivered twice with
    /// independently sampled delays; reordering comes from the randomized
    /// delays), and each node admits at most `capacity` messages in
    /// flight to it. A send into a full inbox is shed and returns
    /// `false` — backpressure surfaces as loss, which the session layer
    /// repairs; no sender ever blocks on a slow node.
    pub fn with_config(
        n: usize,
        delay: DelayModel,
        seed: u64,
        faults: FaultPlan,
        capacity: usize,
    ) -> Self {
        let bells = (0..n).map(|_| Doorbell::new()).collect();
        Self::with_bells(
            delay,
            seed,
            FaultSchedule::from_plan(faults),
            capacity,
            bells,
        )
    }

    /// Like [`ThreadNet::with_config`], with one node per bell of
    /// `bells` (every send to node `i` rings `bells[i]`), and sends also
    /// honour the schedule's scripted link outages.
    ///
    /// Nodes may share a bell, so that one thread consumes them all and
    /// parks once until the earliest of their next due instants.
    ///
    /// Outage windows are expressed in simulated ticks and mapped onto
    /// wall-clock time from the moment of construction (one tick =
    /// 200 µs); the check uses the *send* stamp, as [`FaultSchedule`]
    /// documents — a message already in flight when the outage starts
    /// still arrives. Crash
    /// windows are *not* enforced here: a crashed replica's inbox keeps
    /// filling and the runtime harness discards the frames, which keeps
    /// crash semantics (and the loss accounting) in one place.
    pub fn with_bells(
        delay: DelayModel,
        seed: u64,
        schedule: FaultSchedule,
        capacity: usize,
        bells: Vec<Doorbell>,
    ) -> Self {
        let n = bells.len();
        let links = Arc::new(Links {
            nodes: bells
                .into_iter()
                .map(|bell| Node {
                    inbox: Mutex::new(Queue::new()),
                    bell,
                })
                .collect(),
            capacity: capacity.max(1),
            delay,
            schedule,
            epoch: Instant::now(),
        });
        let handles = (0..n)
            .map(|i| NodeHandle {
                id: ReplicaId::new(i as u32),
                links: Arc::clone(&links),
                draws: Arc::new(Mutex::new(Draws::new(seed, i))),
            })
            .collect();
        ThreadNet { handles }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transport;

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
    fn tiny_inbox_sheds_overflow_without_blocking_senders() {
        let net: ThreadNet<u32> =
            ThreadNet::with_config(2, DelayModel::Fixed(0), 0, FaultPlan::default(), 2);
        let a = net.handle(r(0));
        let b = net.handle(r(1));
        // The receiver stays idle: only `capacity` messages are admitted,
        // and every send after that reports the shed.
        let admitted: Vec<bool> = (0..50).map(|i| a.send(r(1), i)).collect();
        assert_eq!(admitted[..2], [true, true]);
        assert!(
            admitted[2..].iter().all(|&ok| !ok),
            "a send into a full inbox reported success: {admitted:?}"
        );
        let mut got = 0;
        while b.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 2, "bounded inbox admitted other than its capacity");
        // Shedding blocked nobody: the drained inbox admits again.
        assert!(a.send(r(1), 999));
        let env = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(env.msg, 999);
    }

    #[test]
    fn scripted_outage_drops_then_heals() {
        // Link 0 -> 1 is down for the first 250 ticks (50 ms of wall
        // clock): an immediate send vanishes, a send after the heal
        // instant arrives.
        let schedule = FaultSchedule::none().outage(r(0), r(1), 0, 250);
        let bells = vec![Doorbell::new(), Doorbell::new()];
        let net: ThreadNet<u32> =
            ThreadNet::with_bells(DelayModel::Fixed(0), 0, schedule, 64, bells);
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

    /// How long a receiver with nothing in flight parks, as a replica
    /// loop does.
    const IDLE_PARK: Duration = Duration::from_millis(50);

    /// Parks on `node`'s bell for a full idle period or until its next
    /// frame falls due, as a replica worker does.
    fn park_idle<M: Clone + Send + 'static>(node: &NodeHandle<M>) {
        node.doorbell()
            .park(Instant::now() + IDLE_PARK, || Transport::next_due(node));
    }

    /// Receives from `node` as a replica worker does: `try_recv`, and
    /// park for a full idle period whenever nothing is due — only a ring
    /// or the frame's due instant gets a message through sooner.
    fn recv_as_a_loop<M: Clone + Send + 'static>(node: &NodeHandle<M>) -> Envelope<M> {
        loop {
            match node.try_recv() {
                Some(env) => return env,
                None => park_idle(node),
            }
        }
    }

    /// Times 40 pings from node 0 to node 1, each echoed back over an
    /// in-process channel, while node 1 receives as a loop does. With
    /// `from_loop` node 0 parks on its own node between pings too.
    fn ping_times(from_loop: bool) -> Vec<(u32, Duration)> {
        let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Fixed(1), 0);
        let (a, b) = (net.handle(r(0)), net.handle(r(1)));
        let a_bell = a.doorbell().clone();
        let (got_tx, got) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            for _ in 0..40 {
                got_tx.send(recv_as_a_loop(&b).msg).unwrap();
                a_bell.ring();
            }
        });
        let sender = std::thread::spawn(move || {
            let mut times = Vec::new();
            for i in 0..40 {
                // Let the receiver take the last ping and park idle.
                std::thread::sleep(Duration::from_millis(2));
                let t = Instant::now();
                assert!(a.send(r(1), i));
                let echo = if from_loop {
                    loop {
                        match got.try_recv() {
                            Ok(m) => break m,
                            Err(_) => park_idle(&a),
                        }
                    }
                } else {
                    got.recv_timeout(Duration::from_secs(2)).expect("delivery")
                };
                assert_eq!(echo, i);
                times.push((i, t.elapsed()));
            }
            times
        });
        receiver.join().unwrap();
        sender.join().unwrap()
    }

    fn assert_no_ping_waits_out_the_idle_park(times: Vec<(u32, Duration)>) {
        let slow: Vec<_> = times
            .into_iter()
            .filter(|&(_, t)| t > IDLE_PARK / 4)
            .collect();
        assert!(
            slow.len() <= 2,
            "pings waited out the receiver's idle park: {slow:?}"
        );
    }

    #[test]
    fn a_ping_to_a_parked_receiver_arrives_well_under_its_idle_park() {
        assert_no_ping_waits_out_the_idle_park(ping_times(false));
    }

    #[test]
    fn a_ping_from_a_loop_to_a_parked_receiver_arrives_well_under_its_idle_park() {
        assert_no_ping_waits_out_the_idle_park(ping_times(true));
    }

    #[test]
    fn pushes_racing_a_parking_receiver_are_never_slept_through() {
        // Rounds of one frame from each of four senders over 1-5 tick
        // links; a round starts once the receiver has taken the last, so
        // every round's pushes race the receiver's next park. A push
        // whose ring the park loses waits out the idle park.
        const ROUNDS: usize = 500;
        let delay = DelayModel::Uniform { min: 1, max: 5 };
        let latest_due = TICK * delay.max_delay() as u32;
        for (name, timer) in crate::os::tests::timers() {
            let bells = (0..5).map(|_| Doorbell::with_timer(timer())).collect();
            let net: ThreadNet<Instant> =
                ThreadNet::with_bells(delay.clone(), 3, FaultSchedule::none(), 64, bells);
            let sink = net.handle(r(4));
            let taken = std::sync::atomic::AtomicUsize::new(0);
            let late = std::thread::scope(|s| {
                for i in 0..4 {
                    let (h, taken) = (net.handle(r(i)), &taken);
                    s.spawn(move || {
                        for round in 0..ROUNDS {
                            while taken.load(std::sync::atomic::Ordering::SeqCst) < 4 * round {
                                std::thread::sleep(Duration::from_micros(20));
                            }
                            assert!(h.send(r(4), Instant::now()));
                        }
                    });
                }
                let mut late = Vec::new();
                for k in 0..4 * ROUNDS {
                    let flight = recv_as_a_loop(&sink).msg.elapsed();
                    if flight > latest_due + IDLE_PARK / 2 {
                        late.push((k, flight));
                    }
                    taken.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                late
            });
            assert!(
                late.len() <= 2,
                "{name}: {} of {} frames arrived over {:?} past their latest due instant: {:?}",
                late.len(),
                4 * ROUNDS,
                IDLE_PARK / 2,
                &late[..late.len().min(8)]
            );
        }
    }

    #[test]
    fn per_sender_draws_do_not_depend_on_thread_interleaving() {
        // Four nodes send to each other at once over lossy links with
        // random delays. Each sender rolls its own seeded stream, so
        // which messages survive is the same whatever the interleaving.
        fn delivered(seed: u64) -> Vec<(ReplicaId, ReplicaId, u32)> {
            let net: ThreadNet<u32> = ThreadNet::with_config(
                4,
                DelayModel::Uniform { min: 0, max: 5 },
                seed,
                FaultPlan::dropping(0.3),
                1 << 12,
            );
            std::thread::scope(|s| {
                for i in 0..4 {
                    let h = net.handle(r(i));
                    s.spawn(move || {
                        for k in 0..300 {
                            for j in (0..4).filter(|&j| j != i) {
                                h.send(r(j), k);
                            }
                        }
                    });
                }
            });
            // Every message is due within 5 ticks of its send.
            std::thread::sleep(TICK * 5 + Duration::from_millis(20));
            let mut got = Vec::new();
            for j in 0..4 {
                let h = net.handle(r(j));
                while let Some(env) = h.try_recv() {
                    got.push((env.src, env.dst, env.msg));
                }
            }
            got.sort_unstable();
            got
        }
        let first = delivered(11);
        let sent = 4 * 3 * 300;
        assert!(
            (sent / 2..sent * 9 / 10).contains(&first.len()),
            "a 30% drop plan delivered {} of {sent}",
            first.len()
        );
        assert_eq!(first, delivered(11), "same seed, different survivors");
        assert_ne!(first, delivered(12), "the seed does not reach the draws");
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
    fn no_frame_is_delivered_before_its_minimum_delay() {
        const PER_SENDER: usize = 500;
        let delay = DelayModel::Uniform { min: 1, max: 5 };
        let floor = TICK * delay.min_delay() as u32;
        let net: ThreadNet<Instant> = ThreadNet::new(5, delay, 9);
        let sink = net.handle(r(4));
        let senders: Vec<_> = (0..4)
            .map(|i| {
                let h = net.handle(r(i));
                std::thread::spawn(move || {
                    for _ in 0..PER_SENDER {
                        assert!(h.send(r(4), Instant::now()));
                    }
                })
            })
            .collect();
        let start = Instant::now();
        let mut got = 0;
        while got < 4 * PER_SENDER {
            match sink.try_recv() {
                Some(env) => {
                    let flight = env.msg.elapsed();
                    assert!(
                        flight >= floor,
                        "frame {got} from {} delivered {flight:?} after its send",
                        env.src
                    );
                    got += 1;
                }
                None => {
                    assert!(start.elapsed() < Duration::from_secs(30), "lost frames");
                    park_idle(&sink);
                }
            }
        }
        for s in senders {
            s.join().unwrap();
        }
    }

    #[test]
    fn handle_accessors() {
        let net: ThreadNet<u32> = ThreadNet::new(2, DelayModel::Fixed(0), 0);
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.handle(r(1)).id(), r(1));
    }
}
