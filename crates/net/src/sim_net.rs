//! A deterministic, discrete-event simulated network.
//!
//! Models the paper's system assumptions exactly: reliable point-to-point
//! channels between replicas, asynchronous (arbitrary finite delay), and
//! **non-FIFO**. Delivery order is controlled by a seeded [`DelayModel`],
//! so every execution is reproducible from its seed.
//!
//! For constructing *specific* adversarial executions (the
//! indistinguishability arguments of Theorem 8 and Lemma 14), links can be
//! [held](SimNetwork::hold): messages on a held link are queued and only
//! scheduled once the link is [released](SimNetwork::release).

use crate::delay::DelayModel;
use crate::faults::{FaultAction, FaultPlan, FaultSchedule};
use prcc_sharegraph::ReplicaId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending replica.
    pub src: ReplicaId,
    /// Receiving replica.
    pub dst: ReplicaId,
    /// The payload.
    pub msg: M,
}

#[derive(Debug)]
struct Scheduled<M> {
    deliver_at: u64,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// Statistics kept by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by [`SimNetwork::send`].
    pub sent: usize,
    /// Messages handed out by [`SimNetwork::next_delivery`].
    pub delivered: usize,
    /// Messages duplicated by the fault plan.
    pub duplicated: usize,
    /// Messages dropped by the fault plan.
    pub dropped: usize,
    /// Payload bytes accepted via [`SimNetwork::send_sized`] (callers
    /// that use plain [`SimNetwork::send`] contribute 0 — the network is
    /// generic and cannot size arbitrary messages itself).
    pub bytes: usize,
    /// Wire-codec pairs demoted from compressed to explicit rows after a
    /// derived-row verification failure. The network itself never sets
    /// this; the owning system merges it in from its codec so fault
    /// reports surface codec health alongside delivery counts.
    pub codec_demotions: usize,
}

/// The simulated network. Time is logical (`u64` ticks) and advances to
/// each delivery instant.
///
/// # Examples
///
/// ```
/// use prcc_net::{SimNetwork, DelayModel};
/// use prcc_sharegraph::ReplicaId;
///
/// let mut net: SimNetwork<&'static str> = SimNetwork::new(DelayModel::Fixed(3), 42);
/// net.send(ReplicaId::new(0), ReplicaId::new(1), "hi");
/// let (t, env) = net.next_delivery().unwrap();
/// assert_eq!(t, 3);
/// assert_eq!(env.msg, "hi");
/// assert!(net.next_delivery().is_none());
/// ```
pub struct SimNetwork<M> {
    delay: DelayModel,
    rng: StdRng,
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    held_links: HashSet<(ReplicaId, ReplicaId)>,
    held_msgs: HashMap<(ReplicaId, ReplicaId), Vec<Envelope<M>>>,
    faults: FaultSchedule,
    stats: NetStats,
}

impl<M: fmt::Debug> fmt::Debug for SimNetwork<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("now", &self.now)
            .field("in_flight", &self.queue.len())
            .field("held_links", &self.held_links)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M> SimNetwork<M> {
    /// Creates a network with the given delay model and RNG seed.
    pub fn new(delay: DelayModel, seed: u64) -> Self {
        SimNetwork {
            delay,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            held_links: HashSet::new(),
            held_msgs: HashMap::new(),
            faults: FaultSchedule::none(),
            stats: NetStats::default(),
        }
    }

    /// Installs a fault plan (duplication / drops / dead links),
    /// replacing any scripted schedule. The default plan is benign —
    /// the paper's reliable-channel model.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = FaultSchedule::from_plan(faults);
    }

    /// Installs a full fault schedule: probabilistic plan plus scripted
    /// link outages checked at send time against the current simulated
    /// clock (a message that entered the channel before an outage still
    /// arrives). Scripted *crashes* are not the network's business —
    /// the system harness enforces those at the endpoints.
    pub fn set_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
    }

    /// The installed fault schedule.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Current logical time (the delivery instant of the last message
    /// handed out, or 0).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of messages currently in flight (scheduled, not held).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Number of messages parked on held links.
    fn held_count(&self) -> usize {
        self.held_msgs.values().map(Vec::len).sum()
    }

    /// True if no message is in flight or held.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty() && self.held_count() == 0
    }

    /// Sends `msg` from `src` to `dst`. If the link is held, the message
    /// is parked; otherwise it is scheduled `delay` ticks from now. A
    /// non-benign fault plan may drop the message or schedule a second
    /// copy.
    pub fn send(&mut self, src: ReplicaId, dst: ReplicaId, msg: M)
    where
        M: Clone,
    {
        self.stats.sent += 1;
        if self.faults.link_down(src, dst, self.now) {
            self.stats.dropped += 1;
            return;
        }
        match self.faults.plan.decide(&mut self.rng, src, dst) {
            FaultAction::Drop => {
                self.stats.dropped += 1;
                return;
            }
            FaultAction::Duplicate => {
                self.stats.duplicated += 1;
                let copy = Envelope {
                    src,
                    dst,
                    msg: msg.clone(),
                };
                if self.held_links.contains(&(src, dst)) {
                    self.held_msgs.entry((src, dst)).or_default().push(copy);
                } else {
                    self.schedule(copy);
                }
            }
            FaultAction::Deliver => {}
        }
        let env = Envelope { src, dst, msg };
        if self.held_links.contains(&(src, dst)) {
            self.held_msgs.entry((src, dst)).or_default().push(env);
            return;
        }
        self.schedule(env);
    }

    /// [`send`](Self::send) that also charges `bytes` to
    /// [`NetStats::bytes`] — the caller-measured wire size of `msg`
    /// (e.g. a codec's frame length). Fault handling is identical;
    /// dropped messages are still charged, since the sender put them on
    /// the wire.
    pub fn send_sized(&mut self, src: ReplicaId, dst: ReplicaId, msg: M, bytes: usize)
    where
        M: Clone,
    {
        self.stats.bytes += bytes;
        self.send(src, dst, msg);
    }

    fn schedule(&mut self, env: Envelope<M>) {
        let d = self.delay.sample(&mut self.rng, env.src, env.dst);
        let s = Scheduled {
            deliver_at: self.now + d,
            seq: self.seq,
            env,
        };
        self.seq += 1;
        self.queue.push(Reverse(s));
    }

    /// Pops the next delivery, advancing logical time to its instant.
    /// Returns `None` when nothing is scheduled (held messages don't
    /// count — release their links first).
    pub fn next_delivery(&mut self) -> Option<(u64, Envelope<M>)> {
        let Reverse(s) = self.queue.pop()?;
        self.now = self.now.max(s.deliver_at);
        self.stats.delivered += 1;
        Some((s.deliver_at, s.env))
    }

    /// Delivery instant of the earliest scheduled message, without
    /// popping it. Lets an event loop interleave network deliveries with
    /// other timed events (retransmission deadlines, scripted restarts).
    pub fn peek_delivery_time(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(s)| s.deliver_at)
    }

    /// Advances the logical clock to `t` (no-op if time is already
    /// past `t`). Needed by timer-driven layers: a retransmission
    /// deadline must move time forward even when no delivery does.
    pub fn advance_to(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// Holds the directed link `src -> dst`: subsequent sends are parked
    /// until [`release`](Self::release). Messages already scheduled are
    /// unaffected (they were already "in the channel").
    pub fn hold(&mut self, src: ReplicaId, dst: ReplicaId) {
        self.held_links.insert((src, dst));
    }

    /// Releases a held link, scheduling all parked messages with fresh
    /// delays from the current time.
    pub fn release(&mut self, src: ReplicaId, dst: ReplicaId) {
        self.held_links.remove(&(src, dst));
        if let Some(msgs) = self.held_msgs.remove(&(src, dst)) {
            for env in msgs {
                self.schedule(env);
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
    fn fifo_with_fixed_delay() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(2), 0);
        net.send(r(0), r(1), 1);
        net.send(r(0), r(1), 2);
        let (t1, e1) = net.next_delivery().unwrap();
        let (t2, e2) = net.next_delivery().unwrap();
        assert_eq!((t1, e1.msg), (2, 1));
        assert_eq!((t2, e2.msg), (2, 2)); // ties broken by send order
        assert!(net.is_quiescent());
    }

    #[test]
    fn wide_uniform_delays_reorder() {
        // With a wide delay band, some pair of back-to-back messages is
        // delivered out of order for at least one seed.
        let mut reordered = false;
        for seed in 0..20 {
            let mut net: SimNetwork<u32> =
                SimNetwork::new(DelayModel::Uniform { min: 1, max: 50 }, seed);
            for i in 0..10 {
                net.send(r(0), r(1), i);
            }
            let mut order = Vec::new();
            while let Some((_, e)) = net.next_delivery() {
                order.push(e.msg);
            }
            if order.windows(2).any(|w| w[0] > w[1]) {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "expected non-FIFO behaviour");
    }

    #[test]
    fn time_is_monotonic() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Uniform { min: 1, max: 100 }, 9);
        for i in 0..50 {
            net.send(r(0), r(1), i);
        }
        let mut last = 0;
        while let Some((t, _)) = net.next_delivery() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(net.now(), last);
    }

    #[test]
    fn hold_and_release() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(1), 0);
        net.hold(r(0), r(1));
        net.send(r(0), r(1), 7);
        net.send(r(0), r(2), 8); // other link unaffected
        assert_eq!(net.held_count(), 1);
        assert!(!net.is_quiescent());

        let (_, e) = net.next_delivery().unwrap();
        assert_eq!(e.msg, 8);
        assert!(net.next_delivery().is_none()); // held msg invisible

        net.release(r(0), r(1));
        let (_, e) = net.next_delivery().unwrap();
        assert_eq!(e.msg, 7);
        assert!(net.is_quiescent());
    }

    #[test]
    fn hold_is_directional() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(1), 0);
        net.hold(r(0), r(1));
        net.send(r(1), r(0), 1);
        assert!(net.next_delivery().is_some());
    }

    #[test]
    fn stats_track_sent_and_delivered() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(1), 0);
        net.send(r(0), r(1), 1);
        net.send(r(1), r(0), 2);
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().bytes, 0); // plain send: unsized
        net.next_delivery();
        assert_eq!(net.stats().delivered, 1);
        net.send_sized(r(0), r(1), 3, 40);
        net.send_sized(r(0), r(1), 4, 2);
        assert_eq!(net.stats().sent, 4);
        assert_eq!(net.stats().bytes, 42);
    }

    #[test]
    fn peek_and_advance_to() {
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(5), 0);
        assert_eq!(net.peek_delivery_time(), None);
        net.send(r(0), r(1), 1);
        assert_eq!(net.peek_delivery_time(), Some(5));
        net.advance_to(3);
        assert_eq!(net.now(), 3);
        net.advance_to(1); // never goes backwards
        assert_eq!(net.now(), 3);
        let (t, _) = net.next_delivery().unwrap();
        assert_eq!((t, net.now()), (5, 5));
    }

    #[test]
    fn scripted_outage_drops_at_send_time_only() {
        use crate::faults::FaultSchedule;
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(10), 0);
        net.set_schedule(FaultSchedule::none().outage(r(0), r(1), 5, 20));
        net.send(r(0), r(1), 1); // now=0: link still up, arrives at 10
        net.advance_to(5);
        net.send(r(0), r(1), 2); // inside the outage: dropped
        net.send(r(1), r(0), 3); // reverse direction unaffected
        net.advance_to(20);
        net.send(r(0), r(1), 4); // healed
        let got: Vec<u32> =
            std::iter::from_fn(|| net.next_delivery().map(|(_, e)| e.msg)).collect();
        assert_eq!(got, vec![1, 3, 4]);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut net: SimNetwork<u32> =
                SimNetwork::new(DelayModel::Uniform { min: 1, max: 30 }, seed);
            for i in 0..20 {
                net.send(r(i % 3), r((i + 1) % 3), i);
            }
            let mut order = Vec::new();
            while let Some((t, e)) = net.next_delivery() {
                order.push((t, e.msg));
            }
            order
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
