//! The lockstep network: the link core driven by a simulated clock, so
//! every execution is reproducible from its seed. For the adversarial
//! executions of Theorem 8 and Lemma 14, links can be
//! [held](SimNetwork::hold): messages on a held link are parked until it
//! is [released](SimNetwork::release).

use crate::delay::DelayModel;
use crate::faults::{FaultPlan, FaultSchedule};
use crate::link::{Draws, Envelope, Queue};
use prcc_sharegraph::ReplicaId;
use std::collections::HashMap;

/// Statistics kept by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by [`SimNetwork::send`].
    pub sent: usize,
    /// Messages handed out by [`SimNetwork::next_delivery`].
    pub delivered: usize,
    /// Messages duplicated by the fault plan.
    pub duplicated: usize,
    /// Messages dropped by the fault plan or a scripted outage.
    pub dropped: usize,
}

/// A held link's messages, each with the delay it drew at its send.
type Parked<M> = Vec<(u64, Envelope<M>)>;

/// The simulated network. Time is logical (`u64` ticks) and advances to
/// each delivery instant; at one instant, messages are delivered in the
/// order they were sent. The crate docs show it at work.
#[derive(Debug)]
pub struct SimNetwork<M> {
    delay: DelayModel,
    faults: FaultSchedule,
    seed: u64,
    /// Sender `i`'s draws at index `i`, opened at its first send.
    draws: Vec<Draws>,
    now: u64,
    queue: Queue<u64, M>,
    held: HashMap<(ReplicaId, ReplicaId), Parked<M>>,
    stats: NetStats,
}

impl<M> SimNetwork<M> {
    /// Creates a network with the given delay model and RNG seed.
    pub fn new(delay: DelayModel, seed: u64) -> Self {
        SimNetwork {
            delay,
            faults: FaultSchedule::none(),
            seed,
            draws: Vec::new(),
            now: 0,
            queue: Queue::new(),
            held: HashMap::new(),
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

    /// Current logical time (the delivery instant of the last message
    /// handed out, or 0).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// True if no message is in flight or held.
    pub fn is_quiescent(&self) -> bool {
        self.queue.len() == 0 && self.held.values().all(Vec::is_empty)
    }

    /// Sends `msg` from `src` to `dst`. A non-benign fault plan may drop
    /// the message or send a second copy, each copy with its own delay.
    /// On a held link the copies are parked; otherwise each is
    /// scheduled its delay from now.
    pub fn send(&mut self, src: ReplicaId, dst: ReplicaId, msg: M)
    where
        M: Clone,
    {
        self.stats.sent += 1;
        let seed = self.seed;
        for i in self.draws.len()..=src.index() {
            self.draws.push(Draws::new(seed, i));
        }
        let now = self.now;
        let Some((delay, second)) =
            self.draws[src.index()].roll(&self.delay, &self.faults, src, dst, || now)
        else {
            self.stats.dropped += 1;
            return;
        };
        let env = Envelope { src, dst, msg };
        if let Some(d) = second {
            self.stats.duplicated += 1;
            self.schedule(d, env.clone());
        }
        self.schedule(delay, env);
    }

    fn schedule(&mut self, delay: u64, env: Envelope<M>) {
        match self.held.get_mut(&(env.src, env.dst)) {
            Some(parked) => parked.push((delay, env)),
            None => self.queue.push(self.now + delay, env),
        }
    }

    /// Pops the next delivery, advancing logical time to its instant.
    /// Returns `None` when nothing is scheduled (held messages don't
    /// count — release their links first).
    pub fn next_delivery(&mut self) -> Option<(u64, Envelope<M>)> {
        let (t, env) = self.queue.pop()?;
        self.now = self.now.max(t);
        self.stats.delivered += 1;
        Some((t, env))
    }

    /// Delivery instant of the earliest scheduled message, without
    /// popping it. Lets an event loop interleave network deliveries with
    /// other timed events (retransmission deadlines, scripted restarts).
    pub fn peek_delivery_time(&self) -> Option<u64> {
        self.queue.peek()
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
        self.held.entry((src, dst)).or_default();
    }

    /// Releases a held link, scheduling each parked message the delay
    /// it drew at its send, counted from now.
    pub fn release(&mut self, src: ReplicaId, dst: ReplicaId) {
        for (delay, env) in self.held.remove(&(src, dst)).unwrap_or_default() {
            self.queue.push(self.now + delay, env);
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
    fn equal_instants_deliver_in_global_send_order() {
        // Ties are broken by send order across senders, not per link.
        let mut net: SimNetwork<u32> = SimNetwork::new(DelayModel::Fixed(1), 0);
        for (i, (s, d)) in [(2, 0), (0, 1), (1, 2), (0, 2)].into_iter().enumerate() {
            net.send(r(s), r(d), i as u32);
        }
        let got: Vec<u32> =
            std::iter::from_fn(|| net.next_delivery().map(|(_, e)| e.msg)).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
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
        assert!(!net.is_quiescent());

        let (_, e) = net.next_delivery().unwrap();
        assert_eq!(e.msg, 8);
        assert!(net.next_delivery().is_none()); // held msg invisible

        net.advance_to(10);
        net.release(r(0), r(1));
        // Its delay counts from the release.
        assert_eq!(net.next_delivery().map(|(t, e)| (t, e.msg)), Some((11, 7)));
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
        net.next_delivery();
        assert_eq!(net.stats().delivered, 1);
        net.send(r(0), r(1), 3);
        net.send(r(0), r(1), 4);
        assert_eq!(net.stats().sent, 4);
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
