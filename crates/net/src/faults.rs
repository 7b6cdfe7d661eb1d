//! Fault injection for robustness testing.
//!
//! The paper's model assumes reliable, exactly-once channels. The fault
//! plan deliberately breaks that model so tests can demonstrate (a) the
//! protocol's inherent duplicate suppression (the predicate `J` admits
//! each update exactly once) and (b) that the consistency checker catches
//! the liveness loss caused by genuinely dropped messages — and so the
//! session layer ([`crate::session`]) has something real to repair.
//!
//! Two layers of fault description compose:
//!
//! * [`FaultPlan`] — *probabilistic* per-message faults (drop /
//!   duplicate) plus permanently dead links;
//! * [`FaultSchedule`] — *deterministic scripted* events over simulated
//!   time: partitions `[t1, t2)` that heal, replica crashes with
//!   restarts, and link flaps. A schedule embeds a plan, so both kinds
//!   can run together and the whole execution stays reproducible from
//!   its seed.

use prcc_sharegraph::ReplicaId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// A fault plan applied at send time.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability a message is duplicated (delivered twice with
    /// independent delays).
    pub duplicate_prob: f64,
    /// Probability a message copy is silently dropped.
    pub drop_prob: f64,
    /// Directed links that drop everything (a crashed path).
    pub dead_links: HashSet<(ReplicaId, ReplicaId)>,
}

/// What the fault plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Deliver two copies.
    Duplicate,
    /// Never deliver.
    Drop,
}

impl FaultPlan {
    /// A plan that never interferes.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan duplicating each message with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        FaultPlan {
            duplicate_prob: p,
            ..Default::default()
        }
    }

    /// A plan dropping each message with probability `p`.
    pub fn dropping(p: f64) -> Self {
        FaultPlan {
            drop_prob: p,
            ..Default::default()
        }
    }

    /// Kills the directed link `src -> dst`.
    pub fn kill_link(mut self, src: ReplicaId, dst: ReplicaId) -> Self {
        self.dead_links.insert((src, dst));
        self
    }

    /// True if the plan can never interfere.
    pub fn is_benign(&self) -> bool {
        self.duplicate_prob <= 0.0 && self.drop_prob <= 0.0 && self.dead_links.is_empty()
    }

    /// Decides the fate of one message.
    ///
    /// Duplication and loss are *independent* faults: the network first
    /// decides whether an extra copy exists (probability
    /// `duplicate_prob`), then each copy is lost independently with
    /// probability `drop_prob` — so a duplicated message can still lose
    /// one or both copies. Marginals: a single message survives with
    /// probability `1 − drop_prob`; the `Duplicate` outcome (two copies
    /// delivered) has probability `duplicate_prob · (1 − drop_prob)²`.
    pub(crate) fn decide(&self, rng: &mut StdRng, src: ReplicaId, dst: ReplicaId) -> FaultAction {
        if self.dead_links.contains(&(src, dst)) {
            return FaultAction::Drop;
        }
        let dup = self.duplicate_prob > 0.0 && rng.gen_bool(self.duplicate_prob.clamp(0.0, 1.0));
        let p_drop = self.drop_prob.clamp(0.0, 1.0);
        let copies = if dup { 2 } else { 1 };
        let mut survivors = 0;
        for _ in 0..copies {
            if p_drop <= 0.0 || !rng.gen_bool(p_drop) {
                survivors += 1;
            }
        }
        match survivors {
            0 => FaultAction::Drop,
            1 => FaultAction::Deliver,
            _ => FaultAction::Duplicate,
        }
    }
}

/// One scripted window during which a directed link drops everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Source replica of the severed direction.
    pub src: ReplicaId,
    /// Destination replica of the severed direction.
    pub dst: ReplicaId,
    /// First tick of the outage (inclusive).
    pub from: u64,
    /// First tick after the outage (exclusive) — the heal instant.
    pub until: u64,
}

/// One scripted replica crash: the replica loses all volatile state at
/// `at` and recovers from its durable log at `restart`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing replica.
    pub replica: ReplicaId,
    /// Crash instant (inclusive — the replica is down from this tick).
    pub at: u64,
    /// Restart instant (the replica runs recovery at this tick).
    pub restart: u64,
}

/// A deterministic scripted fault schedule over simulated time, layered
/// on top of the probabilistic [`FaultPlan`].
///
/// All events are expressed in simulated ticks, so a schedule replayed
/// against the same seed produces the identical execution. Link outages
/// are checked at *send* time, by the link core under both
/// [`SimNetwork`](crate::SimNetwork) and [`ThreadNet`](crate::ThreadNet):
/// a message that entered the channel before the outage still arrives,
/// as one sent before a [`hold`](crate::SimNetwork::hold) does. Crash
/// windows are enforced by the system harness, which discards
/// deliveries to a crashed replica and replays its recovery log at the
/// restart instant.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Probabilistic per-message faults, applied alongside the script.
    pub plan: FaultPlan,
    /// Scripted link outages (partitions, flaps).
    pub outages: Vec<LinkOutage>,
    /// Scripted crashes with restart instants.
    pub crashes: Vec<CrashEvent>,
}

impl FaultSchedule {
    /// A schedule that never interferes.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Wraps a probabilistic plan with no scripted events.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultSchedule {
            plan,
            ..Default::default()
        }
    }

    /// Adds a single directed link outage `[from, until)`.
    pub fn outage(mut self, src: ReplicaId, dst: ReplicaId, from: u64, until: u64) -> Self {
        self.outages.push(LinkOutage {
            src,
            dst,
            from,
            until,
        });
        self
    }

    /// Adds a bidirectional link outage `[from, until)`.
    pub fn sever(self, a: ReplicaId, b: ReplicaId, from: u64, until: u64) -> Self {
        self.outage(a, b, from, until).outage(b, a, from, until)
    }

    /// Partitions the replicas into `side_a` vs everyone in `side_b`
    /// during `[from, until)`: every cross link drops in both
    /// directions; links within each side are unaffected.
    pub fn partition<A, B>(mut self, side_a: A, side_b: B, from: u64, until: u64) -> Self
    where
        A: IntoIterator<Item = ReplicaId>,
        B: IntoIterator<Item = ReplicaId>,
    {
        let a: Vec<ReplicaId> = side_a.into_iter().collect();
        let b: Vec<ReplicaId> = side_b.into_iter().collect();
        for &x in &a {
            for &y in &b {
                self.outages.push(LinkOutage {
                    src: x,
                    dst: y,
                    from,
                    until,
                });
                self.outages.push(LinkOutage {
                    src: y,
                    dst: x,
                    from,
                    until,
                });
            }
        }
        self
    }

    /// Flaps the directed link `src -> dst`: starting at `from`, the link
    /// alternates `down` ticks dead / `up` ticks alive, for `cycles`
    /// rounds — the classic pathological path for retransmission logic.
    pub fn flap(
        mut self,
        src: ReplicaId,
        dst: ReplicaId,
        from: u64,
        down: u64,
        up: u64,
        cycles: usize,
    ) -> Self {
        let mut t = from;
        for _ in 0..cycles {
            self.outages.push(LinkOutage {
                src,
                dst,
                from: t,
                until: t + down,
            });
            t += down + up;
        }
        self
    }

    /// Crashes `replica` at `at`, restarting it at `restart`.
    ///
    /// # Panics
    ///
    /// Panics if `restart <= at`.
    pub fn crash(mut self, replica: ReplicaId, at: u64, restart: u64) -> Self {
        assert!(restart > at, "restart must be after the crash");
        self.crashes.push(CrashEvent {
            replica,
            at,
            restart,
        });
        self
    }

    /// True if the schedule (plan and script) can never interfere.
    pub fn is_benign(&self) -> bool {
        self.plan.is_benign() && self.outages.is_empty() && self.crashes.is_empty()
    }

    /// True if the directed link is inside a scripted outage at `now`.
    pub(crate) fn link_down(&self, src: ReplicaId, dst: ReplicaId, now: u64) -> bool {
        self.outages
            .iter()
            .any(|o| o.src == src && o.dst == dst && o.from <= now && now < o.until)
    }

    /// Every crash and restart instant interleaved in time order:
    /// `(tick, replica, is_restart)`, at one tick crashes before restarts
    /// and each kind by replica. The simulator fires it as one queue; the
    /// threaded runtime's replica loops each keep their own entries of it
    /// and fire them when their tick falls due.
    pub fn crash_timeline(&self) -> Vec<(u64, ReplicaId, bool)> {
        let mut t: Vec<(u64, ReplicaId, bool)> = self
            .crashes
            .iter()
            .flat_map(|c| [(c.at, c.replica, false), (c.restart, c.replica, true)])
            .collect();
        t.sort_unstable_by_key(|&(tick, replica, restart)| (tick, restart, replica));
        t
    }

    /// The last scripted event boundary (outage heal or restart), or 0 if
    /// the script is empty — useful for sizing workloads past the chaos.
    pub fn horizon(&self) -> u64 {
        let o = self.outages.iter().map(|o| o.until).max().unwrap_or(0);
        let c = self.crashes.iter().map(|c| c.restart).max().unwrap_or(0);
        o.max(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn benign_plan_always_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.is_benign());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(plan.decide(&mut rng, r(0), r(1)), FaultAction::Deliver);
        }
    }

    #[test]
    fn dead_link_always_drops() {
        let plan = FaultPlan::none().kill_link(r(0), r(1));
        assert!(!plan.is_benign());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(plan.decide(&mut rng, r(0), r(1)), FaultAction::Drop);
        assert_eq!(plan.decide(&mut rng, r(1), r(0)), FaultAction::Deliver);
    }

    #[test]
    fn probabilities_roughly_respected() {
        let plan = FaultPlan {
            duplicate_prob: 0.3,
            drop_prob: 0.2,
            dead_links: HashSet::new(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut dup = 0;
        let mut drop = 0;
        let n = 10_000;
        for _ in 0..n {
            match plan.decide(&mut rng, r(0), r(1)) {
                FaultAction::Duplicate => dup += 1,
                FaultAction::Drop => drop += 1,
                FaultAction::Deliver => {}
            }
        }
        // Independent faults: Duplicate = both copies of a duplicated
        // message survive: 0.3 * 0.8^2 = 19.2%. Drop = every copy lost:
        // 0.7 * 0.2 + 0.3 * 0.2^2 = 15.2%.
        assert!((1650..2200).contains(&dup), "dup {dup}");
        assert!((1300..1800).contains(&drop), "drop {drop}");
    }

    #[test]
    fn duplication_rate_independent_of_drop_rate() {
        // The dup roll is consumed regardless of the drop outcome: with
        // drop_prob = 0 the Duplicate outcome rate is the full 30%.
        let plan = FaultPlan::duplicating(0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let dup = (0..10_000)
            .filter(|_| plan.decide(&mut rng, r(0), r(1)) == FaultAction::Duplicate)
            .count();
        assert!((2700..3300).contains(&dup), "dup {dup}");
    }

    #[test]
    fn schedule_outage_windows() {
        let s = FaultSchedule::none().outage(r(0), r(1), 10, 20);
        assert!(!s.link_down(r(0), r(1), 9));
        assert!(s.link_down(r(0), r(1), 10));
        assert!(s.link_down(r(0), r(1), 19));
        assert!(!s.link_down(r(0), r(1), 20)); // healed
        assert!(!s.link_down(r(1), r(0), 15)); // directed
        assert_eq!(s.horizon(), 20);
    }

    #[test]
    fn schedule_partition_is_bidirectional_and_heals() {
        let s = FaultSchedule::none().partition([r(0), r(1)], [r(2), r(3)], 5, 15);
        for (a, b) in [(0u32, 2u32), (0, 3), (1, 2), (1, 3)] {
            assert!(s.link_down(r(a), r(b), 7));
            assert!(s.link_down(r(b), r(a), 7));
            assert!(!s.link_down(r(a), r(b), 15));
        }
        assert!(!s.link_down(r(0), r(1), 7), "intra-side links unaffected");
        assert!(!s.link_down(r(2), r(3), 7));
    }

    #[test]
    fn schedule_crash_windows_and_restarts() {
        let s = FaultSchedule::none()
            .crash(r(1), 50, 120)
            .crash(r(3), 10, 30);
        assert_eq!(s.horizon(), 120);
    }

    #[test]
    fn crash_timeline_interleaves_in_time_order() {
        let s = FaultSchedule::none()
            .crash(r(1), 50, 120)
            .crash(r(3), 10, 60);
        assert_eq!(
            s.crash_timeline(),
            vec![
                (10, r(3), false),
                (50, r(1), false),
                (60, r(3), true),
                (120, r(1), true),
            ]
        );
        // At one tick, a crash comes before a restart whatever the
        // replicas' ids.
        let s = FaultSchedule::none()
            .crash(r(1), 10, 40)
            .crash(r(2), 40, 90);
        assert_eq!(
            s.crash_timeline(),
            vec![
                (10, r(1), false),
                (40, r(2), false),
                (40, r(1), true),
                (90, r(2), true),
            ]
        );
    }

    #[test]
    fn schedule_flap_alternates() {
        let s = FaultSchedule::none().flap(r(0), r(1), 0, 5, 5, 2);
        assert!(s.link_down(r(0), r(1), 0));
        assert!(s.link_down(r(0), r(1), 4));
        assert!(!s.link_down(r(0), r(1), 5)); // up phase
        assert!(s.link_down(r(0), r(1), 10)); // second down phase
        assert!(!s.link_down(r(0), r(1), 15));
        assert!(!s.link_down(r(0), r(1), 20)); // past the script
    }

    #[test]
    #[should_panic(expected = "restart must be after")]
    fn crash_restart_ordering_validated() {
        let _ = FaultSchedule::none().crash(r(0), 10, 10);
    }
}
