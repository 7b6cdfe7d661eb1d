//! The link core under both network emulators.
//!
//! [`SimNetwork`](crate::SimNetwork) (lockstep, in ticks) and
//! [`ThreadNet`](crate::ThreadNet) (real threads, over `Instant`) roll
//! every send here, from one seeded stream per sender, and queue what
//! survives in a due-ordered [`Queue`]. So a seed names one per-link
//! sequence of fault actions and delays whichever driver runs it.

use crate::delay::DelayModel;
use crate::faults::{FaultAction, FaultSchedule};
use prcc_sharegraph::ReplicaId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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

/// One sender's fault and delay draws: what it rolls depends only on
/// the seed, its id and its own sends, never on other senders.
#[derive(Debug)]
pub(crate) struct Draws(StdRng);

impl Draws {
    /// Sender `i`'s stream under `seed`.
    pub(crate) fn new(seed: u64, i: usize) -> Self {
        Draws(StdRng::seed_from_u64(
            seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Rolls one send `src -> dst`: `None` if a scripted outage at
    /// `tick()` (read only when the schedule has outages) or the fault
    /// plan drops it, else the delay in ticks of its copy and, if the
    /// plan duplicates it, of the second copy.
    pub(crate) fn roll(
        &mut self,
        delay: &DelayModel,
        faults: &FaultSchedule,
        src: ReplicaId,
        dst: ReplicaId,
        tick: impl FnOnce() -> u64,
    ) -> Option<(u64, Option<u64>)> {
        if !faults.outages.is_empty() && faults.link_down(src, dst, tick()) {
            return None;
        }
        let action = faults.plan.decide(&mut self.0, src, dst);
        let mut sample = || delay.sample(&mut self.0, src, dst);
        match action {
            FaultAction::Drop => None,
            FaultAction::Deliver => Some((sample(), None)),
            FaultAction::Duplicate => Some((sample(), Some(sample()))),
        }
    }
}

/// A message that falls due at `due`.
#[derive(Debug)]
struct Due<T, M> {
    due: T,
    seq: u64,
    env: Envelope<M>,
}

impl<T: Ord, M> PartialEq for Due<T, M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord, M> Eq for Due<T, M> {}
impl<T: Ord, M> PartialOrd for Due<T, M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord, M> Ord for Due<T, M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.due, self.seq).cmp(&(&other.due, other.seq))
    }
}

/// Messages in flight, earliest due first and, at one due instant, in
/// the order they were pushed.
#[derive(Debug)]
pub(crate) struct Queue<T, M> {
    heap: BinaryHeap<Reverse<Due<T, M>>>,
    seq: u64,
}

impl<T: Ord + Copy, M> Queue<T, M> {
    pub(crate) fn new() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, due: T, env: Envelope<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Due { due, seq, env }));
    }

    /// When the earliest message falls due.
    pub(crate) fn peek(&self) -> Option<T> {
        self.heap.peek().map(|Reverse(d)| d.due)
    }

    /// Pops the earliest message with its due instant.
    pub(crate) fn pop(&mut self) -> Option<(T, Envelope<M>)> {
        self.heap.pop().map(|Reverse(d)| (d.due, d.env))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}
