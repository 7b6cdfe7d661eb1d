//! Tick-paced open loop: every tick a generator issues a fixed quota of
//! ops, all *due* at the tick's start. Ticks are never skipped — a late
//! tick runs late and its ops are still timed from their due instant, so
//! a stall is charged to the ops queued behind it.

use std::time::{Duration, Instant};

/// The fixed schedule of one generator: `ticks` ticks of `quota` ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub tick: Duration,
    pub quota: usize,
    pub ticks: u64,
}

impl Schedule {
    /// Ticks covering `span` at this tick length (rounded down, at least 1
    /// when `span` is non-zero).
    pub fn ticks_in(tick: Duration, span: Duration) -> u64 {
        if span.is_zero() {
            return 0;
        }
        ((span.as_nanos() / tick.as_nanos().max(1)) as u64).max(1)
    }

    pub fn total_ops(&self) -> usize {
        self.quota * self.ticks as usize
    }

    /// Offset of tick `k`'s due instant from the schedule start.
    pub fn due_offset(&self, k: u64) -> Duration {
        Duration::from_nanos(self.tick.as_nanos() as u64 * k)
    }

    /// The ops (indices into the generator's stream) due at tick `k`.
    pub fn ops_of(&self, k: u64) -> std::ops::Range<usize> {
        let lo = k as usize * self.quota;
        lo..lo + self.quota
    }
}

/// Walks a [`Schedule`] against the wall clock.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    schedule: Schedule,
    next: u64,
}

impl Pacer {
    pub fn new(start: Instant, schedule: Schedule) -> Self {
        Pacer {
            start,
            schedule,
            next: 0,
        }
    }

    /// Sleeps until the next tick is due (returns at once when already
    /// late) and yields `(tick index, due instant)`; `None` after the last
    /// tick. Every tick index is yielded exactly once, in order.
    pub fn next_tick(&mut self) -> Option<(u64, Instant)> {
        if self.next >= self.schedule.ticks {
            return None;
        }
        let k = self.next;
        self.next += 1;
        let due = self.start + self.schedule.due_offset(k);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        Some((k, due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Schedule = Schedule {
        tick: Duration::from_micros(500),
        quota: 25,
        ticks: 4,
    };

    #[test]
    fn quotas_and_due_times() {
        assert_eq!(S.total_ops(), 100);
        assert_eq!(S.ops_of(0), 0..25);
        assert_eq!(S.ops_of(3), 75..100);
        assert_eq!(S.due_offset(3), Duration::from_micros(1500));
        assert_eq!(
            Schedule::ticks_in(Duration::from_micros(500), Duration::from_secs(8)),
            16_000
        );
        assert_eq!(
            Schedule::ticks_in(Duration::from_millis(1), Duration::ZERO),
            0
        );
    }

    #[test]
    fn a_late_start_skips_no_tick() {
        // The schedule started 10 ms ago: every tick is already late, and
        // each must still be yielded once, in order, with its own due time.
        let start = Instant::now() - Duration::from_millis(10);
        let mut p = Pacer::new(start, S);
        let t0 = Instant::now();
        let got: Vec<(u64, Instant)> = std::iter::from_fn(|| p.next_tick()).collect();
        assert_eq!(
            got.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        for &(k, due) in &got {
            assert_eq!(due, start + S.due_offset(k));
        }
        // Late ticks run back to back instead of sleeping.
        assert!(t0.elapsed() < Duration::from_millis(5));
        assert!(p.next_tick().is_none());
    }

    #[test]
    fn an_early_pacer_waits_for_the_due_time() {
        let start = Instant::now() + Duration::from_millis(2);
        let mut p = Pacer::new(start, S);
        let (k, due) = p.next_tick().unwrap();
        assert_eq!(k, 0);
        assert!(Instant::now() >= due);
    }
}
