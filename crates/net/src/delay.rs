//! Message-delay models for the simulated network.
//!
//! The paper assumes an asynchronous system with reliable point-to-point
//! channels that are **not FIFO**. Random per-message delays realize that
//! model: two messages on the same link may be delivered out of order. The
//! "loosely synchronous" assumption of Appendix D (one-hop messages beat
//! `l`-hop propagation) corresponds to a narrow delay distribution; E8
//! sweeps the spread to find where truncated tracking starts violating
//! causality.

use prcc_sharegraph::ReplicaId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// How long a message takes from send to delivery, in simulated ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this long (FIFO behaviour per link).
    Fixed(u64),
    /// Uniform in `[min, max]` — the wider the band, the more reordering.
    Uniform {
        /// Minimum delay (inclusive).
        min: u64,
        /// Maximum delay (inclusive).
        max: u64,
    },
    /// Mostly `base`, but with probability `p_slow` a message is delayed
    /// uniformly in `[base, base * slow_factor]` — models stragglers /
    /// tail latency.
    LongTail {
        /// Common-case delay.
        base: u64,
        /// Probability of a straggler in `[0, 1]`.
        p_slow: f64,
        /// Multiplier bounding the straggler delay.
        slow_factor: u64,
    },
    /// Heterogeneous links: a jittered base delay per directed link, with
    /// a default for unlisted links — models intra- vs inter-datacenter
    /// paths. Each message is delayed uniformly in `[d, 2d]` where `d` is
    /// the link's base (keeping channels non-FIFO).
    PerLink {
        /// Delay base for links not in `overrides`.
        default: u64,
        /// Per-directed-link delay bases.
        overrides: HashMap<(ReplicaId, ReplicaId), u64>,
    },
}

impl DelayModel {
    /// Samples a delay for a message from `src` to `dst`.
    pub fn sample(&self, rng: &mut StdRng, src: ReplicaId, dst: ReplicaId) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
            DelayModel::LongTail {
                base,
                p_slow,
                slow_factor,
            } => {
                if rng.gen_bool(p_slow.clamp(0.0, 1.0)) {
                    let hi = base.saturating_mul(slow_factor.max(1));
                    if base >= hi {
                        base
                    } else {
                        rng.gen_range(base..=hi)
                    }
                } else {
                    base
                }
            }
            DelayModel::PerLink {
                default,
                ref overrides,
            } => {
                let d = overrides.get(&(src, dst)).copied().unwrap_or(default);
                if d == 0 {
                    0
                } else {
                    rng.gen_range(d..=d.saturating_mul(2))
                }
            }
        }
    }

    /// The smallest delay this model can produce.
    pub fn min_delay(&self) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, .. } => min,
            DelayModel::LongTail { base, .. } => base,
            DelayModel::PerLink {
                default,
                ref overrides,
            } => overrides.values().copied().fold(default, u64::min),
        }
    }

    /// The largest delay this model can produce (used by quiescence
    /// detection in the simulator).
    pub fn max_delay(&self) -> u64 {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { max, .. } => max,
            DelayModel::LongTail {
                base, slow_factor, ..
            } => base.saturating_mul(slow_factor.max(1)),
            DelayModel::PerLink {
                default,
                ref overrides,
            } => overrides
                .values()
                .copied()
                .chain([default])
                .max()
                .unwrap_or(default)
                .saturating_mul(2),
        }
    }
}

impl Default for DelayModel {
    /// A moderately reordering default: uniform in `[1, 10]`.
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 10 }
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
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = DelayModel::Fixed(5);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng, r(0), r(1)), 5);
        }
        assert_eq!(m.max_delay(), 5);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::Uniform { min: 3, max: 9 };
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..500 {
            let d = m.sample(&mut rng, r(0), r(1));
            assert!((3..=9).contains(&d));
            seen_lo |= d == 3;
            seen_hi |= d == 9;
        }
        assert!(seen_lo && seen_hi, "range endpoints should appear");
    }

    #[test]
    fn degenerate_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::Uniform { min: 4, max: 4 };
        assert_eq!(m.sample(&mut rng, r(0), r(1)), 4);
    }

    #[test]
    fn long_tail_mostly_base() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DelayModel::LongTail {
            base: 10,
            p_slow: 0.1,
            slow_factor: 20,
        };
        let samples: Vec<u64> = (0..1000).map(|_| m.sample(&mut rng, r(0), r(1))).collect();
        let base_count = samples.iter().filter(|&&d| d == 10).count();
        assert!(base_count > 800, "base count {base_count}");
        assert!(samples.iter().all(|&d| (10..=200).contains(&d)));
        assert_eq!(m.max_delay(), 200);
    }

    #[test]
    fn per_link_overrides() {
        let mut overrides = HashMap::new();
        overrides.insert((r(0), r(1)), 100u64);
        let m = DelayModel::PerLink {
            default: 2,
            overrides,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let fast = m.sample(&mut rng, r(1), r(0)); // default link
            assert!((2..=4).contains(&fast), "{fast}");
            let slow = m.sample(&mut rng, r(0), r(1));
            assert!((100..=200).contains(&slow), "{slow}");
        }
        assert_eq!(m.max_delay(), 200);
        // Zero-delay link.
        let zero = DelayModel::PerLink {
            default: 0,
            overrides: HashMap::new(),
        };
        assert_eq!(zero.sample(&mut rng, r(0), r(1)), 0);
    }

    #[test]
    fn min_delay_bounds_every_sample_from_below() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut slow_link = HashMap::new();
        slow_link.insert((r(0), r(1)), 100u64);
        let mut zero_link = HashMap::new();
        zero_link.insert((r(1), r(0)), 0u64);
        let cases = [
            (DelayModel::Fixed(5), 5),
            (DelayModel::Uniform { min: 3, max: 9 }, 3),
            (
                DelayModel::LongTail {
                    base: 10,
                    p_slow: 0.5,
                    slow_factor: 20,
                },
                10,
            ),
            (
                DelayModel::PerLink {
                    default: 2,
                    overrides: slow_link,
                },
                2,
            ),
            // A zero-delay override is the floor even under a slow default.
            (
                DelayModel::PerLink {
                    default: 7,
                    overrides: zero_link,
                },
                0,
            ),
            (
                DelayModel::PerLink {
                    default: 0,
                    overrides: HashMap::new(),
                },
                0,
            ),
        ];
        for (m, floor) in cases {
            assert_eq!(m.min_delay(), floor, "{m:?}");
            for _ in 0..200 {
                for (a, b) in [(0, 1), (1, 0)] {
                    let d = m.sample(&mut rng, r(a), r(b));
                    assert!(d >= floor && d <= m.max_delay(), "{m:?} drew {d}");
                }
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let m = DelayModel::Uniform { min: 0, max: 100 };
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(m.sample(&mut a, r(0), r(1)), m.sample(&mut b, r(0), r(1)));
        }
    }
}
