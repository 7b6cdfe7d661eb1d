//! Seeded op streams, generated before anything is timed: the program
//! under test only ever sees these inputs.

use crate::spec::{Front, Workload, GENERATORS};
use prcc_core::Value;
use prcc_sharegraph::ShareGraph;
use prcc_sim::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOp {
    pub sid: u32,
    pub reg: u32,
    pub write: bool,
}

/// One generator's inputs, one entry per tick slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stream {
    /// `quota` ops per tick.
    Serve(Vec<ServeOp>),
    /// One burst per tick: `(replica, registers)`.
    Bursts(Vec<(u32, Vec<u32>)>),
}

/// The value written by generator `g`'s `i`-th write slot: unique per
/// run, so a final store can be traced back to the op that wrote it.
pub fn value_of(g: usize, i: usize) -> Value {
    Value::from(((g as u64) << 48) | i as u64)
}

/// Generator `g`'s stream for `ticks` ticks. Sessions (and, for bursts,
/// replicas) are partitioned by generator, because a session must be
/// driven by one worker at a time.
pub fn generate(w: &Workload, graph: &ShareGraph, seed: u64, g: usize, ticks: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let registers = graph.placement().num_registers();
    match w.front {
        Front::Serving { sessions } => {
            let zipf = Zipf::new(registers, 1.0);
            let owned = sessions / GENERATORS;
            let ops = (0..ticks as usize * w.quota)
                .map(|_| ServeOp {
                    sid: (rng.gen_range(0..owned) * GENERATORS + g) as u32,
                    reg: zipf.sample(&mut rng) as u32,
                    write: rng.gen_bool(w.write_ratio),
                })
                .collect();
            Stream::Serve(ops)
        }
        Front::WriteBurst => {
            let per_gen = graph.num_replicas() / GENERATORS;
            let bursts = (0..ticks as usize)
                .map(|k| {
                    let replica = (g * per_gen + k % per_gen) as u32;
                    let regs = (0..w.quota)
                        .map(|_| rng.gen_range(0..registers) as u32)
                        .collect();
                    (replica, regs)
                })
                .collect();
            Stream::Bursts(bursts)
        }
    }
}

pub fn generate_all(w: &Workload, graph: &ShareGraph, seed: u64, ticks: u64) -> Vec<Stream> {
    (0..GENERATORS)
        .map(|g| generate(w, graph, seed, g, ticks))
        .collect()
}

/// FNV-1a over every op of every stream: two runs with equal fingerprints
/// drove identical inputs. Printed with the results.
pub fn fingerprint(streams: &[Stream]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in streams {
        match s {
            Stream::Serve(ops) => {
                for op in ops {
                    mix(u64::from(op.sid) << 33 | u64::from(op.reg) << 1 | u64::from(op.write));
                }
            }
            Stream::Bursts(bursts) => {
                for (r, regs) in bursts {
                    mix(u64::from(*r));
                    regs.iter().for_each(|&x| mix(u64::from(x)));
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let g = (w.graph)();
            let a = generate_all(w, &g, 7, 200);
            assert_eq!(a, generate_all(w, &g, 7, 200), "{}", w.name);
            assert_eq!(fingerprint(&a), fingerprint(&generate_all(w, &g, 7, 200)));
            assert_ne!(
                fingerprint(&a),
                fingerprint(&generate_all(w, &g, 8, 200)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        // The verify pass replays a prefix of the measured stream.
        let w = &WORKLOADS[0];
        let g = (w.graph)();
        let (Stream::Serve(short), Stream::Serve(long)) =
            (generate(w, &g, 7, 1, 10), generate(w, &g, 7, 1, 50))
        else {
            panic!("serving workload");
        };
        assert_eq!(short[..], long[..short.len()]);
    }

    #[test]
    fn streams_respect_the_partition_and_the_mix() {
        let w = &WORKLOADS[1];
        let g = (w.graph)();
        for gen in 0..GENERATORS {
            let Stream::Serve(ops) = generate(w, &g, 7, gen, 2_000) else {
                panic!("serving workload");
            };
            assert_eq!(ops.len(), 2_000 * w.quota);
            assert!(ops.iter().all(|op| op.sid as usize % GENERATORS == gen));
            let writes = ops.iter().filter(|op| op.write).count() as f64 / ops.len() as f64;
            assert!(
                (writes - w.write_ratio).abs() < 0.02,
                "write share {writes}"
            );
        }
        let w = &WORKLOADS[2];
        let g = (w.graph)();
        let Stream::Bursts(b) = generate(w, &g, 7, 1, 8) else {
            panic!("burst workload");
        };
        assert_eq!(
            b.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            [4, 5, 6, 7, 4, 5, 6, 7]
        );
        assert!(b.iter().all(|(_, regs)| regs.len() == w.quota));
    }
}
