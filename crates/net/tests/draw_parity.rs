//! One seed, one per-link draw sequence: the lockstep [`SimNetwork`] and
//! the threaded [`ThreadNet`] roll every send in the same link core, from
//! one seeded stream per sender. So the same sends from each sender draw
//! the same fault action and the same delays, in ticks, on every
//! `(src, dst)` link under both drivers.

use prcc_net::{DelayModel, FaultPlan, SimNetwork, ThreadNet, TICK};
use prcc_sharegraph::ReplicaId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const N: u32 = 4;
const ROUNDS: u32 = 200;
const SEED: u64 = 23;

fn delay() -> DelayModel {
    DelayModel::Uniform { min: 1, max: 6 }
}

fn faults() -> FaultPlan {
    FaultPlan {
        drop_prob: 0.2,
        duplicate_prob: 0.2,
        ..Default::default()
    }
}

/// Per link, each message that got through with the delays of its
/// copies, earliest first: a dropped message is missing, a duplicated
/// one has two.
type Links<D> = BTreeMap<(ReplicaId, ReplicaId), BTreeMap<u32, Vec<D>>>;

/// Every node sends message `k` to every other node, round after round,
/// in one fixed order.
fn sends() -> impl Iterator<Item = (ReplicaId, ReplicaId, u32)> {
    (0..ROUNDS).flat_map(|k| {
        (0..N).flat_map(move |s| {
            (0..N)
                .filter(move |&d| d != s)
                .map(move |d| (ReplicaId::new(s), ReplicaId::new(d), k))
        })
    })
}

fn lockstep() -> Links<u64> {
    let mut net: SimNetwork<u32> = SimNetwork::new(delay(), SEED);
    net.set_faults(faults());
    for (s, d, k) in sends() {
        net.send(s, d, k);
    }
    // Nothing was delivered while sending, so every send left at 0.
    let mut links = Links::new();
    while let Some((t, env)) = net.next_delivery() {
        let copies: &mut Vec<u64> = links
            .entry((env.src, env.dst))
            .or_default()
            .entry(env.msg)
            .or_default();
        copies.push(t);
    }
    links
}

/// The threaded run, each delay as the range of ticks that fits the
/// frame's due instant and the stamps taken around its send: one value
/// unless the send itself took a tick or more.
fn threaded() -> Links<(u64, u64)> {
    let net: ThreadNet<u32> = ThreadNet::with_config(N as usize, delay(), SEED, faults(), 1 << 12);
    let mut stamps = BTreeMap::new();
    for (s, d, k) in sends() {
        let before = Instant::now();
        assert!(net.handle(s).send(d, k), "inbox shed a frame");
        stamps.insert((s, d, k), (before, Instant::now()));
    }
    std::thread::sleep(TICK * delay().max_delay() as u32 + Duration::from_millis(20));
    let tick = TICK.as_nanos();
    let mut links = Links::new();
    for i in 0..N {
        let h = net.handle(ReplicaId::new(i));
        while let Some(due) = h.next_due() {
            let env = h.try_recv().expect("every frame is due");
            let (before, after) = stamps[&(env.src, env.dst, env.msg)];
            let lo = (due - after).as_nanos().div_ceil(tick) as u64;
            let hi = ((due - before).as_nanos() / tick) as u64;
            let copies: &mut Vec<(u64, u64)> = links
                .entry((env.src, env.dst))
                .or_default()
                .entry(env.msg)
                .or_default();
            copies.push((lo, hi));
        }
    }
    links
}

#[test]
fn one_seed_draws_the_same_per_link_sequence_in_lockstep_and_threaded_runs() {
    let (sim, threads) = (lockstep(), threaded());
    let (mut exact, mut copies, mut duplicated) = (0, 0, 0);
    for (link, sim_msgs) in &sim {
        let thread_msgs = &threads[link];
        assert!(
            sim_msgs.keys().eq(thread_msgs.keys()),
            "link {link:?}: the drivers dropped different messages"
        );
        for (k, delays) in sim_msgs {
            let ranges = &thread_msgs[k];
            assert_eq!(
                delays.len(),
                ranges.len(),
                "link {link:?}, message {k}: copies differ"
            );
            duplicated += usize::from(delays.len() == 2);
            for (&d, &(lo, hi)) in delays.iter().zip(ranges) {
                assert!(
                    (lo..=hi).contains(&d),
                    "link {link:?}, message {k}: lockstep drew {d} ticks, threads {lo}..={hi}"
                );
                exact += usize::from(lo == hi);
                copies += 1;
            }
        }
    }
    assert_eq!(
        sim.len(),
        (N * (N - 1)) as usize,
        "a link lost every message"
    );
    let sent = (ROUNDS * N * (N - 1)) as usize;
    let received: usize = sim.values().map(BTreeMap::len).sum();
    assert!(received < sent, "the plan dropped nothing");
    assert!(duplicated > 0, "the plan duplicated nothing");
    assert!(
        exact * 2 > copies,
        "only {exact} of {copies} threaded delays were pinned to one tick"
    );
}
