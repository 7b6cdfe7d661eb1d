//! Sharded copy-on-write register store: O(Δ) snapshot publishes.
//!
//! The threaded runtime publishes an immutable [`ReplicaView`] after
//! every state change so reader threads never enqueue into the replica
//! thread. A flat `HashMap` store makes that publish O(store) — the
//! whole map (values *and* provenance) is deep-cloned per write, so
//! per-write cost grows with register count, the opposite of the
//! metadata frugality the rest of the stack fights for.
//!
//! [`CowStore`] fixes the asymptotics with plain `Arc` sharing: the
//! store is a fixed power-of-two array of `Arc<Shard>` hash maps
//! (value + provenance together, so a snapshot can never pair a value
//! with the wrong source), held as `Arc`-shared chunks of [`CHUNK`]
//! shards. Publishing is [`CowStore::share`] — clone the `Vec` of chunk
//! `Arc`s, O(shards / CHUNK) refcount bumps, no data copied.
//! Mutation goes through [`Arc::make_mut`], chunk first and shard
//! second: a chunk still shared with an outstanding snapshot has its
//! `CHUNK` shard pointers copied once, and a shard still shared is
//! cloned once (that clone *is* the dirty-shard rebuild — sharing makes
//! the dirty set implicit in the refcounts), while what no snapshot
//! holds is written in place for free. Per publish epoch each chunk and
//! shard is cloned at most once, so the amortised publish cost is
//! O(registers changed since the last publish), not O(store) — and not
//! O(shards) either: the event-driven replica loop publishes once per
//! arrival burst, and at 1024 shards a flat pointer array made every
//! one of those publishes 1024 refcount bumps and as many drops.
//!
//! The old clone-the-world behaviour stays available as the
//! differential oracle via [`StoreMode::Clone`] (flat deep-cloned
//! views), per this repo's every-layer-has-an-off-switch convention.
//!
//! [`ReplicaView`]: crate::runtime::ReplicaView

use crate::value::Value;
use prcc_checker::UpdateId;
use prcc_sharegraph::RegisterId;
use std::collections::HashMap;
use std::sync::Arc;

/// How the threaded runtime materialises published snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// Sharded copy-on-write publishes: O(registers changed since the
    /// last publish) per publish.
    #[default]
    Cow,
    /// The original clone-the-world publish — O(store) per publish.
    /// Kept as the differential oracle: a [`StoreMode::Clone`] run must
    /// be byte-identical to a [`StoreMode::Cow`] run on the same seeded
    /// workload.
    Clone,
}

/// One stored register: its current value and the update that produced
/// it. Registers written through the routed protocol's payload path
/// carry no provenance (`src: None`) — the producing update is unknown
/// to the holder.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The register's current value.
    pub value: Value,
    /// The update whose value this is, when known.
    pub src: Option<UpdateId>,
}

type Shard = HashMap<RegisterId, Entry>;

/// Shards per chunk of the two-level shard array: √1024, so a publish
/// of the largest store and the first write into one of its chunks cost
/// the same 32 refcount bumps. Stores of up to 32 shards are one chunk.
const CHUNK: usize = 32;

/// A run of up to [`CHUNK`] consecutive shards, itself shared between
/// the live store and its snapshots.
type Chunk = Vec<Arc<Shard>>;

fn shards(chunks: &[Arc<Chunk>]) -> impl Iterator<Item = &Arc<Shard>> {
    chunks.iter().flat_map(|c| c.iter())
}

fn shard_of(chunks: &[Arc<Chunk>], x: RegisterId, mask: u64) -> &Shard {
    let i = shard_index(x, mask);
    &chunks[i / CHUNK][i % CHUNK]
}

/// Spreads register ids across shards: Fibonacci multiply-shift so
/// dense id ranges (the common case — topology generators number
/// registers 0..k) don't alias into one shard, then mask into the
/// power-of-two shard array. Using the high bits avoids a variable
/// shift that would be UB-adjacent for the 1-shard store.
fn shard_index(x: RegisterId, mask: u64) -> usize {
    ((u64::from(x.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask) as usize
}

/// Picks the shard count for a store expected to hold `registers`
/// registers: ~16 registers per shard, clamped to [1, 1024] so tiny
/// stores pay no sharding overhead and huge ones keep publishes cheap.
fn shard_count(registers: usize) -> usize {
    (registers / 16).next_power_of_two().clamp(1, 1024)
}

/// The sharded copy-on-write store backing [`Replica`].
///
/// Behaves like a `HashMap<RegisterId, Entry>`; the sharding only
/// matters to the publish path ([`CowStore::share`]).
///
/// [`Replica`]: crate::Replica
#[derive(Debug, Clone)]
pub struct CowStore {
    chunks: Vec<Arc<Chunk>>,
    mask: u64,
    /// Shards cloned by [`Arc::make_mut`] because a snapshot still held
    /// them — the observable trace of lazy copy-on-write, counted for
    /// the non-vacuity tests.
    cow_clones: u64,
}

impl CowStore {
    /// An empty store sized for `registers` registers.
    pub fn new(registers: usize) -> Self {
        let n = shard_count(registers);
        let shards: Vec<Arc<Shard>> = (0..n).map(|_| Arc::new(Shard::new())).collect();
        CowStore {
            chunks: shards.chunks(CHUNK).map(|c| Arc::new(c.to_vec())).collect(),
            mask: (n - 1) as u64,
            cow_clones: 0,
        }
    }

    fn shard(&self, x: RegisterId) -> &Shard {
        shard_of(&self.chunks, x, self.mask)
    }

    /// The register's current value.
    pub fn get(&self, x: RegisterId) -> Option<&Value> {
        self.shard(x).get(&x).map(|e| &e.value)
    }

    /// The update that produced the register's current value, if known.
    pub fn src_of(&self, x: RegisterId) -> Option<UpdateId> {
        self.shard(x).get(&x).and_then(|e| e.src)
    }

    /// Writes `x`, cloning the shard first iff a snapshot still shares
    /// it (lazy copy-on-write).
    pub fn insert(&mut self, x: RegisterId, value: Value, src: Option<UpdateId>) {
        let i = shard_index(x, self.mask);
        // A chunk a snapshot still holds is copied first (pointers
        // only), which leaves each of its shards shared in turn.
        let shard = &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK];
        if Arc::strong_count(shard) > 1 {
            self.cow_clones += 1;
        }
        Arc::make_mut(shard).insert(x, Entry { value, src });
    }

    /// Number of registers stored.
    pub fn len(&self) -> usize {
        shards(&self.chunks).map(|s| s.len()).sum()
    }

    /// True when no register is stored.
    pub fn is_empty(&self) -> bool {
        shards(&self.chunks).all(|s| s.is_empty())
    }

    /// Iterates all stored registers, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&RegisterId, &Entry)> {
        shards(&self.chunks).flat_map(|s| s.iter())
    }

    /// Deep-clones the store into a flat value map — the
    /// [`StoreMode::Clone`] publish path, and compatibility surface for
    /// callers that want a plain `HashMap`.
    pub fn flat_store(&self) -> HashMap<RegisterId, Value> {
        self.iter().map(|(x, e)| (*x, e.value.clone())).collect()
    }

    /// Deep-clones the provenance side into a flat map (registers with
    /// unknown provenance absent, matching the old `store_src` map).
    pub fn flat_src(&self) -> HashMap<RegisterId, UpdateId> {
        self.iter()
            .filter_map(|(x, e)| e.src.map(|u| (*x, u)))
            .collect()
    }

    /// The O(Δ) publish: an immutable view sharing every shard with the
    /// live store. Costs one refcount bump per chunk; the next write to a
    /// shared shard pays its chunk's pointer copy and that shard's clone
    /// (and only that shard's).
    pub fn share(&self) -> SharedShards {
        SharedShards {
            chunks: self.chunks.clone(),
            mask: self.mask,
        }
    }

    /// How many shard clones lazy copy-on-write has performed — the
    /// non-vacuity counter proving publishes are actually shared.
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones
    }
}

/// An immutable snapshot of a [`CowStore`]: the shard array frozen at
/// publish time. Shards are shared with the live store until the next
/// write touches them, so two consecutive snapshots alias every shard
/// no write separated (see [`SharedShards::shards_shared_with`]).
#[derive(Debug, Clone)]
pub struct SharedShards {
    chunks: Vec<Arc<Chunk>>,
    mask: u64,
}

impl SharedShards {
    /// The register's value at publish time.
    pub fn get(&self, x: RegisterId) -> Option<&Value> {
        shard_of(&self.chunks, x, self.mask)
            .get(&x)
            .map(|e| &e.value)
    }

    /// The update that produced the register's value at publish time.
    pub fn src_of(&self, x: RegisterId) -> Option<UpdateId> {
        shard_of(&self.chunks, x, self.mask)
            .get(&x)
            .and_then(|e| e.src)
    }

    /// Iterates the snapshot's registers, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&RegisterId, &Entry)> {
        shards(&self.chunks).flat_map(|s| s.iter())
    }

    /// `(aliased, total)`: how many shards this snapshot physically
    /// shares (same `Arc` allocation) with `other`. The shard-aliasing
    /// non-vacuity test asserts `aliased > 0` across consecutive
    /// publishes — i.e. the COW store really does skip untouched
    /// shards.
    pub fn shards_shared_with(&self, other: &SharedShards) -> (usize, usize) {
        let aliased = shards(&self.chunks)
            .zip(shards(&other.chunks))
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (aliased, shards(&self.chunks).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_sharegraph::ReplicaId;

    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    fn uid(issuer: u32, seq: u64) -> UpdateId {
        UpdateId {
            issuer: ReplicaId::new(issuer),
            seq,
        }
    }

    #[test]
    fn shard_count_scales_and_clamps() {
        assert_eq!(shard_count(0), 1);
        assert_eq!(shard_count(2), 1);
        assert_eq!(shard_count(64), 4);
        assert_eq!(shard_count(1024), 64);
        assert_eq!(shard_count(16_384), 1024);
        assert_eq!(shard_count(1 << 30), 1024);
    }

    #[test]
    fn insert_get_and_provenance_round_trip() {
        let mut s = CowStore::new(64);
        assert!(s.is_empty());
        s.insert(x(3), Value::from(7u64), Some(uid(1, 0)));
        s.insert(x(40), Value::from(8u64), None);
        assert_eq!(s.get(x(3)), Some(&Value::from(7u64)));
        assert_eq!(s.src_of(x(3)), Some(uid(1, 0)));
        assert_eq!(s.get(x(40)), Some(&Value::from(8u64)));
        assert_eq!(s.src_of(x(40)), None, "payload-path write has no src");
        assert_eq!(s.len(), 2);
        assert_eq!(s.flat_store().len(), 2);
        assert_eq!(s.flat_src().len(), 1);
    }

    #[test]
    fn overwrite_replaces_value_and_src() {
        let mut s = CowStore::new(4);
        s.insert(x(0), Value::from(1u64), Some(uid(0, 0)));
        s.insert(x(0), Value::from(2u64), Some(uid(2, 9)));
        assert_eq!(s.get(x(0)), Some(&Value::from(2u64)));
        assert_eq!(s.src_of(x(0)), Some(uid(2, 9)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unshared_writes_never_clone() {
        let mut s = CowStore::new(16_384);
        for i in 0..1000 {
            s.insert(x(i), Value::from(u64::from(i)), None);
        }
        assert_eq!(s.cow_clones(), 0, "no snapshot outstanding, no clones");
    }

    #[test]
    fn shared_shard_cloned_once_per_publish_epoch() {
        let mut s = CowStore::new(16_384);
        for i in 0..1024 {
            s.insert(x(i), Value::from(0u64), None);
        }
        let snap = s.share();
        // Two writes into the same shard: first pays the clone, second
        // hits the now-unique shard in place.
        s.insert(x(0), Value::from(1u64), None);
        let after_first = s.cow_clones();
        assert!(after_first >= 1);
        s.insert(x(0), Value::from(2u64), None);
        assert_eq!(s.cow_clones(), after_first, "second write is in-place");
        // The snapshot still sees publish-time state.
        assert_eq!(snap.get(x(0)), Some(&Value::from(0u64)));
        assert_eq!(s.get(x(0)), Some(&Value::from(2u64)));
    }

    #[test]
    fn consecutive_publishes_alias_untouched_shards() {
        let mut s = CowStore::new(16_384);
        for i in 0..16_384 {
            s.insert(x(i), Value::from(0u64), None);
        }
        let a = s.share();
        s.insert(x(0), Value::from(1u64), None);
        let b = s.share();
        let (aliased, total) = a.shards_shared_with(&b);
        assert_eq!(total, 1024);
        assert_eq!(aliased, total - 1, "exactly the written shard diverges");
        // Identical publishes alias everything.
        let c = s.share();
        assert_eq!(b.shards_shared_with(&c), (total, total));
    }

    #[test]
    fn publish_shares_chunks_and_a_write_copies_only_its_own() {
        let mut s = CowStore::new(16_384);
        assert_eq!(s.chunks.len(), 1024 / CHUNK);
        let a = s.share();
        s.insert(x(0), Value::from(1u64), None);
        let b = s.share();
        let diverged = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .filter(|(p, q)| !Arc::ptr_eq(p, q))
            .count();
        assert_eq!(diverged, 1, "one write may copy one chunk's pointers");
        // Small stores are a single chunk, large ones stay rectangular.
        assert_eq!(CowStore::new(64).chunks.len(), 1);
        assert!(s.chunks.iter().all(|c| c.len() == CHUNK));
    }

    #[test]
    fn clone_of_store_diverges_without_affecting_original() {
        let mut s = CowStore::new(8);
        s.insert(x(1), Value::from(1u64), Some(uid(0, 0)));
        let mut t = s.clone();
        t.insert(x(1), Value::from(2u64), Some(uid(0, 1)));
        assert_eq!(s.get(x(1)), Some(&Value::from(1u64)));
        assert_eq!(t.get(x(1)), Some(&Value::from(2u64)));
    }

    #[test]
    fn share_matches_flat_views() {
        let mut s = CowStore::new(256);
        for i in 0..200 {
            let src = (i % 3 != 0).then(|| uid(i % 5, u64::from(i)));
            s.insert(x(i * 7 % 256), Value::from(u64::from(i)), src);
        }
        let snap = s.share();
        let flat = s.flat_store();
        let srcs = s.flat_src();
        assert_eq!(flat.len(), s.len());
        for (reg, e) in snap.iter() {
            assert_eq!(flat.get(reg), Some(&e.value));
            assert_eq!(srcs.get(reg).copied(), e.src);
            assert_eq!(snap.get(*reg), Some(&e.value));
            assert_eq!(snap.src_of(*reg), e.src);
        }
    }
}
