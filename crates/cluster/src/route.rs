//! Slot-based key routing: every key hashes to one of a fixed number of
//! slots, and a route table assigns each slot to exactly one shard.
//!
//! Rescaling and hot-shard rebalancing never re-hash keys — they only
//! reassign slots, so the set of keys that moves is exactly the keys of the
//! reassigned slots (the same indirection Kafka partitions and Redis hash
//! slots use). Totality is structural: the table is a dense `slot → shard`
//! vector, so every key is owned by exactly one shard by construction.

// sbx-lint: out-of-scope(raw-alloc, control plane; tables and load vectors sized by slot count, not record count)
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of routing slots. Slots bound rebalance granularity:
/// more slots move finer key ranges but make the table bigger.
pub const DEFAULT_SLOTS: u32 = 64;

/// The multiplicative key hash that maps a key to its slot: Fibonacci
/// hashing by the golden-ratio constant.
const KEY_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// A total map from keys to shards via hash slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// Owner shard of each slot.
    owners: Vec<u32>,
    /// Number of shards the table routes across.
    shards: u32,
}

impl RouteTable {
    /// A uniform table: `nslots` slots dealt round-robin across `shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `nslots` is zero.
    pub fn uniform(shards: u32, nslots: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(nslots > 0, "need at least one slot");
        let owners = (0..nslots).map(|s| s % shards).collect();
        RouteTable { owners, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of slots.
    pub fn nslots(&self) -> u32 {
        self.owners.len() as u32
    }

    /// The slot `key` hashes to.
    pub fn slot_of(&self, key: u64) -> u32 {
        ((key.wrapping_mul(KEY_HASH) >> 32) % self.owners.len() as u64) as u32
    }

    /// The shard that owns `key`.
    pub fn owner_of(&self, key: u64) -> u32 {
        self.owners[self.slot_of(key) as usize]
    }

    /// The shard that owns `slot`.
    pub fn owner_of_slot(&self, slot: u32) -> u32 {
        self.owners[slot as usize]
    }

    /// Slots owned by `shard`, ascending.
    pub fn slots_of(&self, shard: u32) -> Vec<u32> {
        (0..self.nslots())
            .filter(|&s| self.owners[s as usize] == shard)
            .collect()
    }

    /// A copy of this table re-dealt uniformly across `new_shards` (the
    /// grow/shrink route map; slot hashing is unchanged, so only keys in
    /// reassigned slots move).
    pub fn rescaled_uniform(&self, new_shards: u32) -> Self {
        RouteTable::uniform(new_shards, self.nslots())
    }

    /// A copy with `slot` reassigned to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `shard` is out of range.
    pub fn with_assignment(&self, slot: u32, shard: u32) -> Self {
        assert!(shard < self.shards, "shard {shard} out of range");
        let mut t = self.clone();
        t.owners[slot as usize] = shard;
        t
    }

    /// Greedy hot-shard rebalance: given observed per-slot record loads,
    /// repeatedly moves the hottest slot of the most loaded shard to the
    /// least loaded shard, while the hottest shard carries more than
    /// `tolerance` times the mean shard load (e.g. `1.25`). Returns the new
    /// table and the moved slots in move order. Fully deterministic: ties
    /// break toward the lowest index.
    pub fn rebalanced(&self, slot_loads: &[u64], tolerance: f64) -> (Self, Vec<u32>) {
        assert_eq!(
            slot_loads.len(),
            self.owners.len(),
            "one load per slot required"
        );
        let mut table = self.clone();
        let mut moved = Vec::new();
        let total: u64 = slot_loads.iter().sum();
        if total == 0 || self.shards < 2 {
            return (table, moved);
        }
        let mean = total as f64 / self.shards as f64;
        // Each slot moves at most once per rebalance: a bound that makes
        // termination obvious and keeps churn proportional to the skew.
        for _ in 0..self.owners.len() {
            let mut loads = vec![0u64; self.shards as usize];
            for (slot, &owner) in table.owners.iter().enumerate() {
                loads[owner as usize] += slot_loads[slot];
            }
            let mut hot = 0u32;
            let mut cold = 0u32;
            for s in 1..self.shards {
                if loads[s as usize] > loads[hot as usize] {
                    hot = s;
                }
                if loads[s as usize] < loads[cold as usize] {
                    cold = s;
                }
            }
            if loads[hot as usize] as f64 <= tolerance * mean || hot == cold {
                break;
            }
            // Largest not-yet-moved slot of the hot shard whose move is a
            // strict improvement (it must not just swap the imbalance
            // over). When a single dominant slot is too big to move, its
            // sibling slots still drain away, isolating the hot key range
            // on its own shard — the best any slot-granular balancer can
            // do.
            let mut candidates: Vec<u32> = (0..table.nslots())
                .filter(|s| table.owners[*s as usize] == hot && !moved.contains(s))
                .filter(|&s| slot_loads[s as usize] > 0)
                .collect();
            candidates.sort_by_key(|&s| (u64::MAX - slot_loads[s as usize], s));
            let candidate = candidates
                .into_iter()
                .find(|&s| loads[cold as usize] + slot_loads[s as usize] < loads[hot as usize]);
            let Some(slot) = candidate else { break };
            table.owners[slot as usize] = cold;
            moved.push(slot);
        }
        (table, moved)
    }

    /// Per-shard load implied by `slot_loads` under this table.
    pub fn shard_loads(&self, slot_loads: &[u64]) -> Vec<u64> {
        let mut loads = vec![0u64; self.shards as usize];
        for (slot, &owner) in self.owners.iter().enumerate() {
            loads[owner as usize] += slot_loads[slot];
        }
        loads
    }
}

/// Per-slot record counters, shared between a routed source (which counts
/// every record it keeps) and the cluster driver (which aggregates the
/// counts into the hot-shard signal).
///
/// Each shard's source only counts the slots it owns, so summing the
/// per-shard stats element-wise counts each logical record exactly once.
#[derive(Debug)]
pub struct SlotStats {
    counts: Vec<AtomicU64>,
}

impl SlotStats {
    /// Zeroed counters for `nslots` slots.
    pub fn new(nslots: u32) -> Arc<Self> {
        Arc::new(SlotStats {
            counts: (0..nslots).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Counts one record routed to `slot`.
    pub fn record(&self, slot: u32) {
        // sbx-lint: allow(atomic-ordering, single-writer monotone counter read at quiescent points)
        self.counts[slot as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all slot counts.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            // sbx-lint: allow(atomic-ordering, single-writer monotone counter read at quiescent points)
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Element-wise sum of per-shard slot counts into one per-slot load vector.
pub fn merge_slot_counts(stats: &[Arc<SlotStats>]) -> Vec<u64> {
    let mut merged = Vec::new();
    for s in stats {
        let counts = s.counts();
        if merged.len() < counts.len() {
            merged.resize(counts.len(), 0);
        }
        for (m, c) in merged.iter_mut().zip(counts) {
            *m += c;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_is_owned_by_exactly_one_shard() {
        for shards in [1u32, 2, 3, 5, 8, 16] {
            let t = RouteTable::uniform(shards, DEFAULT_SLOTS);
            for key in 0..10_000u64 {
                let owner = t.owner_of(key);
                assert!(owner < shards);
                // Ownership is a function of the table alone.
                assert_eq!(owner, t.owner_of_slot(t.slot_of(key)));
            }
            let all: u32 = (0..shards).map(|s| t.slots_of(s).len() as u32).sum();
            assert_eq!(all, DEFAULT_SLOTS, "slots partition exactly");
        }
    }

    #[test]
    fn rescale_only_moves_reassigned_slots() {
        let old = RouteTable::uniform(4, 64);
        let new = old.rescaled_uniform(8);
        assert_eq!(new.shards(), 8);
        for key in 0..5_000u64 {
            // Slot hashing is invariant under rescale.
            assert_eq!(old.slot_of(key), new.slot_of(key));
        }
        // Some slots stay put (slot s % 4 == s % 8 for s % 8 < 4).
        assert!((0..64).any(|s| old.owner_of_slot(s) == new.owner_of_slot(s)));
        assert!((0..64).any(|s| old.owner_of_slot(s) != new.owner_of_slot(s)));
    }

    #[test]
    fn rebalance_moves_hot_slots_to_cold_shards() {
        let t = RouteTable::uniform(4, 16);
        // Shard 0's slots (0, 4, 8, 12) are all hot: the classic hot-shard
        // shape, where moving hot key ranges to cold shards helps.
        let mut loads = vec![10u64; 16];
        for s in [0usize, 4, 8, 12] {
            loads[s] = 200;
        }
        let before = t.shard_loads(&loads);
        assert_eq!(before[0], 800);
        let (rebalanced, moved) = t.rebalanced(&loads, 1.25);
        assert!(!moved.is_empty(), "hot key ranges must move");
        assert!(moved.iter().all(|s| t.owner_of_slot(*s) == 0));
        let after = rebalanced.shard_loads(&loads);
        assert!(after[0] < before[0], "hot shard sheds load");
        let max_after = after.iter().copied().max().unwrap_or(0);
        assert!(max_after < before[0], "cluster max load strictly improves");
        // Determinism: same inputs, same moves.
        assert_eq!(t.rebalanced(&loads, 1.25).1, moved);
        // Totality survives rebalance.
        let all: u32 = (0..4).map(|s| rebalanced.slots_of(s).len() as u32).sum();
        assert_eq!(all, 16);
    }

    #[test]
    fn rebalance_isolates_an_unmovable_dominant_slot() {
        let t = RouteTable::uniform(4, 16);
        // Slot 0 alone carries half of all traffic: too big to move
        // anywhere (every destination would become the new hot shard), so
        // the balancer drains its siblings instead.
        let mut loads = vec![10u64; 16];
        loads[0] = 1_000;
        let (rebalanced, moved) = t.rebalanced(&loads, 1.25);
        assert!(!moved.contains(&0), "the dominant slot itself stays");
        assert!(!moved.is_empty(), "its siblings drain away");
        let after = rebalanced.shard_loads(&loads);
        assert_eq!(after[0], 1_000, "hot key range ends up isolated");
    }

    #[test]
    fn rebalance_is_a_noop_when_balanced() {
        let t = RouteTable::uniform(4, 16);
        let loads = vec![100u64; 16];
        let (same, moved) = t.rebalanced(&loads, 1.25);
        assert_eq!(same, t);
        assert!(moved.is_empty());
        // Single shard: nothing to move to.
        let one = RouteTable::uniform(1, 8);
        assert!(one.rebalanced(&[5; 8], 1.0).1.is_empty());
    }

    #[test]
    fn slot_stats_merge_counts_each_record_once() {
        let a = SlotStats::new(4);
        let b = SlotStats::new(4);
        a.record(0);
        a.record(0);
        b.record(3);
        let merged = merge_slot_counts(&[a, b]);
        assert_eq!(merged, vec![2, 0, 0, 1]);
    }
}
