//! Per-device chunk caches with hardware coherence.
//!
//! Each MemNet device caches 32-byte chunks. Coherence is a simplified
//! MSI protocol with two write policies:
//!
//! * **write-invalidate** — a writer acquires exclusivity by circulating
//!   an invalidate; other caches drop their copies and re-fetch on the
//!   next access (the demand-driven analogue);
//! * **write-update** — a writer circulates the new data; other caches
//!   holding the chunk refresh in place (the data-driven analogue — a
//!   spinning reader sees the new value without any ring transaction of
//!   its own).
//!
//! The paper's hardware assumptions hold by construction here: the
//! invalidate is reliable and unacknowledged, ordering is total (one
//! token), and the cost of invalidating is independent of the number of
//! holders.

use std::collections::HashMap;

/// Identifier of a 32-byte chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u32);

/// Cache state of a chunk in one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// No valid copy.
    Invalid,
    /// Read-only copy; other caches may also hold one.
    Shared,
    /// The only copy; writeable.
    Exclusive,
}

/// The write policy a chunk is managed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Writers invalidate remote copies.
    Invalidate,
    /// Writers push updates into remote copies.
    Update,
}

/// The coherence directory for one chunk across all devices, plus its
/// value. (Hardware MemNet distributes this state; a central map is an
/// exact simulation of its externally visible behaviour because the ring
/// serialises all transactions.)
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Current value (the counting experiments store one word).
    pub value: u32,
    /// Per-device state.
    states: HashMap<usize, ChunkState>,
    /// Write policy in force for this chunk.
    pub policy: WritePolicy,
}

/// What a cache operation cost in ring transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Chunk fetches performed.
    pub fetches: u64,
    /// Invalidate circulations.
    pub invalidates: u64,
    /// Update circulations.
    pub updates: u64,
}

impl Chunk {
    /// A chunk created in `home`'s cache with exclusive ownership.
    pub fn new(home: usize, policy: WritePolicy) -> Self {
        let mut states = HashMap::new();
        states.insert(home, ChunkState::Exclusive);
        Chunk {
            value: 0,
            states,
            policy,
        }
    }

    /// The state of the chunk in `dev`'s cache.
    pub fn state(&self, dev: usize) -> ChunkState {
        self.states
            .get(&dev)
            .copied()
            .unwrap_or(ChunkState::Invalid)
    }

    /// Reads the chunk from `dev`, fetching it over the ring on a miss.
    /// Returns the value and the cost.
    pub fn read(&mut self, dev: usize) -> (u32, OpCost) {
        let mut cost = OpCost::default();
        if self.state(dev) == ChunkState::Invalid {
            cost.fetches = 1;
            // Fetch demotes an exclusive holder to shared.
            for st in self.states.values_mut() {
                if *st == ChunkState::Exclusive {
                    *st = ChunkState::Shared;
                }
            }
            self.states.insert(dev, ChunkState::Shared);
        }
        (self.value, cost)
    }

    /// Writes the chunk from `dev`, acquiring exclusivity (invalidate
    /// policy) or pushing an update (update policy).
    pub fn write(&mut self, dev: usize, value: u32) -> OpCost {
        let mut cost = OpCost::default();
        match self.policy {
            WritePolicy::Invalidate => {
                if self.state(dev) != ChunkState::Exclusive {
                    // One circulation invalidates every other copy — the
                    // cost is the same no matter how many caches hold it.
                    cost.invalidates = 1;
                    if self.state(dev) == ChunkState::Invalid {
                        cost.fetches = 1;
                    }
                    self.states.retain(|d, _| *d == dev);
                    self.states.insert(dev, ChunkState::Exclusive);
                }
            }
            WritePolicy::Update => {
                // The writer keeps (or gains) a copy and pushes the data;
                // all shared copies refresh in place.
                if self.state(dev) == ChunkState::Invalid {
                    cost.fetches = 1;
                    self.states.insert(dev, ChunkState::Shared);
                }
                cost.updates = 1;
            }
        }
        self.value = value;
        cost
    }

    /// Drops `dev`'s copy (the reader-side flush used by the protocol-3
    /// analogue).
    pub fn flush(&mut self, dev: usize) {
        if self.state(dev) != ChunkState::Exclusive {
            self.states.remove(&dev);
        }
    }

    /// Devices currently holding a valid copy.
    pub fn holders(&self) -> usize {
        self.states.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_miss_fetches_then_hits() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        let (_, cost) = c.read(1);
        assert_eq!(cost.fetches, 1);
        assert_eq!(c.state(1), ChunkState::Shared);
        let (_, cost) = c.read(1);
        assert_eq!(cost.fetches, 0, "second read hits");
    }

    #[test]
    fn fetch_demotes_exclusive_holder() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        assert_eq!(c.state(0), ChunkState::Exclusive);
        c.read(1);
        assert_eq!(c.state(0), ChunkState::Shared);
    }

    #[test]
    fn invalidate_write_removes_other_copies() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        c.read(1);
        c.read(2);
        assert_eq!(c.holders(), 3);
        let cost = c.write(1, 7);
        assert_eq!(
            cost.invalidates, 1,
            "one circulation regardless of holder count"
        );
        assert_eq!(c.holders(), 1);
        assert_eq!(c.state(1), ChunkState::Exclusive);
        assert_eq!(c.state(0), ChunkState::Invalid);
        assert_eq!(c.value, 7);
    }

    #[test]
    fn exclusive_write_is_free() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        let cost = c.write(0, 5);
        assert_eq!(cost, OpCost::default());
    }

    #[test]
    fn update_write_refreshes_shared_copies() {
        let mut c = Chunk::new(0, WritePolicy::Update);
        c.read(1);
        let cost = c.write(0, 9);
        assert_eq!(cost.updates, 1);
        assert_eq!(c.state(1), ChunkState::Shared, "reader's copy stays valid");
        let (v, cost) = c.read(1);
        assert_eq!(v, 9, "reader sees the update without a fetch");
        assert_eq!(cost.fetches, 0);
    }

    #[test]
    fn flush_forces_refetch() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        c.read(1);
        c.flush(1);
        assert_eq!(c.state(1), ChunkState::Invalid);
        let (_, cost) = c.read(1);
        assert_eq!(cost.fetches, 1);
    }

    #[test]
    fn flush_never_drops_the_exclusive_copy() {
        let mut c = Chunk::new(0, WritePolicy::Invalidate);
        c.flush(0);
        assert_eq!(c.state(0), ChunkState::Exclusive);
    }
}
