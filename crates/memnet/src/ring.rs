//! The MemNet insertion-modification token ring: a cost model.
//!
//! MemNet's interconnect is a slotted ring at 200 Mbit/s. A request
//! circulates until the first device holding a valid copy of the chunk
//! *modifies the slot in flight*, inserting the data; the originator
//! removes it a full circulation later. We model each operation as a
//! fixed number of ring circulations plus per-hop device delay and the
//! serialisation time of the payload — all in nanoseconds, four orders
//! of magnitude below Mether's Ethernet path, exactly the regime gap the
//! paper describes.

/// Parameters of the ring.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Devices on the ring.
    pub hosts: usize,
    /// Link bit rate (200 Mbit/s in MemNet).
    pub link_bps: u64,
    /// Per-device insertion delay, nanoseconds.
    pub hop_delay_ns: u64,
    /// Chunk size in bytes (32 in MemNet).
    pub chunk_size: usize,
}

impl RingConfig {
    /// The MemNet prototype: 200 Mbit/s, 32-byte chunks.
    pub fn memnet(hosts: usize) -> Self {
        RingConfig {
            hosts,
            link_bps: 200_000_000,
            hop_delay_ns: 100,
            chunk_size: 32,
        }
    }

    /// Nanoseconds for one full circulation carrying `bytes` of payload.
    pub(crate) fn circulation_ns(&self, bytes: usize) -> u64 {
        let hop = self.hop_delay_ns * self.hosts as u64;
        let serialise = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.link_bps;
        hop + serialise
    }

    /// Latency of a chunk fetch: request circulates to the holder, data
    /// comes back — one circulation with header + one with data.
    pub fn fetch_ns(&self) -> u64 {
        self.circulation_ns(8) + self.circulation_ns(self.chunk_size)
    }

    /// Latency of an invalidate: one circulation; the hardware guarantees
    /// delivery, so no acknowledgement traffic exists ("no explicit ack
    /// is needed for a purge").
    pub fn invalidate_ns(&self) -> u64 {
        self.circulation_ns(8)
    }

    /// Latency of a write-update carrying the chunk to all caches.
    pub fn update_ns(&self) -> u64 {
        self.circulation_ns(self.chunk_size)
    }
}

/// Ring traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Fetch transactions (miss services).
    pub fetches: u64,
    /// Invalidate circulations.
    pub invalidates: u64,
    /// Write-update circulations.
    pub updates: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
}

impl RingStats {
    /// Total ring transactions.
    pub fn messages(&self) -> u64 {
        self.fetches + self.invalidates + self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_is_microsecond_scale() {
        let r = RingConfig::memnet(4);
        let us = r.fetch_ns() as f64 / 1000.0;
        assert!((1.0..10.0).contains(&us), "{us} µs");
    }

    #[test]
    fn circulation_scales_with_hosts() {
        let small = RingConfig::memnet(2).circulation_ns(32);
        let large = RingConfig::memnet(16).circulation_ns(32);
        assert!(large > small);
    }

    #[test]
    fn invalidate_cheaper_than_fetch() {
        let r = RingConfig::memnet(4);
        assert!(r.invalidate_ns() < r.fetch_ns());
    }

    #[test]
    fn four_orders_of_magnitude_below_mether() {
        // The paper: network DSM latency "can be up to 10^4 times higher
        // than a conventional memory bus". MemNet's fetch is ~2 µs;
        // Mether's measured fault latency is tens of ms.
        let r = RingConfig::memnet(4);
        let memnet_fetch_s = r.fetch_ns() as f64 / 1e9;
        let mether_fault_s = 0.05;
        assert!(mether_fault_s / memnet_fetch_s > 1e4);
    }

    #[test]
    fn stats_sum() {
        let s = RingStats {
            fetches: 2,
            invalidates: 3,
            updates: 4,
            bytes: 0,
        };
        assert_eq!(s.messages(), 9);
    }
}
