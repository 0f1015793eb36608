//! Generation counters: the handshake at the heart of the paper's sample
//! user protocol (§3, Figure 3).
//!
//! Each direction of a Mether channel pairs a `WriteGeneration` /
//! `WriteDataSize` in the writer's **consistent** page with a
//! `ReadGeneration` / `ReadDataSize` in the reader's consistent page (seen
//! by the other side as an inconsistent copy):
//!
//! * "A write can only proceed when the WriteGeneration in the consistent
//!   page and the ReadGeneration in the inconsistent page are equal."
//! * "A read can proceed only when the WriteGeneration in the inconsistent
//!   page is greater than the ReadGeneration in the consistent page."
//!
//! This module captures those predicates as pure functions plus a
//! [`ChannelHeader`] describing the on-page layout, so the simulator, the
//! runtime, and `mether-lib`'s pipes all agree bit-for-bit.

use std::fmt;

/// A page generation: incremented every time the consistent holder
/// publishes a new version of the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Generation(pub u64);

impl Generation {
    /// The generation of a freshly created page.
    pub fn zero() -> Self {
        Generation(0)
    }

    /// The next generation.
    #[must_use]
    pub fn next(self) -> Self {
        Generation(self.0 + 1)
    }

    /// True if `self` is newer than `other`.
    pub fn newer_than(self, other: Generation) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Byte offsets of the channel header words within a page.
///
/// The header deliberately fits within one short page (32 bytes) so that
/// "if the amount of data is less than 32 bytes then the short page can be
/// accessed with a corresponding performance improvement".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHeader;

impl ChannelHeader {
    /// Offset of the `WriteGeneration` word (u32, little endian).
    pub const WRITE_GEN: usize = 0;
    /// Offset of the `WriteDataSize` word (u32): bytes of payload published.
    pub const WRITE_SIZE: usize = 4;
    /// Offset of the `ReadGeneration` word (u32).
    pub const READ_GEN: usize = 8;
    /// Offset of the `ReadDataSize` word (u32): bytes the reader consumed.
    pub const READ_SIZE: usize = 12;
    /// First byte of inline payload: data at or after this offset but below
    /// 32 still fits in the short page.
    pub const INLINE_DATA: usize = 16;
    /// Bytes of payload that fit in the short page alongside the header.
    pub const INLINE_CAPACITY: usize = crate::SHORT_PAGE_SIZE - Self::INLINE_DATA;
}

/// May the writer publish a new message?
///
/// True when the reader's `ReadGeneration` (seen through the writer's
/// inconsistent copy of the reader's page) has caught up with the writer's
/// own `WriteGeneration`.
pub fn write_may_proceed(write_gen: u32, read_gen_seen: u32) -> bool {
    write_gen == read_gen_seen
}

/// May the reader consume a message?
///
/// True when the writer's `WriteGeneration` (seen through the reader's
/// inconsistent copy of the writer's page) exceeds the reader's own
/// `ReadGeneration`.
pub fn read_may_proceed(write_gen_seen: u32, read_gen: u32) -> bool {
    write_gen_seen > read_gen
}

/// Does a payload of `len` bytes fit entirely within the short-page view
/// (header + inline data)?
pub fn fits_short_page(len: usize) -> bool {
    len <= ChannelHeader::INLINE_CAPACITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generation_ordering() {
        let g = Generation::zero();
        assert!(g.next().newer_than(g));
        assert!(!g.newer_than(g));
        assert_eq!(g.next(), Generation(1));
    }

    #[test]
    fn header_fits_in_short_page() {
        const { assert!(ChannelHeader::READ_SIZE + 4 <= crate::SHORT_PAGE_SIZE) };
        assert_eq!(ChannelHeader::INLINE_CAPACITY, 16);
    }

    #[test]
    fn write_gate_matches_paper() {
        // Fresh channel: wgen == rgen == 0, write may proceed.
        assert!(write_may_proceed(0, 0));
        // After one unacknowledged write: wgen=1, rgen seen=0 -> blocked.
        assert!(!write_may_proceed(1, 0));
        // Reader acknowledges: rgen=1 -> unblocked.
        assert!(write_may_proceed(1, 1));
    }

    #[test]
    fn read_gate_matches_paper() {
        // Nothing written yet.
        assert!(!read_may_proceed(0, 0));
        // One message outstanding.
        assert!(read_may_proceed(1, 0));
        // Already consumed.
        assert!(!read_may_proceed(1, 1));
    }

    #[test]
    fn short_page_payload_boundary() {
        assert!(fits_short_page(0));
        assert!(fits_short_page(16));
        assert!(!fits_short_page(17));
    }

    proptest! {
        /// The two gates are mutually exclusive in a half-duplex exchange:
        /// with a single outstanding message slot, never both writable and
        /// readable from the same side's perspective.
        #[test]
        fn prop_gates_alternate(n in 0u32..1000) {
            // Simulate n strictly alternating send/receive rounds.
            let mut wgen = 0u32;
            let mut rgen = 0u32;
            for _ in 0..n {
                prop_assert!(write_may_proceed(wgen, rgen));
                wgen += 1;
                prop_assert!(!write_may_proceed(wgen, rgen));
                prop_assert!(read_may_proceed(wgen, rgen));
                rgen += 1;
                prop_assert!(!read_may_proceed(wgen, rgen));
            }
            prop_assert_eq!(wgen, n);
            prop_assert_eq!(rgen, n);
        }
    }
}
