//! Compile-time constants and runtime configuration for a Mether deployment.

/// Size of a full Mether page in bytes (a SunOS 4.0 page on a Sun-3).
pub const PAGE_SIZE: usize = 8192;

/// Size of a *short page*: the first 32 bytes of a full page.
///
/// The paper: "Short pages are only 32 bytes long. They are actually the
/// first 32 bytes of a full-sized page."
pub const SHORT_PAGE_SIZE: usize = 32;

/// log2 of [`PAGE_SIZE`]; the number of offset bits in a [`crate::VAddr`].
pub const PAGE_SHIFT: u32 = 13;

/// Number of page-number bits in a [`crate::VAddr`].
pub const PAGE_BITS: u32 = 15;

/// Maximum number of pages addressable in one Mether address space.
pub const MAX_PAGES: u32 = 1 << PAGE_BITS;

/// Runtime-tweakable configuration of a Mether instance.
///
/// The defaults replicate the paper's deployment: 8192-byte pages with
/// 32-byte short pages. `short_len` is configurable because the paper's
/// Figure 5 discussion concludes the 256:1 shrink was too aggressive
/// ("we shrank the page too much"); the ablation benches sweep it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetherConfig {
    /// Bytes transferred for a short-page fault. Must divide `PAGE_SIZE`
    /// and be at least 4.
    pub short_len: usize,
    /// Number of shareable pages in the Mether address space.
    pub num_pages: u32,
    /// Snoopy refresh: every server updates its inconsistent copies from
    /// every page transit ("In this sense the Mether servers are
    /// snoopy"). Disabled only by the snoop ablation experiment, which
    /// shows how much the protocols lean on it.
    pub snoopy: bool,
}

impl MetherConfig {
    /// Configuration with the paper's constants.
    pub fn new() -> Self {
        Self {
            short_len: SHORT_PAGE_SIZE,
            num_pages: 64,
            snoopy: true,
        }
    }

    /// Override the short-page length (for the short-page-size ablation).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] if `len` is not in
    /// `4..=PAGE_SIZE` or does not divide [`PAGE_SIZE`].
    pub fn with_short_len(mut self, len: usize) -> crate::Result<Self> {
        if !(4..=PAGE_SIZE).contains(&len) || !PAGE_SIZE.is_multiple_of(len) {
            return Err(crate::Error::InvalidConfig(format!(
                "short page length {len} must be in 4..={PAGE_SIZE} and divide {PAGE_SIZE}"
            )));
        }
        self.short_len = len;
        Ok(self)
    }

    /// Disables snoopy refresh (ablation only).
    #[must_use]
    pub fn without_snooping(mut self) -> Self {
        self.snoopy = false;
        self
    }

    /// Bytes moved over the network by a fault on a view of length `len`.
    pub fn transfer_len(&self, len: crate::PageLength) -> usize {
        match len {
            crate::PageLength::Full => PAGE_SIZE,
            crate::PageLength::Short => self.short_len,
        }
    }
}

impl Default for MetherConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// How a deployment's hosts are divided into bridged Ethernet segments.
///
/// Hosts are assigned to segments in contiguous blocks (hosts `0..k` on
/// segment 0, the next block on segment 1, …), with any remainder spread
/// one-per-segment across the leading segments. The layout is pure
/// arithmetic — both the discrete-event simulator and the threaded
/// runtime derive their per-segment wiring from it, so "which segment
/// does host 12 sit on" has exactly one answer across the codebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    hosts: usize,
    segments: usize,
}

impl SegmentLayout {
    /// A layout of `hosts` workstations over `segments` bridged segments.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] if either count is zero
    /// or there are more segments than hosts. There is no host-count
    /// cap: the per-segment snoop sets are variable-length
    /// [`crate::HostMask`]s, so 1024-host fabrics lay out fine.
    pub fn new(hosts: usize, segments: usize) -> crate::Result<Self> {
        if hosts == 0 || segments == 0 {
            return Err(crate::Error::InvalidConfig(
                "a layout needs at least one host and one segment".into(),
            ));
        }
        if segments > hosts {
            return Err(crate::Error::InvalidConfig(format!(
                "{segments} segments but only {hosts} hosts"
            )));
        }
        Ok(SegmentLayout { hosts, segments })
    }

    /// A single flat segment holding every host (the paper's testbed).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] under the same conditions
    /// as [`SegmentLayout::new`].
    pub fn flat(hosts: usize) -> crate::Result<Self> {
        Self::new(hosts, 1)
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// First host index of segment `seg` (blocks are contiguous).
    fn block_start(&self, seg: usize) -> usize {
        let base = self.hosts / self.segments;
        let rem = self.hosts % self.segments;
        seg * base + seg.min(rem)
    }

    /// The segment host `host` sits on.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn segment_of(&self, host: usize) -> usize {
        assert!(host < self.hosts, "host {host} >= {}", self.hosts);
        let base = self.hosts / self.segments;
        let rem = self.hosts % self.segments;
        // The first `rem` segments hold `base + 1` hosts each.
        let fat = rem * (base + 1);
        if host < fat {
            host / (base + 1)
        } else {
            rem + (host - fat) / base
        }
    }

    /// The hosts on segment `seg`, as a contiguous index range.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn members_range(&self, seg: usize) -> std::ops::Range<usize> {
        assert!(seg < self.segments, "segment {seg} >= {}", self.segments);
        self.block_start(seg)..self.block_start(seg + 1)
    }

    /// The hosts on segment `seg`, as a snoop mask.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn members(&self, seg: usize) -> crate::HostMask {
        let r = self.members_range(seg);
        crate::HostMask::range(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageLength;

    #[test]
    fn defaults_match_paper() {
        let c = MetherConfig::new();
        assert_eq!(c.short_len, 32);
        assert_eq!(PAGE_SIZE, 8192);
        assert_eq!(PAGE_SIZE / c.short_len, 256, "the paper's 256:1 ratio");
    }

    #[test]
    fn transfer_len_by_view() {
        let c = MetherConfig::new();
        assert_eq!(c.transfer_len(PageLength::Full), 8192);
        assert_eq!(c.transfer_len(PageLength::Short), 32);
    }

    #[test]
    fn short_len_validation() {
        let c = MetherConfig::new();
        assert!(c.clone().with_short_len(128).is_ok());
        assert!(c.clone().with_short_len(0).is_err());
        assert!(c.clone().with_short_len(3).is_err());
        assert!(c.clone().with_short_len(8192).is_ok());
        assert!(c.clone().with_short_len(8193).is_err());
        // 96 does not divide 8192.
        assert!(c.clone().with_short_len(96).is_err());
    }

    #[test]
    fn snoop_ablation_flag() {
        assert!(MetherConfig::new().snoopy);
        assert!(!MetherConfig::new().without_snooping().snoopy);
    }

    #[test]
    fn segment_layout_validation() {
        assert!(SegmentLayout::new(8, 0).is_err());
        assert!(SegmentLayout::new(0, 1).is_err());
        assert!(
            SegmentLayout::new(3, 4).is_err(),
            "more segments than hosts"
        );
        assert!(
            SegmentLayout::new(129, 2).is_ok(),
            "no mask capacity cap any more"
        );
        assert!(SegmentLayout::new(128, 4).is_ok());
        let wide = SegmentLayout::new(1024, 16).unwrap();
        assert_eq!(wide.members(15).len(), 64);
        assert!(wide.members(15).contains(1023));
    }

    #[test]
    fn segment_layout_even_blocks() {
        let l = SegmentLayout::new(32, 4).unwrap();
        assert_eq!(l.members_range(0), 0..8);
        assert_eq!(l.members_range(3), 24..32);
        assert_eq!(l.segment_of(0), 0);
        assert_eq!(l.segment_of(7), 0);
        assert_eq!(l.segment_of(8), 1);
        assert_eq!(l.segment_of(31), 3);
        assert_eq!(
            l.members(1).iter().collect::<Vec<_>>(),
            (8..16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn segment_layout_remainder_spreads_over_leading_segments() {
        // 10 hosts over 3 segments: 4 + 3 + 3.
        let l = SegmentLayout::new(10, 3).unwrap();
        assert_eq!(l.members_range(0), 0..4);
        assert_eq!(l.members_range(1), 4..7);
        assert_eq!(l.members_range(2), 7..10);
        // segment_of agrees with the ranges for every host.
        for seg in 0..3 {
            for h in l.members_range(seg) {
                assert_eq!(l.segment_of(h), seg, "host {h}");
            }
        }
    }

    #[test]
    fn segment_layout_flat_is_one_block() {
        let l = SegmentLayout::flat(16).unwrap();
        assert_eq!(l.segments(), 1);
        assert_eq!(l.members_range(0), 0..16);
        assert_eq!(l.members(0).len(), 16);
    }
}
