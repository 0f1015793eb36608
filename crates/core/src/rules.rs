//! Page presence under the subset/superset rules of the paper's Figure 1,
//! and the segment each page is homed to on a bridged network.

/// Presence state of a page's storage on one host, in subset/superset
/// terms: invariant — a present superset implies a present subset, because
/// the short page is the first 32 bytes of the full page.
///
/// With two page lengths, the short page is the *subset* and the full
/// page the *superset* of the same storage. Every driver operation has a
/// rule for each side (the paper's Figure 1):
///
/// | Operation | Rule for subsets | Rule for supersets |
/// |---|---|---|
/// | mapping a page in | all subsets must be present | supersets need not be present |
/// | pagein from the network | all subsets paged in | no supersets paged in |
/// | pageout | all subsets paged out | supersets left paged in but unmapped |
/// | lock | all subsets must be present; if all present, all locked; otherwise the lock fails and non-present subsets are marked wanted | no supersets locked but must be present; all unmapped; supersets not present marked wanted |
/// | page fault | all subsets must be present | supersets need not be present |
/// | purge | all consistent subsets purged | supersets not affected |
///
/// [`crate::table::PageTable`] asks [`Presence::satisfies_fault`] and
/// [`Presence::satisfies_lock`] for the page fault and lock rows. It has
/// no map-in or page-out path, so those two rows have no code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// No bytes of the page are present.
    Absent,
    /// Only the subset (short prefix) is present.
    SubsetOnly,
    /// The whole page (superset, and therefore also the subset) is present.
    Whole,
}

impl Presence {
    /// Derives the presence state from a valid-prefix length.
    pub fn from_valid_len(valid: Option<usize>, short_len: usize) -> Presence {
        match valid {
            None => Presence::Absent,
            Some(v) if v >= crate::PAGE_SIZE => Presence::Whole,
            Some(v) if v >= short_len => Presence::SubsetOnly,
            Some(_) => Presence::Absent,
        }
    }

    /// Is the subset present?
    pub(crate) fn subset_present(self) -> bool {
        !matches!(self, Presence::Absent)
    }

    /// Is the superset present?
    pub(crate) fn superset_present(self) -> bool {
        matches!(self, Presence::Whole)
    }

    /// May a fault on a view of `length` be satisfied locally?
    ///
    /// Figure 1 "page fault": all subsets must be present; supersets need
    /// not be present. A short-view fault needs the subset; a full-view
    /// fault needs the superset.
    pub fn satisfies_fault(self, length: crate::PageLength) -> bool {
        match length {
            crate::PageLength::Short => self.subset_present(),
            crate::PageLength::Full => self.superset_present(),
        }
    }

    /// May a lock of a view of `length` succeed?
    ///
    /// Figure 1 "lock": all subsets must be present (else the lock fails);
    /// supersets must be present too when locking the full view.
    pub fn satisfies_lock(self, length: crate::PageLength) -> bool {
        self.satisfies_fault(length)
    }
}

/// Which bridged segment a page is *homed* to.
///
/// The paper's protocols assume one broadcast domain; scaling past it
/// means most pages should live — and keep their broadcast traffic —
/// on one segment. The home segment is where a page's consistent copy
/// is seeded and the segment a bridge always keeps subscribed to the
/// page's transits, so "local" sharing never crosses the bridge while a
/// cross-segment miss can always find fresh data at the home. The
/// consistent copy itself still migrates freely (the bridge learns
/// moves by snooping `transfer_to`); the home is a *routing default*,
/// not an ownership restriction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PageHomePolicy {
    /// Page `p` is homed to segment `p mod segments` — spreads a shared
    /// working set evenly.
    #[default]
    Striped,
    /// Pages are homed in contiguous blocks of `pages_per_segment`
    /// (block `p / pages_per_segment`, wrapped over the segments) — keeps
    /// a workload's adjacent pages together.
    Blocked {
        /// Pages per home block. Must be non-zero.
        pages_per_segment: u32,
    },
    /// Homes computed from a workload's write graph: each page is homed
    /// where its dominant writer sits, so the traffic a page generates
    /// starts (and, for single-writer pages, stays) on the writer's own
    /// segment. Build with [`PageHomePolicy::from_writes`]. Pages the
    /// graph never saw fall back to striping.
    FromWorkload {
        /// `homes[p]` = home segment of page `p`; `u16::MAX` (and any
        /// page past the end) falls back to [`PageHomePolicy::Striped`].
        homes: std::sync::Arc<[u16]>,
    },
}

/// Sentinel in a [`PageHomePolicy::FromWorkload`] table for pages the
/// write graph never saw; they fall back to striped homing.
pub(crate) const NO_HOME: u16 = u16::MAX;

impl PageHomePolicy {
    /// Derives a [`PageHomePolicy::FromWorkload`] from a workload's write
    /// graph: `(page, writer host, weight)` edges, with each page homed
    /// to the segment whose hosts carry the greatest total write weight
    /// (ties break toward the lower segment index, so the result is
    /// deterministic under edge reordering).
    ///
    /// # Panics
    ///
    /// Panics if an edge names a host outside `layout`.
    pub fn from_writes(
        writes: impl IntoIterator<Item = (crate::PageId, usize, u64)>,
        layout: &crate::SegmentLayout,
    ) -> Self {
        // weight[page][segment], grown lazily to the highest page seen.
        let segs = layout.segments();
        let mut weight: Vec<Vec<u64>> = Vec::new();
        for (page, host, w) in writes {
            let seg = layout.segment_of(host);
            let idx = page.index() as usize;
            if weight.len() <= idx {
                weight.resize_with(idx + 1, || vec![0; segs]);
            }
            weight[idx][seg] = weight[idx][seg].saturating_add(w);
        }
        let homes: Vec<u16> = weight
            .iter()
            .map(|per_seg| {
                let best = per_seg.iter().copied().max().unwrap_or(0);
                if best == 0 {
                    NO_HOME
                } else {
                    per_seg.iter().position(|&w| w == best).expect("max exists") as u16
                }
            })
            .collect();
        PageHomePolicy::FromWorkload {
            homes: homes.into(),
        }
    }

    /// The home segment of `page` in a `segments`-segment deployment.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or a `Blocked` policy has a zero
    /// block size.
    pub fn home_of(&self, page: crate::PageId, segments: usize) -> usize {
        assert!(segments > 0, "a deployment has at least one segment");
        let striped = page.index() as usize % segments;
        match self {
            PageHomePolicy::Striped => striped,
            PageHomePolicy::Blocked { pages_per_segment } => {
                assert!(*pages_per_segment > 0, "block size must be non-zero");
                (page.index() / pages_per_segment) as usize % segments
            }
            PageHomePolicy::FromWorkload { homes } => {
                // An assigned home from a wider sweep still lands in
                // range (mod), so one derived table can serve narrower
                // ablation points; unseen pages stripe.
                match homes.get(page.index() as usize) {
                    Some(&h) if h != NO_HOME => h as usize % segments,
                    _ => striped,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageLength;

    #[test]
    fn presence_from_valid_len() {
        assert_eq!(Presence::from_valid_len(None, 32), Presence::Absent);
        assert_eq!(Presence::from_valid_len(Some(0), 32), Presence::Absent);
        assert_eq!(Presence::from_valid_len(Some(32), 32), Presence::SubsetOnly);
        assert_eq!(
            Presence::from_valid_len(Some(8191), 32),
            Presence::SubsetOnly
        );
        assert_eq!(Presence::from_valid_len(Some(8192), 32), Presence::Whole);
    }

    #[test]
    fn subset_present_whenever_superset_present() {
        // The invariant behind "all subsets must be present / supersets
        // need not be present": Whole implies subset presence.
        for p in [Presence::Absent, Presence::SubsetOnly, Presence::Whole] {
            if p.superset_present() {
                assert!(p.subset_present());
            }
        }
    }

    #[test]
    fn fault_satisfaction_by_view() {
        // A short-view fault is satisfied by a subset-only copy ("supersets
        // need not be present"), a full-view fault is not.
        assert!(Presence::SubsetOnly.satisfies_fault(PageLength::Short));
        assert!(!Presence::SubsetOnly.satisfies_fault(PageLength::Full));
        assert!(Presence::Whole.satisfies_fault(PageLength::Full));
        assert!(!Presence::Absent.satisfies_fault(PageLength::Short));
    }

    #[test]
    fn lock_satisfaction_mirrors_fault() {
        for p in [Presence::Absent, Presence::SubsetOnly, Presence::Whole] {
            for l in [PageLength::Short, PageLength::Full] {
                assert_eq!(p.satisfies_lock(l), p.satisfies_fault(l));
            }
        }
    }

    #[test]
    fn striped_homes_cycle_over_segments() {
        use crate::PageId;
        let p = PageHomePolicy::Striped;
        assert_eq!(p.home_of(PageId::new(0), 4), 0);
        assert_eq!(p.home_of(PageId::new(5), 4), 1);
        assert_eq!(p.home_of(PageId::new(7), 4), 3);
        // One segment: everything is local.
        assert_eq!(p.home_of(PageId::new(63), 1), 0);
    }

    #[test]
    fn from_workload_homes_follow_the_dominant_writer() {
        use crate::{PageId, SegmentLayout};
        let layout = SegmentLayout::new(8, 4).unwrap(); // 2 hosts/segment
        let writes = [
            // Page 0: host 6 (segment 3) writes most.
            (PageId::new(0), 0usize, 2u64),
            (PageId::new(0), 6, 10),
            // Page 1: tie between segments 1 (host 2) and 2 (host 4):
            // the lower segment wins.
            (PageId::new(1), 2, 5),
            (PageId::new(1), 4, 5),
            // Page 3: single writer on segment 0.
            (PageId::new(3), 1, 1),
        ];
        let p = PageHomePolicy::from_writes(writes, &layout);
        assert_eq!(p.home_of(PageId::new(0), 4), 3);
        assert_eq!(p.home_of(PageId::new(1), 4), 1, "tie breaks low");
        assert_eq!(p.home_of(PageId::new(3), 4), 0);
        // Page 2 never written, page 9 beyond the table: striped fallback.
        assert_eq!(p.home_of(PageId::new(2), 4), 2);
        assert_eq!(p.home_of(PageId::new(9), 4), 1);
        // A table derived at 4 segments still answers at 2 (mod).
        assert_eq!(p.home_of(PageId::new(0), 2), 1);
    }

    #[test]
    fn blocked_homes_keep_adjacent_pages_together() {
        use crate::PageId;
        let p = PageHomePolicy::Blocked {
            pages_per_segment: 16,
        };
        assert_eq!(p.home_of(PageId::new(0), 4), 0);
        assert_eq!(p.home_of(PageId::new(15), 4), 0);
        assert_eq!(p.home_of(PageId::new(16), 4), 1);
        assert_eq!(
            p.home_of(PageId::new(65), 4),
            0,
            "wraps past the last segment"
        );
    }
}
