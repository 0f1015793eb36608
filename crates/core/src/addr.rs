//! The Mether virtual address space (the paper's Figure 2).
//!
//! "All of these operations are encoded in a few address bits in the Mether
//! virtual address." A Mether address selects a page, an offset within it,
//! and *how* the page is viewed:
//!
//! * one bit selects the **full** (8192-byte) or **short** (32-byte) view;
//! * one bit selects **demand-driven** or **data-driven** faulting.
//!
//! Whether the mapping is the consistent (writeable) or an inconsistent
//! (read-only) one is *not* an address bit: "The choice of the read-only
//! space or the writeable space is chosen when the application maps the
//! Mether address space in" (paper, Figure 2 notes). That choice is
//! [`MapMode`].
//!
//! Bit layout of a [`VAddr`] (32 bits):
//!
//! ```text
//!  31 30   29          28       27 ............ 13  12 ............. 0
//! +-----+------------+-------+----------------------+-----------------+
//! | rsv | DATA_DRIVEN| SHORT |     page number      |     offset      |
//! +-----+------------+-------+----------------------+-----------------+
//! ```
//!
//! The two reserved bits leave room for the paper's "four different page
//! sizes — one more bit of address space" extension.

use crate::config::{MAX_PAGES, PAGE_BITS, PAGE_SHIFT, PAGE_SIZE, SHORT_PAGE_SIZE};
use crate::{Error, Result};
use std::fmt;
use std::sync::Arc;

const SHORT_BIT: u32 = 1 << (PAGE_SHIFT + PAGE_BITS);
const DATA_BIT: u32 = 1 << (PAGE_SHIFT + PAGE_BITS + 1);
const OFFSET_MASK: u32 = (1 << PAGE_SHIFT) - 1;
const PAGE_MASK: u32 = (MAX_PAGES - 1) << PAGE_SHIFT;

/// Identifier of a Mether page (its page number in the shared address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page id.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not below [`MAX_PAGES`]; use [`PageId::try_new`] for
    /// a fallible constructor.
    pub fn new(n: u32) -> Self {
        Self::try_new(n).expect("page number out of range")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAddress`] if `n >= MAX_PAGES`.
    pub fn try_new(n: u32) -> Result<Self> {
        if n >= MAX_PAGES {
            return Err(Error::InvalidAddress {
                reason: format!("page number {n} >= {MAX_PAGES}"),
            });
        }
        Ok(PageId(n))
    }

    /// The raw page number.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How much of a page a view transfers on a fault: the whole page, or only
/// its first 32 bytes (a *short page*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageLength {
    /// The full 8192-byte page.
    Full,
    /// The 32-byte short page overlaying the start of the full page.
    Short,
}

impl PageLength {
    /// The view length in bytes under the default configuration.
    pub fn len(self) -> usize {
        match self {
            PageLength::Full => PAGE_SIZE,
            PageLength::Short => SHORT_PAGE_SIZE,
        }
    }

    /// True if the view is empty (never; present for `len`/`is_empty` parity).
    pub fn is_empty(self) -> bool {
        false
    }

    /// True if `self` contains at least as many bytes as `other`.
    ///
    /// Used by the Figure 1 rules: a full page is the *superset* of its
    /// short page.
    pub fn covers(self, other: PageLength) -> bool {
        self.len() >= other.len()
    }
}

/// Whether a fault on the view actively requests the page over the network
/// (demand) or passively waits for someone to broadcast it (data driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveMode {
    /// A fault broadcasts a page request; the consistent holder answers.
    Demand,
    /// A fault blocks silently until a copy of the page transits the network.
    /// "Thus this form of page fault is completely passive."
    Data,
}

/// One of the four views of a page selected by the two address bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View {
    /// Full or short.
    pub length: PageLength,
    /// Demand- or data-driven faulting.
    pub drive: DriveMode,
}

impl View {
    /// Creates a view from its two components.
    pub fn new(length: PageLength, drive: DriveMode) -> Self {
        Self { length, drive }
    }

    /// The demand-driven, full-page view (the classic DSM view).
    pub fn full_demand() -> Self {
        Self::new(PageLength::Full, DriveMode::Demand)
    }

    /// The demand-driven, short-page view.
    pub fn short_demand() -> Self {
        Self::new(PageLength::Short, DriveMode::Demand)
    }

    /// The data-driven, full-page view.
    pub fn full_data() -> Self {
        Self::new(PageLength::Full, DriveMode::Data)
    }

    /// The data-driven, short-page view (the final protocol's reader view).
    pub fn short_data() -> Self {
        Self::new(PageLength::Short, DriveMode::Data)
    }

    /// All four views, in a stable order.
    pub fn all() -> [View; 4] {
        [
            Self::full_demand(),
            Self::short_demand(),
            Self::full_data(),
            Self::short_data(),
        ]
    }
}

/// Whether an application mapped the consistent (writeable) space or the
/// inconsistent (read-only) space.
///
/// "A process indicates its desired access by mapping the memory read-only
/// or writeable. There is only ever one consistent copy of a page."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMode {
    /// Inconsistent, read-only mapping: cheap, possibly stale.
    ReadOnly,
    /// Consistent, writeable mapping: there is only ever one such copy.
    Writeable,
}

/// A virtual address in the Mether space: page, view bits, and offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VAddr(u32);

impl VAddr {
    /// Builds an address from its components.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OffsetOutsideView`] if `offset` does not fit inside
    /// the selected view (e.g. offset 40 of a short view), and
    /// [`Error::InvalidAddress`] if it does not fit in a page at all.
    pub fn new(page: PageId, view: View, offset: u32) -> Result<Self> {
        if offset as usize >= PAGE_SIZE {
            return Err(Error::InvalidAddress {
                reason: format!("offset {offset} >= page size {PAGE_SIZE}"),
            });
        }
        if offset as usize >= view.length.len() {
            return Err(Error::OffsetOutsideView {
                offset: offset.into(),
                view_len: view.length.len(),
            });
        }
        let mut raw = (page.0 << PAGE_SHIFT) | offset;
        if view.length == PageLength::Short {
            raw |= SHORT_BIT;
        }
        if view.drive == DriveMode::Data {
            raw |= DATA_BIT;
        }
        Ok(VAddr(raw))
    }

    /// Reinterprets a raw 32-bit value as a Mether address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAddress`] if reserved bits are set or the
    /// offset lies outside the encoded view.
    pub fn from_raw(raw: u32) -> Result<Self> {
        if raw & !(OFFSET_MASK | PAGE_MASK | SHORT_BIT | DATA_BIT) != 0 {
            return Err(Error::InvalidAddress {
                reason: format!("reserved bits set in {raw:#x}"),
            });
        }
        let va = VAddr(raw);
        if va.offset() as usize >= va.view().length.len() {
            return Err(Error::OffsetOutsideView {
                offset: va.offset().into(),
                view_len: va.view().length.len(),
            });
        }
        Ok(va)
    }

    /// The raw 32-bit encoding.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The page this address refers to.
    pub fn page(self) -> PageId {
        PageId((self.0 & PAGE_MASK) >> PAGE_SHIFT)
    }

    /// The view encoded in the address bits.
    pub fn view(self) -> View {
        View {
            length: if self.0 & SHORT_BIT != 0 {
                PageLength::Short
            } else {
                PageLength::Full
            },
            drive: if self.0 & DATA_BIT != 0 {
                DriveMode::Data
            } else {
                DriveMode::Demand
            },
        }
    }

    /// The byte offset within the page.
    pub fn offset(self) -> u32 {
        self.0 & OFFSET_MASK
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.view();
        write!(
            f,
            "VAddr(page={}, {:?}/{:?}, off={}, raw={:#x})",
            self.page(),
            v.length,
            v.drive,
            self.offset(),
            self.0
        )
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A set of host indices: a variable-length bitmask of `u64` words.
///
/// The multi-segment network needs to say "this transit is snooped by
/// exactly the hosts on segment 3" without putting an expensive set on
/// every delivery event. `HostMask` keeps that cheap at any scale with a
/// two-tier representation:
///
/// * **Inline** — every member below [`HostMask::INLINE_CAPACITY`]
///   (128): two machine words, no allocation, clones are a 16-byte
///   memcpy. This is the paper's testbed and every deployment the
///   simulator ran before the 1024-host fabrics; the old `u128`
///   semantics are preserved bit for bit here (property-tested).
/// * **Spilled** — any member at 128 or above: a shared
///   (`Arc`-backed) word vector, copy-on-write on mutation, so cloning
///   stays as cheap as the old `Copy` mask (a reference-count bump)
///   while capacity becomes unbounded.
///
/// Membership is a bit test, iteration visits set bits in ascending
/// host order via per-word trailing-zero counts (O(set bits + words)),
/// and inserts *grow* the set instead of panicking — the 128-host wall
/// is gone. The same type doubles as a *segment* mask inside the
/// bridge's forwarding tables — a segment index is just a smaller
/// host-like index.
///
/// The representation is canonical — a spilled mask always has a
/// non-zero word beyond the inline two (mutations that shrink the set
/// demote back to inline) — so derived equality and hashing agree with
/// set equality whichever constructors built the operands.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct HostMask(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Members < 128 only: two words inline, never allocates.
    Inline([u64; 2]),
    /// At least one member >= 128: shared trimmed word vector (last
    /// word non-zero, length > 2), copy-on-write via `Arc::make_mut`.
    Spilled(Arc<Vec<u64>>),
}

const WORD_BITS: usize = 64;

impl HostMask {
    /// Highest index (exclusive) the allocation-free inline
    /// representation can hold. Not a capacity limit: larger indices
    /// spill to the heap-backed representation transparently.
    pub const INLINE_CAPACITY: usize = 128;

    /// The empty set.
    pub const EMPTY: HostMask = HostMask(Repr::Inline([0, 0]));

    /// Canonicalises `words`: trims trailing zero words, demotes to the
    /// inline representation when everything fits in two words.
    fn from_words_vec(mut words: Vec<u64>) -> HostMask {
        while words.len() > 2 && words.last() == Some(&0) {
            words.pop();
        }
        if words.len() <= 2 {
            let mut inline = [0u64; 2];
            for (i, w) in words.into_iter().enumerate() {
                inline[i] = w;
            }
            HostMask(Repr::Inline(inline))
        } else {
            HostMask(Repr::Spilled(Arc::new(words)))
        }
    }

    /// Word `w` of the mask (0 beyond the backing storage).
    fn word(&self, w: usize) -> u64 {
        self.words().get(w).copied().unwrap_or(0)
    }

    /// Number of backing words (2 inline, the trimmed length spilled).
    fn word_count(&self) -> usize {
        self.words().len()
    }

    /// The set `{0, 1, …, n−1}` — every host of an `n`-host deployment.
    pub fn all_below(n: usize) -> HostMask {
        let mut words = vec![u64::MAX; n / WORD_BITS];
        if !n.is_multiple_of(WORD_BITS) {
            words.push((1u64 << (n % WORD_BITS)) - 1);
        }
        Self::from_words_vec(words)
    }

    /// The broadcast set of an `n`-host segment: everyone except `sender`
    /// (a NIC does not hear its own frame). Equivalent to what
    /// `Recipients::AllExcept(sender)` denotes on a flat `n`-host segment.
    pub fn all_except(n: usize, sender: usize) -> HostMask {
        let mut m = Self::all_below(n);
        m.remove(sender);
        m
    }

    /// The singleton set `{i}`.
    pub fn single(i: usize) -> HostMask {
        let mut m = HostMask::EMPTY;
        m.insert(i);
        m
    }

    /// The set `{lo, …, hi−1}` (contiguous segment membership).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: usize, hi: usize) -> HostMask {
        assert!(lo <= hi, "inverted range {lo}..{hi}");
        // The bits of word `w` whose indices lie below `n`.
        let below = |n: usize, w: usize| match n.saturating_sub(w * WORD_BITS) {
            0 => 0,
            k if k >= WORD_BITS => u64::MAX,
            k => (1u64 << k) - 1,
        };
        let word = |w: usize| below(hi, w) & !below(lo, w);
        if hi <= Self::INLINE_CAPACITY {
            return HostMask(Repr::Inline([word(0), word(1)]));
        }
        Self::from_words_vec((0..hi.div_ceil(WORD_BITS)).map(word).collect())
    }

    /// Adds `i` to the set (idempotent), growing the representation as
    /// needed — indices at or beyond [`HostMask::INLINE_CAPACITY`] spill
    /// to the word vector.
    pub fn insert(&mut self, i: usize) {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        match &mut self.0 {
            Repr::Inline(ws) if w < 2 => ws[w] |= 1 << b,
            Repr::Inline(ws) => {
                let mut words = vec![0u64; w + 1];
                words[0] = ws[0];
                words[1] = ws[1];
                words[w] |= 1 << b;
                self.0 = Repr::Spilled(Arc::new(words));
            }
            Repr::Spilled(ws) => {
                let v = Arc::make_mut(ws);
                if v.len() <= w {
                    v.resize(w + 1, 0);
                }
                v[w] |= 1 << b;
            }
        }
    }

    /// Removes `i` from the set (idempotent; absent is a no-op).
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        match &mut self.0 {
            Repr::Inline(ws) => {
                if w < 2 {
                    ws[w] &= !(1 << b);
                }
            }
            Repr::Spilled(ws) => {
                if w < ws.len() {
                    let v = Arc::make_mut(ws);
                    v[w] &= !(1 << b);
                    if v.last() == Some(&0) {
                        let words = std::mem::take(v);
                        *self = Self::from_words_vec(words);
                    }
                }
            }
        }
    }

    /// `self` with `i` removed (builder form of [`HostMask::remove`]).
    #[must_use]
    pub fn without(mut self, i: usize) -> HostMask {
        self.remove(i);
        self
    }

    /// Is `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / WORD_BITS) & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no host is in the set.
    pub fn is_empty(&self) -> bool {
        // Canonical form: a spilled mask always has a set bit.
        matches!(&self.0, Repr::Inline([0, 0]))
    }

    /// Applies `f` word-wise over both masks (zero-padded to the longer
    /// one), staying allocation-free when both sides are inline.
    fn zip_words(&self, other: &HostMask, f: impl Fn(u64, u64) -> u64) -> HostMask {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            return HostMask(Repr::Inline([f(a[0], b[0]), f(a[1], b[1])]));
        }
        let n = self.word_count().max(other.word_count());
        Self::from_words_vec((0..n).map(|w| f(self.word(w), other.word(w))).collect())
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &HostMask) -> HostMask {
        self.zip_words(other, |a, b| a | b)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &HostMask) -> HostMask {
        self.zip_words(other, |a, b| a & b)
    }

    /// Is every member of `self` also in `other`? Word by word, so it
    /// allocates nothing whatever the widths.
    pub fn is_subset(&self, other: &HostMask) -> bool {
        (0..self.word_count()).all(|w| self.word(w) & !other.word(w) == 0)
    }

    /// Members of `self` not in `other`.
    #[must_use]
    pub fn difference(&self, other: &HostMask) -> HostMask {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Members in exactly one of the two sets — the "what changed"
    /// operation (the bridge diffs old and new forwarding port sets with
    /// it when an election lands).
    #[must_use]
    pub fn symmetric_difference(&self, other: &HostMask) -> HostMask {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// The low 128 bits as the legacy `u128` mask value.
    ///
    /// # Panics
    ///
    /// Panics if any member is at or beyond
    /// [`HostMask::INLINE_CAPACITY`] — callers that may see wide masks
    /// should use [`HostMask::words`] instead.
    pub fn bits(&self) -> u128 {
        match &self.0 {
            Repr::Inline(ws) => (u128::from(ws[1]) << 64) | u128::from(ws[0]),
            Repr::Spilled(_) => panic!("HostMask::bits on a mask wider than 128 indices"),
        }
    }

    /// A mask from raw `u128` bits — the inverse of [`HostMask::bits`].
    pub fn from_bits(bits: u128) -> HostMask {
        HostMask(Repr::Inline([bits as u64, (bits >> 64) as u64]))
    }

    /// The backing words, little-endian: word `w` holds indices
    /// `64w..64w+63`, bit `b` of it index `64w+b`. Inline masks always
    /// expose exactly two words; spilled masks their trimmed vector.
    /// The wire codec serialises masks through this view.
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline(ws) => ws,
            Repr::Spilled(ws) => ws,
        }
    }

    /// Rebuilds a mask from its [`HostMask::words`] view (trailing zero
    /// words are tolerated and canonicalised away).
    pub fn from_words(words: &[u64]) -> HostMask {
        Self::from_words_vec(words.to_vec())
    }

    /// Iterates the members in ascending index order, O(members + words)
    /// via per-word trailing-zero counts.
    pub fn iter(&self) -> HostMaskIter {
        HostMaskIter {
            bits: self.word(0),
            word: 0,
            mask: self.clone(),
        }
    }
}

impl Default for HostMask {
    fn default() -> Self {
        HostMask::EMPTY
    }
}

impl FromIterator<usize> for HostMask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut m = HostMask::EMPTY;
        for i in iter {
            m.insert(i);
        }
        m
    }
}

impl IntoIterator for HostMask {
    type Item = usize;
    type IntoIter = HostMaskIter;
    fn into_iter(self) -> HostMaskIter {
        self.iter()
    }
}

impl IntoIterator for &HostMask {
    type Item = usize;
    type IntoIter = HostMaskIter;
    fn into_iter(self) -> HostMaskIter {
        self.iter()
    }
}

/// Ascending-order iterator over a [`HostMask`] (see [`HostMask::iter`]).
#[derive(Debug, Clone)]
pub struct HostMaskIter {
    /// Unvisited bits of the current word.
    bits: u64,
    /// Index of the current word.
    word: usize,
    /// The mask being walked (a cheap clone — inline copy or refcount).
    mask: HostMask,
}

impl Iterator for HostMaskIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1; // clear lowest set bit
                return Some(self.word * WORD_BITS + b);
            }
            if self.word + 1 >= self.mask.word_count() {
                return None;
            }
            self.word += 1;
            self.bits = self.mask.word(self.word);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize
            + (self.word + 1..self.mask.word_count())
                .map(|w| self.mask.word(w).count_ones() as usize)
                .sum::<usize>();
        (n, Some(n))
    }
}

impl ExactSizeIterator for HostMaskIter {}

impl fmt::Display for HostMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for HostMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostMask{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_components() {
        for view in View::all() {
            let va = VAddr::new(PageId::new(5), view, 8).unwrap();
            assert_eq!(va.page(), PageId::new(5));
            assert_eq!(va.view(), view);
            assert_eq!(va.offset(), 8);
        }
    }

    #[test]
    fn short_and_full_views_overlay_same_page() {
        let full = VAddr::new(PageId::new(3), View::full_demand(), 4).unwrap();
        let short = VAddr::new(PageId::new(3), View::short_demand(), 4).unwrap();
        assert_eq!(full.page(), short.page());
        assert_eq!(full.offset(), short.offset());
        assert_ne!(full.raw(), short.raw(), "views differ only in address bits");
    }

    #[test]
    fn offset_outside_short_view_rejected() {
        let err = VAddr::new(PageId::new(0), View::short_demand(), 32).unwrap_err();
        assert_eq!(
            err,
            Error::OffsetOutsideView {
                offset: 32,
                view_len: 32
            }
        );
        // ...but the same offset is fine in the full view.
        assert!(VAddr::new(PageId::new(0), View::full_demand(), 32).is_ok());
    }

    #[test]
    fn offset_outside_page_rejected() {
        assert!(matches!(
            VAddr::new(PageId::new(0), View::full_demand(), 8192),
            Err(Error::InvalidAddress { .. })
        ));
    }

    #[test]
    fn page_id_range_checked() {
        assert!(PageId::try_new(MAX_PAGES - 1).is_ok());
        assert!(PageId::try_new(MAX_PAGES).is_err());
    }

    #[test]
    #[should_panic(expected = "page number out of range")]
    fn page_id_new_panics_out_of_range() {
        let _ = PageId::new(MAX_PAGES);
    }

    #[test]
    fn from_raw_rejects_reserved_bits() {
        assert!(VAddr::from_raw(1 << 31).is_err());
        assert!(VAddr::from_raw(1 << 30).is_err());
    }

    #[test]
    fn from_raw_rejects_short_offset_overflow() {
        // Raw value with SHORT bit and offset 100.
        let raw = SHORT_BIT | 100;
        assert!(VAddr::from_raw(raw).is_err());
    }

    #[test]
    fn view_constructors_cover_all_bit_patterns() {
        let raws: std::collections::HashSet<u32> = View::all()
            .iter()
            .map(|v| VAddr::new(PageId::new(1), *v, 0).unwrap().raw())
            .collect();
        assert_eq!(raws.len(), 4);
    }

    #[test]
    fn covers_relation() {
        assert!(PageLength::Full.covers(PageLength::Short));
        assert!(PageLength::Full.covers(PageLength::Full));
        assert!(!PageLength::Short.covers(PageLength::Full));
        assert!(PageLength::Short.covers(PageLength::Short));
    }

    proptest! {
        #[test]
        fn prop_round_trip(page in 0u32..MAX_PAGES, off in 0u32..32, s in any::<bool>(), d in any::<bool>()) {
            let view = View::new(
                if s { PageLength::Short } else { PageLength::Full },
                if d { DriveMode::Data } else { DriveMode::Demand },
            );
            let va = VAddr::new(PageId::new(page), view, off).unwrap();
            prop_assert_eq!(va.page().index(), page);
            prop_assert_eq!(va.view(), view);
            prop_assert_eq!(va.offset(), off);
            // raw round-trip
            let back = VAddr::from_raw(va.raw()).unwrap();
            prop_assert_eq!(back, va);
        }

        #[test]
        fn prop_full_offsets(off in 0u32..8192) {
            let va = VAddr::new(PageId::new(0), View::full_demand(), off).unwrap();
            prop_assert_eq!(va.offset(), off);
        }

        #[test]
        fn prop_distinct_pages_distinct_addrs(a in 0u32..MAX_PAGES, b in 0u32..MAX_PAGES) {
            prop_assume!(a != b);
            let va = VAddr::new(PageId::new(a), View::full_demand(), 0).unwrap();
            let vb = VAddr::new(PageId::new(b), View::full_demand(), 0).unwrap();
            prop_assert_ne!(va.raw(), vb.raw());
        }
    }

    #[test]
    fn hostmask_basic_set_operations() {
        let mut m = HostMask::EMPTY;
        assert!(m.is_empty());
        m.insert(3);
        m.insert(120);
        m.insert(3); // idempotent
        assert_eq!(m.len(), 2);
        assert!(m.contains(3) && m.contains(120));
        assert!(!m.contains(4));
        m.remove(3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![120]);
        m.remove(999); // out of range is a no-op
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn hostmask_constructors() {
        assert_eq!(HostMask::all_below(0), HostMask::EMPTY);
        assert_eq!(HostMask::all_below(128).len(), 128);
        assert_eq!(
            HostMask::all_except(4, 1).iter().collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert_eq!(
            HostMask::range(8, 12).iter().collect::<Vec<_>>(),
            vec![8, 9, 10, 11]
        );
        assert_eq!(HostMask::range(5, 5), HostMask::EMPTY);
        assert_eq!(HostMask::single(7).iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn hostmask_algebra() {
        let a = HostMask::from_iter([1usize, 2, 3]);
        let b = HostMask::from_iter([3usize, 4]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(
            a.symmetric_difference(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(a.without(2).iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn hostmask_iteration_is_ascending_and_exact() {
        let m = HostMask::from_iter([127usize, 0, 64, 63, 1]);
        let it = m.iter();
        assert_eq!(it.len(), 5);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 1, 63, 64, 127]);
        assert_eq!(m.to_string(), "{0,1,63,64,127}");
    }

    #[test]
    fn hostmask_spills_past_inline_capacity_and_demotes_back() {
        let mut m = HostMask::single(5);
        m.insert(128); // first index past the inline fast path
        m.insert(1000);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![5, 128, 1000]);
        assert_eq!(m.len(), 3);
        assert!(m.contains(1000) && !m.contains(999));
        // Removing every spilled member demotes to the inline form, so
        // equality with an inline-built mask is structural again.
        m.remove(1000);
        m.remove(128);
        assert_eq!(m, HostMask::single(5));
        assert_eq!(m.bits(), 1 << 5);
    }

    #[test]
    #[should_panic(expected = "wider than 128")]
    fn hostmask_bits_rejects_spilled_masks() {
        let _ = HostMask::single(200).bits();
    }

    #[test]
    fn hostmask_words_round_trip_any_width() {
        for width in [1usize, 64, 127, 128, 129, 512, 1024] {
            let m = HostMask::all_below(width).without(width / 2);
            let back = HostMask::from_words(m.words());
            assert_eq!(m, back, "width {width}");
            assert_eq!(back.len(), width - 1);
        }
        // Untrimmed input canonicalises.
        assert_eq!(HostMask::from_words(&[1, 0, 0, 0]), HostMask::single(0));
    }

    proptest! {
        #[test]
        fn prop_hostmask_iter_is_sorted_dedup(xs in proptest::collection::vec(0usize..128, 0..40)) {
            let m: HostMask = xs.iter().copied().collect();
            let mut expect = xs.clone();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(m.iter().collect::<Vec<_>>(), expect.clone());
            prop_assert_eq!(m.len(), expect.len());
        }

        #[test]
        fn prop_hostmask_all_except_matches_filter(n in 1usize..128, sender in 0usize..128) {
            let m = HostMask::all_except(n, sender);
            let expect: Vec<usize> = (0..n).filter(|&h| h != sender).collect();
            prop_assert_eq!(m.iter().collect::<Vec<_>>(), expect);
        }
    }
}
