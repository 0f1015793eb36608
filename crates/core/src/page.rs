//! Page storage: the bytes backing one Mether page on one host.
//!
//! # The zero-copy buffer model
//!
//! A [`PageBuf`] is backed by either *owned* storage (a private `Vec`)
//! or *shared* storage (a reference-counted [`Bytes`] view — typically a
//! slice of the decoded datagram the page arrived in). Either way the
//! storage is exactly the valid prefix: a 32-byte short copy holds 32
//! bytes, not an 8 KiB extent. Created pages share one zero page. The
//! two states convert lazily, copy-on-write:
//!
//! * **Creation is copy-free.** [`PageBuf::new_zeroed`] hands out a view
//!   of one process-wide page of zeros (Mach's copy-on-write zero-fill
//!   page); the page's first write copies it, and a page that is never
//!   written never holds bytes of its own.
//! * **Install/refresh from the network is copy-free.** A snooping host
//!   adopts the broadcast's payload by reference
//!   ([`PageBuf::from_payload`], [`PageBuf::refresh_from_payload`]); N
//!   hosts snooping one broadcast share one allocation.
//! * **Publishing is copy-free.** [`PageBuf::payload`] hands the page's
//!   storage to the network as a shared view instead of copying it out
//!   (short transfers below `ZERO_COPY_MIN`, 1 KiB, are copied — a 32-byte
//!   memcpy is cheaper than freezing 8 KiB of storage).
//! * **Writes are isolated.** Any mutation of shared storage first
//!   materialises a private owned copy, so a payload already handed to
//!   the network (or a datagram other hosts still share) can never be
//!   mutated retroactively.
//!
//! A `PageBuf` stands for the whole 8192-byte page but holds only the
//! bytes that are *valid*: after a short-page fault only the first
//! `short_len` bytes hold data from the network. The Figure 1 rules
//! call the short page the *subset* and the full page the *superset*;
//! "pagein from the network: all subsets paged in, no supersets paged
//! in" is expressed here as `valid_len`. Bytes past it read as zeros
//! wherever a transfer reaches them ([`PageBuf::payload`]).

use crate::config::PAGE_SIZE;
use crate::{Error, PageLength, Result};
use bytes::Bytes;
use std::fmt;
use std::sync::OnceLock;

/// Transfers at least this long are published as zero-copy shared views;
/// shorter ones are copied out (cheaper than freezing the whole page).
pub(crate) const ZERO_COPY_MIN: usize = 1024;

/// The backing store for one page on one host. See the module docs for
/// the owned/shared copy-on-write model. Either variant holds exactly
/// the page's valid prefix.
#[derive(Clone)]
enum Storage {
    /// Private storage, never aliased (sharing converts to `Shared`
    /// first).
    Owned(Vec<u8>),
    /// Reference-counted storage, possibly aliased by the network layer,
    /// by other hosts, or by every created page (the zero page).
    Shared(Bytes),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(b) => b,
        }
    }
}

/// The backing store for one page on one host.
pub struct PageBuf {
    storage: Storage,
    valid_len: usize,
}

/// A `len`-byte vector holding as much of `src` as fits, zero-padded —
/// the single definition of the "prefix plus zero tail" transfer shape.
fn padded_vec(src: &[u8], len: usize) -> Vec<u8> {
    let keep = src.len().min(len);
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&src[..keep]);
    v.resize(len, 0);
    v
}

/// The one process-wide page of zeros that created pages share. The
/// static keeps a reference of its own, so [`Bytes::try_unique`] never
/// reclaims it.
fn zero_page() -> &'static Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0; PAGE_SIZE]))
}

impl PageBuf {
    /// A zero-filled page with the full extent valid (a freshly created
    /// page owned by its creator). It shares the process-wide zero page
    /// until its first write.
    pub fn new_zeroed() -> Self {
        Self {
            storage: Storage::Shared(zero_page().clone()),
            valid_len: PAGE_SIZE,
        }
    }

    /// A page installed from `bytes` received off the network; only the
    /// received prefix is valid. Copies the prefix once into private
    /// storage — use [`PageBuf::from_payload`] on the snoop path to
    /// install without copying at all.
    pub fn from_network(bytes: &[u8]) -> Self {
        let n = bytes.len().min(PAGE_SIZE);
        Self {
            storage: Storage::Owned(bytes[..n].to_vec()),
            valid_len: n,
        }
    }

    /// A page installed by adopting a decoded datagram's payload by
    /// reference — the zero-copy install path. The buffer shares the
    /// datagram's storage until something writes to it.
    pub fn from_payload(data: &Bytes) -> Self {
        let n = data.len().min(PAGE_SIZE);
        Self {
            storage: Storage::Shared(data.slice(..n)),
            valid_len: n,
        }
    }

    /// How many leading bytes hold real (network- or locally-written) data.
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// True if the whole 8192-byte extent is valid (a *superset* presence
    /// in Figure 1 terms).
    pub fn full_valid(&self) -> bool {
        self.valid_len == PAGE_SIZE
    }

    /// True if at least the first `len` bytes are valid.
    pub fn covers(&self, len: usize) -> bool {
        self.valid_len >= len
    }

    /// True if this buffer's storage is shared with `payload` (no copy
    /// separates them). Exposed for the zero-copy tests and assertions.
    pub fn shares_storage_with(&self, payload: &Bytes) -> bool {
        match &self.storage {
            Storage::Owned(_) => false,
            Storage::Shared(b) => b.shares_storage_with(payload),
        }
    }

    /// Materialises private storage holding the valid prefix — the
    /// copy-on-write step — and returns it.
    ///
    /// When the shared allocation is exactly the valid prefix and nobody
    /// else references it any more (every network view was dropped), it
    /// is reclaimed in place instead of copied, so a single-writer
    /// publish → write cycle stays copy-free once the published payload
    /// has been consumed. A view of the zero page is never reclaimed; it
    /// becomes freshly zeroed memory, which costs less than copying it.
    fn ensure_owned(&mut self) -> &mut Vec<u8> {
        if let Storage::Shared(b) = &mut self.storage {
            let owned = if b.shares_storage_with(zero_page()) {
                vec![0; b.len()]
            } else {
                std::mem::take(b)
                    .try_unique()
                    .unwrap_or_else(|shared| shared.to_vec())
            };
            self.storage = Storage::Owned(owned);
        }
        match &mut self.storage {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("materialised above"),
        }
    }

    /// Merges bytes received from the network into this buffer, extending
    /// the valid prefix if the transfer was longer than what we had.
    ///
    /// A short-page broadcast refreshes the first 32 bytes of an existing
    /// full copy without invalidating the rest — the snoopy-refresh rule.
    /// Copies `bytes`; the snoop path uses the copy-free
    /// [`PageBuf::refresh_from_payload`] instead.
    pub fn refresh_from_network(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(PAGE_SIZE);
        let v = self.ensure_owned();
        let keep = v.len().min(n);
        v[..keep].copy_from_slice(&bytes[..keep]);
        v.extend_from_slice(&bytes[keep..n]);
        self.valid_len = self.valid_len.max(n);
    }

    /// Snoopy refresh from a decoded datagram's payload.
    ///
    /// When the transfer covers the whole valid prefix the buffer simply
    /// adopts the payload's storage by reference — zero bytes move, and
    /// the host's previous storage (possibly still shared with a payload
    /// it published earlier) is released untouched. Only a refresh
    /// *shorter* than the valid prefix (a short-page broadcast landing on
    /// a full copy) has to merge, which costs one copy-on-write of the
    /// local page plus the short prefix copy.
    pub fn refresh_from_payload(&mut self, data: &Bytes) {
        let n = data.len().min(PAGE_SIZE);
        if n >= self.valid_len {
            self.storage = Storage::Shared(data.slice(..n));
            self.valid_len = n;
        } else {
            self.refresh_from_network(data);
        }
    }

    /// Merges *superset* bytes under an authoritative local prefix: only
    /// bytes beyond the current valid prefix are taken from `bytes`.
    ///
    /// Used when a host that holds the consistent copy of a short page
    /// receives the full page from a host with an older full copy
    /// (Figure 1's "supersets not present are marked wanted"): the local
    /// short prefix carries newer writes and must win.
    pub fn extend_from_network(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(PAGE_SIZE);
        if n > self.valid_len {
            let start = self.valid_len;
            self.ensure_owned().extend_from_slice(&bytes[start..n]);
            self.valid_len = n;
        }
    }
    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OffsetOutsideView`] if the range extends past the
    /// valid prefix.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        let end = offset
            .checked_add(buf.len())
            .ok_or(Error::OffsetOutsideView {
                offset: offset as u64,
                view_len: self.valid_len,
            })?;
        if end > self.valid_len {
            return Err(Error::OffsetOutsideView {
                offset: offset as u64,
                view_len: self.valid_len,
            });
        }
        buf.copy_from_slice(&self.storage.as_slice()[offset..end]);
        Ok(())
    }

    /// Writes `buf` starting at `offset`.
    ///
    /// Copy-on-write: if the storage is shared (with a payload handed to
    /// the network, or with the datagram the page arrived in), a private
    /// copy is materialised first, so the shared bytes are never mutated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OffsetOutsideView`] if the range extends past the
    /// valid prefix (you cannot write through a short copy beyond its
    /// extent).
    pub fn write(&mut self, offset: usize, buf: &[u8]) -> Result<()> {
        let end = offset
            .checked_add(buf.len())
            .ok_or(Error::OffsetOutsideView {
                offset: offset as u64,
                view_len: self.valid_len,
            })?;
        if end > self.valid_len {
            return Err(Error::OffsetOutsideView {
                offset: offset as u64,
                view_len: self.valid_len,
            });
        }
        self.ensure_owned()[offset..end].copy_from_slice(buf);
        Ok(())
    }

    /// Reads a little-endian `u32` at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates [`PageBuf::read`] errors.
    pub fn read_u32(&self, offset: usize) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(offset, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates [`PageBuf::write`] errors.
    pub fn write_u32(&mut self, offset: usize, v: u32) -> Result<()> {
        self.write(offset, &v.to_le_bytes())
    }

    /// The transfer payload for a view of `len`: the prefix of the page
    /// that a `PageData` broadcast of that length carries.
    ///
    /// Full-page transfers (anything ≥ `ZERO_COPY_MIN`, 1 KiB) are **zero
    /// copy**: the returned [`Bytes`] shares this buffer's storage, and a
    /// subsequent local write copy-on-writes rather than mutating what
    /// was handed to the network. Short transfers are copied out — a
    /// 32-byte memcpy beats freezing 8 KiB of storage.
    pub fn payload(&mut self, transfer_len: usize) -> Bytes {
        let n = transfer_len.min(PAGE_SIZE);
        if n >= ZERO_COPY_MIN && self.valid_len >= n {
            // Freeze owned storage into a shared allocation (a pointer
            // move, not a copy), then hand out a view of it.
            if let Storage::Owned(v) = &mut self.storage {
                self.storage = Storage::Shared(Bytes::from(std::mem::take(v)));
            }
            if let Storage::Shared(b) = &self.storage {
                return b.slice(..n);
            }
        }
        // Copy path: short transfers, or a transfer longer than the
        // valid prefix (the tail past it reads as zeros).
        Bytes::from(padded_vec(self.storage.as_slice(), n))
    }

    /// The valid prefix as a slice.
    pub fn as_slice(&self) -> &[u8] {
        self.storage.as_slice()
    }

    /// How many bytes the storage holds: the model tests pin that it
    /// never exceeds [`PageBuf::valid_len`].
    #[cfg(test)]
    fn extent(&self) -> usize {
        self.storage.as_slice().len()
    }

    /// Whether this buffer satisfies a fault of the given `length` view
    /// under `short_len`-byte short pages.
    pub fn satisfies(&self, length: PageLength, short_len: usize) -> bool {
        match length {
            PageLength::Full => self.full_valid(),
            PageLength::Short => self.covers(short_len),
        }
    }
}

impl PartialEq for PageBuf {
    /// Buffers are equal when their *valid* contents are equal; the
    /// storage representation (owned vs shared) is invisible.
    fn eq(&self, other: &Self) -> bool {
        self.valid_len == other.valid_len && self.as_slice() == other.as_slice()
    }
}

impl Eq for PageBuf {}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        PageBuf {
            storage: match &self.storage {
                // Cloning shared storage bumps a refcount; mutation on
                // either side copy-on-writes.
                Storage::Shared(b) => Storage::Shared(b.clone()),
                Storage::Owned(v) => Storage::Owned(v.clone()),
            },
            valid_len: self.valid_len,
        }
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PageBuf(valid={}, {}, head={:02x?})",
            self.valid_len,
            match &self.storage {
                Storage::Owned(_) => "owned",
                Storage::Shared(_) => "shared",
            },
            &self.as_slice()[..8.min(self.valid_len)]
        )
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::new_zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeroed_page_is_fully_valid() {
        let p = PageBuf::new_zeroed();
        assert!(p.full_valid());
        assert_eq!(p.read_u32(0).unwrap(), 0);
        assert_eq!(p.read_u32(8188).unwrap(), 0);
    }

    #[test]
    fn short_install_limits_valid_prefix() {
        let p = PageBuf::from_network(&[1u8; 32]);
        assert_eq!(p.valid_len(), 32);
        assert!(!p.full_valid());
        assert!(p.covers(32));
        assert!(!p.covers(33));
        assert!(p.read_u32(28).is_ok());
        assert!(p.read_u32(29).is_err(), "crosses the valid prefix");
    }

    #[test]
    fn refresh_extends_but_never_shrinks_valid_prefix() {
        let mut p = PageBuf::from_network(&[1u8; 8192]);
        assert!(p.full_valid());
        // A short broadcast refreshes the head without shrinking validity.
        p.refresh_from_network(&[2u8; 32]);
        assert!(p.full_valid());
        assert_eq!(p.read_u32(0).unwrap(), 0x0202_0202);
        let mut tail = [0u8; 4];
        p.read(100, &mut tail).unwrap();
        assert_eq!(tail, [1, 1, 1, 1], "tail untouched by short refresh");
    }

    #[test]
    fn extend_preserves_local_prefix() {
        let mut p = PageBuf::from_network(&[9u8; 32]);
        p.extend_from_network(&[1u8; 8192]);
        assert!(p.full_valid());
        let mut head = [0u8; 4];
        p.read(0, &mut head).unwrap();
        assert_eq!(head, [9, 9, 9, 9], "local prefix is authoritative");
        let mut tail = [0u8; 4];
        p.read(32, &mut tail).unwrap();
        assert_eq!(tail, [1, 1, 1, 1], "tail adopted from the superset");
    }

    #[test]
    fn extend_with_shorter_data_is_noop() {
        let mut p = PageBuf::from_network(&[9u8; 64]);
        p.extend_from_network(&[1u8; 32]);
        assert_eq!(p.valid_len(), 64);
        assert_eq!(p.as_slice(), &[9u8; 64][..]);
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut p = PageBuf::new_zeroed();
        p.write_u32(16, 0xdead_beef).unwrap();
        assert_eq!(p.read_u32(16).unwrap(), 0xdead_beef);
    }

    #[test]
    fn payload_lengths() {
        let mut p = PageBuf::new_zeroed();
        p.write_u32(0, 7).unwrap();
        assert_eq!(p.payload(32).len(), 32);
        assert_eq!(p.payload(8192).len(), 8192);
        assert_eq!(&p.payload(32)[..4], &7u32.to_le_bytes());
    }

    #[test]
    fn satisfies_view_lengths() {
        let short = PageBuf::from_network(&[0u8; 32]);
        assert!(short.satisfies(PageLength::Short, 32));
        assert!(!short.satisfies(PageLength::Full, 32));
        let full = PageBuf::new_zeroed();
        assert!(full.satisfies(PageLength::Full, 32));
        assert!(full.satisfies(PageLength::Short, 32));
    }

    #[test]
    fn out_of_range_write_rejected() {
        let mut p = PageBuf::new_zeroed();
        assert!(p.write(8190, &[0u8; 4]).is_err());
        assert!(p.write(usize::MAX, &[0u8; 4]).is_err());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn huge_offset_reported_untruncated() {
        // Regression: offsets ≥ 2³² used to be truncated to u32 in the
        // error, reporting e.g. 5 instead of 4294967301.
        let mut p = PageBuf::new_zeroed();
        let off = (1usize << 32) + 5;
        match p.write(off, &[0u8; 4]).unwrap_err() {
            Error::OffsetOutsideView { offset, .. } => assert_eq!(offset, off as u64),
            other => panic!("{other:?}"),
        }
        match p.read_u32(off).unwrap_err() {
            Error::OffsetOutsideView { offset, .. } => assert_eq!(offset, off as u64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_payload_is_zero_copy() {
        let mut p = PageBuf::new_zeroed();
        let a = p.payload(PAGE_SIZE);
        let b = p.payload(PAGE_SIZE);
        assert!(
            a.shares_storage_with(&b),
            "both payloads view the same storage"
        );
        assert!(p.shares_storage_with(&a), "the page itself shares it too");
    }

    #[test]
    fn short_payload_is_copied_not_shared() {
        // Publishing 32 bytes must not freeze the whole page's storage.
        let mut p = PageBuf::new_zeroed();
        let short = p.payload(32);
        assert_eq!(short.len(), 32);
        assert!(!p.shares_storage_with(&short));
    }

    #[test]
    fn write_after_payload_copy_on_writes() {
        // COW isolation: a payload handed to the network never observes
        // writes made after it was published.
        let mut p = PageBuf::new_zeroed();
        p.write_u32(0, 1).unwrap();
        let published = p.payload(PAGE_SIZE);
        assert!(p.shares_storage_with(&published));
        p.write_u32(0, 2).unwrap();
        assert!(
            !p.shares_storage_with(&published),
            "write detached the storage"
        );
        assert_eq!(
            &published[..4],
            &1u32.to_le_bytes(),
            "published bytes unchanged"
        );
        assert_eq!(p.read_u32(0).unwrap(), 2);
    }

    #[test]
    fn write_after_consumed_payload_reclaims_storage() {
        // Once every network view of a published payload is dropped, the
        // next write reclaims the allocation in place instead of copying
        // 8 KiB — the single-writer publish → write cycle is copy-free.
        let mut p = PageBuf::new_zeroed();
        p.write_u32(0, 1).unwrap();
        let published = p.payload(PAGE_SIZE);
        let alloc = published.as_ref().as_ptr() as usize;
        drop(published);
        p.write_u32(0, 2).unwrap();
        assert_eq!(p.read_u32(0).unwrap(), 2);
        assert_eq!(
            p.as_slice().as_ptr() as usize,
            alloc,
            "write reclaimed the published allocation instead of copying"
        );
    }

    #[test]
    fn install_from_payload_is_zero_copy_and_isolated() {
        let datagram = bytes::Bytes::from(vec![5u8; 8192]);
        let mut p = PageBuf::from_payload(&datagram);
        assert!(p.full_valid());
        assert!(
            p.shares_storage_with(&datagram),
            "install adopts the datagram"
        );
        // A local write must not mutate the (still shared) datagram.
        p.write_u32(0, 0xffff_ffff).unwrap();
        assert_eq!(datagram[0], 5, "datagram bytes are immutable");
        assert!(!p.shares_storage_with(&datagram));
    }

    #[test]
    fn full_refresh_adopts_payload_storage() {
        let mut p = PageBuf::from_network(&[1u8; 8192]);
        let update = bytes::Bytes::from(vec![2u8; 8192]);
        p.refresh_from_payload(&update);
        assert!(
            p.shares_storage_with(&update),
            "steady-state refresh is copy-free"
        );
        assert_eq!(p.read_u32(0).unwrap(), 0x0202_0202);
    }

    #[test]
    fn short_refresh_of_full_copy_merges() {
        let mut p = PageBuf::from_network(&[1u8; 8192]);
        let update = bytes::Bytes::from(vec![2u8; 32]);
        p.refresh_from_payload(&update);
        assert!(p.full_valid());
        assert_eq!(p.read_u32(0).unwrap(), 0x0202_0202);
        assert_eq!(
            p.read_u32(100).unwrap(),
            0x0101_0101,
            "tail survives the merge"
        );
    }

    #[test]
    fn payload_pads_beyond_shared_extent() {
        // A holder that only ever received 32 bytes can still publish a
        // longer transfer; the tail reads as zeros, as the old
        // full-extent storage representation guaranteed.
        let datagram = bytes::Bytes::from(vec![7u8; 32]);
        let mut p = PageBuf::from_payload(&datagram);
        let full = p.payload(PAGE_SIZE);
        assert_eq!(full.len(), PAGE_SIZE);
        assert_eq!(&full[..32], &[7u8; 32][..]);
        assert!(full[32..].iter().all(|&b| b == 0));
    }

    #[test]
    fn equality_ignores_storage_representation() {
        let owned = PageBuf::from_network(&[3u8; 32]);
        let shared = PageBuf::from_payload(&bytes::Bytes::from(vec![3u8; 32]));
        assert_eq!(owned, shared);
    }

    #[test]
    fn created_pages_share_one_zero_page() {
        let mut a = PageBuf::new_zeroed();
        let b = PageBuf::new_zeroed();
        let zeros = a.payload(PAGE_SIZE);
        assert!(zeros.iter().all(|&x| x == 0));
        assert!(a.shares_storage_with(&zeros));
        assert!(b.shares_storage_with(&zeros), "one zero page for both");
        // The first write copies the zero page; the other page and the
        // payload still read zeros.
        a.write_u32(0, 9).unwrap();
        assert!(!a.shares_storage_with(&zeros));
        assert_eq!(a.extent(), PAGE_SIZE);
        assert_eq!(b.read_u32(0).unwrap(), 0);
        assert_eq!(&zeros[..4], &[0u8; 4]);
    }

    #[test]
    fn written_short_copy_holds_its_valid_bytes() {
        let mut owned = PageBuf::from_network(&[1u8; 32]);
        owned.write_u32(0, 2).unwrap();
        assert_eq!(owned.extent(), 32);
        let datagram = bytes::Bytes::from(vec![1u8; 64]);
        let mut shared = PageBuf::from_payload(&datagram.slice(16..48));
        shared.write_u32(28, 2).unwrap();
        assert_eq!(shared.extent(), 32);
        assert_eq!(datagram[44], 1, "the datagram is untouched");
    }

    /// Install lengths worth hitting: empty, short, odd, the zero-copy
    /// threshold, the full page, or anything.
    fn model_len(a: usize, b: usize) -> usize {
        [0, 32, 33, ZERO_COPY_MIN, PAGE_SIZE, a + 1][b % 6]
    }

    fn model_bytes(n: usize, fill: u8) -> Vec<u8> {
        (0..n).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random op sequences (each an op kind, two size/offset draws
        /// and a fill byte) against a plain 8192-byte page with a valid
        /// length: every read, slice and payload byte agrees, the
        /// storage never holds more than the valid prefix, and a payload
        /// once handed out never changes.
        #[test]
        fn prop_pagebuf_matches_a_flat_page_model(
            ops in proptest::collection::vec((0u8..9, 0usize..PAGE_SIZE, 0usize..PAGE_SIZE, any::<u8>()), 1..40),
        ) {
            let mut page = PageBuf::new_zeroed();
            let mut model = vec![0u8; PAGE_SIZE];
            let mut valid = PAGE_SIZE;
            let mut published: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for &(kind, a, b, fill) in &ops {
                let n = model_len(a, b);
                let data = model_bytes(n, fill);
                // A datagram whose payload sits at an offset, as a
                // decoded frame's does, so reclaiming it must fail.
                let datagram = || {
                    let pad = usize::from(fill & 1) * 8;
                    Bytes::from([vec![0xee; pad], data.clone()].concat()).slice(pad..)
                };
                match kind {
                    0..=2 => {
                        let created = kind == 0 && fill & 1 == 0;
                        valid = if created { PAGE_SIZE } else { n };
                        page = match kind {
                            _ if created => PageBuf::new_zeroed(),
                            // A view of the zero page, as a snooper
                            // adopts a created page's published payload.
                            0 => PageBuf::from_payload(&zero_page().slice(..n)),
                            1 => PageBuf::from_network(&data),
                            _ => PageBuf::from_payload(&datagram()),
                        };
                        model = if kind == 0 { vec![0; valid] } else { data.clone() };
                        model.resize(PAGE_SIZE, 0);
                    }
                    3 => {
                        // Mostly inside the valid prefix, sometimes past it.
                        let (off, len) = (a % (valid + 8), b % 64 + 1);
                        let buf = model_bytes(len, fill);
                        let fits = off + len <= valid;
                        prop_assert_eq!(page.write(off, &buf).is_ok(), fits);
                        if fits {
                            model[off..off + len].copy_from_slice(&buf);
                        }
                    }
                    4 | 5 => {
                        if kind == 4 {
                            page.refresh_from_network(&data);
                        } else {
                            page.refresh_from_payload(&datagram());
                        }
                        model[..n].copy_from_slice(&data);
                        valid = valid.max(n);
                    }
                    6 => {
                        page.extend_from_network(&data);
                        if n > valid {
                            model[valid..n].copy_from_slice(&data[valid..]);
                            valid = n;
                        }
                    }
                    7 => {
                        let len = [32, ZERO_COPY_MIN, PAGE_SIZE][b % 3];
                        let p = page.payload(len);
                        prop_assert_eq!(&p[..], &model[..len]);
                        published.push((p, model[..len].to_vec()));
                    }
                    _ => published.clear(),
                }
                prop_assert_eq!(page.valid_len(), valid);
                prop_assert!(page.extent() <= page.valid_len(), "storage past the valid prefix");
                prop_assert_eq!(page.as_slice(), &model[..valid]);
                let mut word = [0u8; 4];
                let at = b % (valid + 8);
                let in_range = at + 4 <= valid;
                prop_assert_eq!(page.read(at, &mut word).is_ok(), in_range);
                if in_range {
                    prop_assert_eq!(&word[..], &model[at..at + 4]);
                }
                for (p, bytes) in &published {
                    prop_assert_eq!(&p[..], &bytes[..], "a published payload changed");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_write_read_identity(off in 0usize..8188, v in any::<u32>()) {
            let mut p = PageBuf::new_zeroed();
            p.write_u32(off, v).unwrap();
            prop_assert_eq!(p.read_u32(off).unwrap(), v);
        }

        #[test]
        fn prop_install_prefix_matches(len in 1usize..8192) {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let p = PageBuf::from_network(&data);
            prop_assert_eq!(p.valid_len(), len);
            prop_assert_eq!(p.as_slice(), &data[..]);
            let shared = PageBuf::from_payload(&bytes::Bytes::from(data.clone()));
            prop_assert_eq!(shared.valid_len(), len);
            prop_assert_eq!(shared.as_slice(), &data[..]);
        }

        #[test]
        fn prop_refresh_monotone_validity(a in 1usize..8192, b in 1usize..8192) {
            let mut p = PageBuf::from_network(&vec![1u8; a]);
            p.refresh_from_network(&vec![2u8; b]);
            prop_assert_eq!(p.valid_len(), a.max(b));
            let mut p = PageBuf::from_network(&vec![1u8; a]);
            p.refresh_from_payload(&bytes::Bytes::from(vec![2u8; b]));
            prop_assert_eq!(p.valid_len(), a.max(b));
        }
    }
}
