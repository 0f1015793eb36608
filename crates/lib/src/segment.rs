//! Named segments with capabilities (§5: "The library provides named
//! segments with capabilities").
//!
//! A [`Registry`] allocates ranges of Mether pages to names; opening a
//! segment requires a [`Capability`] whose rights cover the requested
//! access. Rights are deliberately simple — read, write, purge — the
//! granularity the Mether driver itself distinguishes.

use mether_core::{Error, PageId, Result, VAddr, View};
use mether_net::rt::lock;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Access rights carried by a [`Capability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rights(u8);

impl Rights {
    /// May map and read the segment.
    pub const READ: Rights = Rights(0b001);
    /// May map the segment writeable (implies nothing about READ).
    pub const WRITE: Rights = Rights(0b010);
    /// May purge pages of the segment.
    pub const PURGE: Rights = Rights(0b100);
    /// Everything.
    pub const ALL: Rights = Rights(0b111);
    /// Nothing.
    pub const NONE: Rights = Rights(0);

    /// Union of two rights sets.
    #[must_use]
    pub fn union(self, other: Rights) -> Rights {
        Rights(self.0 | other.0)
    }

    /// Does `self` include every right in `needed`?
    pub fn covers(self, needed: Rights) -> bool {
        self.0 & needed.0 == needed.0
    }
}

impl std::ops::BitOr for Rights {
    type Output = Rights;
    fn bitor(self, rhs: Rights) -> Rights {
        self.union(rhs)
    }
}

impl fmt::Display for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.covers(Rights::READ) {
            parts.push("read");
        }
        if self.covers(Rights::WRITE) {
            parts.push("write");
        }
        if self.covers(Rights::PURGE) {
            parts.push("purge");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        write!(f, "{}", parts.join("+"))
    }
}

/// An unforgeable-in-spirit token granting rights on one segment.
///
/// (In-process we cannot make it cryptographically unforgeable; the type
/// system makes it unforgeable by convention: the only constructors are
/// [`Registry::create`] and [`Capability::restrict`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    segment: String,
    rights: Rights,
    nonce: u64,
}

impl Capability {
    /// The segment this capability names.
    pub fn segment(&self) -> &str {
        &self.segment
    }

    /// The rights granted.
    pub fn rights(&self) -> Rights {
        self.rights
    }

    /// Derives a capability with a subset of this one's rights (rights
    /// amplification is impossible).
    #[must_use]
    pub fn restrict(&self, rights: Rights) -> Capability {
        Capability {
            segment: self.segment.clone(),
            rights: Rights(self.rights.0 & rights.0),
            nonce: self.nonce,
        }
    }
}

struct SegmentMeta {
    base: PageId,
    pages: u32,
    nonce: u64,
}

/// The cluster-wide segment name service.
///
/// One registry is shared (cloned) by every participant; in the original
/// system this state lived in the Mether servers.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

struct RegistryInner {
    segments: HashMap<String, SegmentMeta>,
    next_page: u32,
    max_pages: u32,
    next_nonce: u64,
}

impl Registry {
    /// An empty registry managing `max_pages` pages of address space.
    pub fn new(max_pages: u32) -> Registry {
        Registry {
            inner: Arc::new(Mutex::new(RegistryInner {
                segments: HashMap::new(),
                next_page: 0,
                max_pages,
                next_nonce: 1,
            })),
        }
    }

    /// Creates a named segment of `pages` pages and returns the segment
    /// plus its root capability (all rights).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the name exists or the address space
    /// is exhausted.
    pub fn create(&self, name: &str, pages: u32) -> Result<(Segment, Capability)> {
        let mut inner = lock(&self.inner);
        if inner.segments.contains_key(name) {
            return Err(Error::InvalidConfig(format!(
                "segment {name} already exists"
            )));
        }
        if pages == 0 || inner.next_page + pages > inner.max_pages {
            return Err(Error::InvalidConfig(format!(
                "cannot allocate {pages} pages for {name}"
            )));
        }
        let base = PageId::new(inner.next_page);
        inner.next_page += pages;
        let nonce = inner.next_nonce;
        inner.next_nonce += 1;
        inner
            .segments
            .insert(name.to_string(), SegmentMeta { base, pages, nonce });
        let cap = Capability {
            segment: name.to_string(),
            rights: Rights::ALL,
            nonce,
        };
        Ok((
            Segment {
                name: name.to_string(),
                base,
                pages,
                rights: Rights::ALL,
            },
            cap,
        ))
    }

    /// Opens an existing segment with `cap`.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for an unknown name,
    /// [`Error::PermissionDenied`] for a stale or mismatched capability.
    pub fn open(&self, cap: &Capability) -> Result<Segment> {
        let inner = lock(&self.inner);
        let meta = inner
            .segments
            .get(&cap.segment)
            .ok_or_else(|| Error::NotFound(cap.segment.clone()))?;
        if meta.nonce != cap.nonce {
            return Err(Error::PermissionDenied(format!(
                "capability for {} is stale",
                cap.segment
            )));
        }
        Ok(Segment {
            name: cap.segment.clone(),
            base: meta.base,
            pages: meta.pages,
            rights: cap.rights,
        })
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Registry(segments={})", lock(&self.inner).segments.len())
    }
}

/// An opened segment: a named range of Mether pages plus the rights the
/// opener holds on it.
#[derive(Debug, Clone)]
pub struct Segment {
    name: String,
    base: PageId,
    pages: u32,
    rights: Rights,
}

impl Segment {
    /// The segment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pages.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// The rights held on this segment.
    pub fn rights(&self) -> Rights {
        self.rights
    }

    /// The `i`-th page of the segment.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidAddress`] if `i` is out of range.
    pub fn page(&self, i: u32) -> Result<PageId> {
        if i >= self.pages {
            return Err(Error::InvalidAddress {
                reason: format!("page {i} of {}-page segment {}", self.pages, self.name),
            });
        }
        PageId::try_new(self.base.index() + i)
    }

    /// Builds an address into the segment, checking READ rights.
    ///
    /// # Errors
    ///
    /// [`Error::PermissionDenied`] without READ; address errors as
    /// [`VAddr::new`].
    pub fn addr(&self, page: u32, view: View, offset: u32) -> Result<VAddr> {
        if !self.rights.covers(Rights::READ) {
            return Err(Error::PermissionDenied(format!(
                "read of segment {}",
                self.name
            )));
        }
        VAddr::new(self.page(page)?, view, offset)
    }

    /// Checks that the holder may write.
    ///
    /// # Errors
    ///
    /// [`Error::PermissionDenied`] without WRITE.
    pub fn check_write(&self) -> Result<()> {
        if !self.rights.covers(Rights::WRITE) {
            return Err(Error::PermissionDenied(format!(
                "write of segment {}",
                self.name
            )));
        }
        Ok(())
    }

    /// Checks that the holder may purge.
    ///
    /// # Errors
    ///
    /// [`Error::PermissionDenied`] without PURGE.
    pub fn check_purge(&self) -> Result<()> {
        if !self.rights.covers(Rights::PURGE) {
            return Err(Error::PermissionDenied(format!(
                "purge of segment {}",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::View;

    #[test]
    fn create_open_round_trip() {
        let r = Registry::new(16);
        let (seg, cap) = r.create("matrix", 4).unwrap();
        assert_eq!(seg.pages(), 4);
        let opened = r.open(&cap).unwrap();
        assert_eq!(opened.name(), "matrix");
        assert_eq!(opened.page(0).unwrap(), seg.page(0).unwrap());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Registry::new(16);
        r.create("a", 1).unwrap();
        assert!(matches!(r.create("a", 1), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn address_space_exhaustion() {
        let r = Registry::new(4);
        r.create("a", 3).unwrap();
        assert!(r.create("b", 2).is_err());
        r.create("c", 1).unwrap();
    }

    #[test]
    fn unknown_capability_not_found() {
        let r = Registry::new(4);
        let other = Registry::new(4);
        let (_, cap) = other.create("x", 1).unwrap();
        assert!(matches!(r.open(&cap), Err(Error::NotFound(_))));
    }

    #[test]
    fn restricted_capability_cannot_write() {
        let r = Registry::new(4);
        let (_, cap) = r.create("data", 1).unwrap();
        let ro = cap.restrict(Rights::READ);
        let seg = r.open(&ro).unwrap();
        assert!(seg.addr(0, View::short_demand(), 0).is_ok());
        assert!(matches!(seg.check_write(), Err(Error::PermissionDenied(_))));
        assert!(matches!(seg.check_purge(), Err(Error::PermissionDenied(_))));
    }

    #[test]
    fn restrict_cannot_amplify() {
        let r = Registry::new(4);
        let (_, cap) = r.create("data", 1).unwrap();
        let ro = cap.restrict(Rights::READ);
        let back = ro.restrict(Rights::ALL);
        assert_eq!(
            back.rights(),
            Rights::READ,
            "restrict intersects, never adds"
        );
    }

    #[test]
    fn rights_display() {
        assert_eq!(Rights::ALL.to_string(), "read+write+purge");
        assert_eq!(Rights::NONE.to_string(), "none");
        assert_eq!((Rights::READ | Rights::PURGE).to_string(), "read+purge");
    }

    #[test]
    fn page_range_checked() {
        let r = Registry::new(8);
        let (seg, _) = r.create("s", 2).unwrap();
        assert!(seg.page(1).is_ok());
        assert!(seg.page(2).is_err());
    }
}
