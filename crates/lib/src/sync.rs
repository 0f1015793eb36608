//! `SyncCell`: the final protocol (§4, Figure 9) packaged as a one-word
//! synchronisation primitive.
//!
//! A publisher owns a page and publishes successive values of one word;
//! watchers on other nodes wait for a value newer than the last they saw,
//! sleeping data-driven between purge broadcasts — "a process is either
//! incrementing the variable, checking the variable once or twice, or
//! sleeping on a new version of the variable."
//!
//! [`SyncCell::wait_until`] is the library's one such wait: channels,
//! barriers and subscribers all wait through it.

use mether_core::{Error, MapMode, PageId, PageLength, Result, VAddr, View};
use mether_runtime::Node;
use std::time::{Duration, Instant};

/// A one-word publish/watch cell on a Mether page.
#[derive(Debug, Clone, Copy)]
pub struct SyncCell {
    page: PageId,
    offset: u32,
}

impl SyncCell {
    /// Binds a cell to word `offset` of `page` (must be inside the short
    /// page so publishes travel as 32-byte broadcasts).
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in the short view.
    pub fn new(page: PageId, offset: u32) -> SyncCell {
        assert!(
            (offset as usize) + 4 <= mether_core::SHORT_PAGE_SIZE,
            "cell must live in the short page"
        );
        SyncCell { page, offset }
    }

    /// Creates the backing page on the publisher's node.
    pub fn create_on(&self, node: &Node) {
        node.create_owned(self.page);
    }

    /// Publishes `value`: write through the consistent short view, then
    /// purge (one broadcast packet — the final protocol's entire cost).
    ///
    /// # Errors
    ///
    /// Runtime errors (the publisher must hold the consistent copy).
    pub fn publish(&self, node: &Node, value: u32) -> Result<()> {
        let addr = VAddr::new(self.page, View::short_demand(), self.offset)?;
        node.write_u32(addr, value)?;
        node.purge(self.page, MapMode::Writeable, PageLength::Short)
    }

    /// Reads the current (possibly stale) value through the inconsistent
    /// demand view.
    ///
    /// # Errors
    ///
    /// [`mether_core::Error::Timeout`] if the fetch times out.
    pub fn get(&self, node: &Node, timeout: Duration) -> Result<u32> {
        let addr = VAddr::new(self.page, View::short_demand(), self.offset)?;
        node.read_u32_timeout(addr, MapMode::ReadOnly, timeout)
    }

    /// Waits until the cell holds a value different from `last` and
    /// returns it ([`SyncCell::wait_until`]).
    ///
    /// # Errors
    ///
    /// [`mether_core::Error::Timeout`] if nothing is published in time.
    pub fn wait_change(&self, node: &Node, last: u32, timeout: Duration) -> Result<u32> {
        self.wait_until(node, |v| v != last, Instant::now() + timeout)
    }

    /// Waits until `pred` holds on the cell and returns the value, with
    /// the final protocol's wait: a demand check, then a purge, then a
    /// data-driven block for the next publish.
    ///
    /// The block lasts one [`Node::fault_timeout`] at most, then the
    /// demand check runs again. That check sees a publish that landed
    /// between the last check and the purge (its broadcast refreshed the
    /// copy the purge then dropped), and one whose broadcast was lost.
    /// A lost request or reply the node re-sends itself.
    ///
    /// # Errors
    ///
    /// [`mether_core::Error::Timeout`] if `pred` does not hold by
    /// `deadline`.
    pub fn wait_until(
        &self,
        node: &Node,
        pred: impl Fn(u32) -> bool,
        deadline: Instant,
    ) -> Result<u32> {
        let data = VAddr::new(self.page, View::short_data(), self.offset)?;
        let remaining = || deadline.saturating_duration_since(Instant::now());
        loop {
            let v = self.get(node, remaining())?;
            if pred(v) {
                return Ok(v);
            }
            if remaining().is_zero() {
                return Err(Error::Timeout);
            }
            node.purge(self.page, MapMode::ReadOnly, PageLength::Short)?;
            let block = node.fault_timeout().min(remaining());
            match node.read_u32_timeout(data, MapMode::ReadOnly, block) {
                Ok(v) if pred(v) => return Ok(v),
                Ok(_) | Err(Error::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }
}
