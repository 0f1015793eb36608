//! `csend`/`crecv`: message passing over Mether pages (§3's sample user
//! protocol, Figure 3).
//!
//! A channel joins two nodes through two pages used as one-way links.
//! Each end permanently holds the consistent copy of *its own* page
//! ("leaving the write capability stationary") and sees the peer's page
//! as an inconsistent, read-only copy. The four header words implement
//! the generation handshake of [`mether_core::generation`]:
//!
//! * a send may proceed when the peer's `ReadGeneration` (seen through
//!   the inconsistent copy) has caught up with our `WriteGeneration`;
//! * a receive may proceed when the peer's `WriteGeneration` exceeds our
//!   `ReadGeneration`.
//!
//! Waiting follows the paper's final-protocol recipe verbatim: check the
//! demand-driven short copy; if stale, purge and check again; if still
//! stale, block on the data-driven short view until the peer's purge
//! broadcast arrives ([`SyncCell::wait_until`], which also covers a
//! publish that lands between the check and the purge). Payloads up to
//! 16 bytes ride inside the short page ("if the amount of data is less
//! than 32 bytes then the short page can be accessed with a
//! corresponding performance improvement"); larger payloads switch both
//! the broadcast and the read to the full-page view.
//!
//! The protocol "is absolutely symmetric; a write or read from either
//! end proceeds in the exact same way" — a [`ChannelEnd`] can both send
//! and receive, which is also what makes it the §5 *pipe*: creating a
//! pipe returns a read pointer and a write pointer onto the same pair of
//! pages.

use crate::sync::SyncCell;
use mether_core::generation::{
    fits_short_page, read_may_proceed, write_may_proceed, ChannelHeader,
};
use mether_core::{Error, MapMode, PageId, PageLength, Result, VAddr, View, PAGE_SIZE};
use mether_runtime::Node;
use std::time::{Duration, Instant};

/// Maximum payload of one message.
pub const MAX_PAYLOAD: usize = PAGE_SIZE - ChannelHeader::INLINE_DATA;

/// One end of a Mether channel (equivalently: one end of a §5 pipe).
#[derive(Debug, Clone)]
pub struct ChannelEnd {
    my_page: PageId,
    peer_page: PageId,
    timeout: Duration,
}

impl ChannelEnd {
    /// Builds this end over `my_page` (created and held consistent on
    /// `node`) and the peer's `peer_page`.
    ///
    /// Performs the paper's "Deal Me In" initialisation: the stale
    /// inconsistent copy of the peer's page (if any) is purged so the
    /// first access fetches fresh state.
    ///
    /// # Errors
    ///
    /// Propagates purge errors from the runtime.
    pub fn create(node: &Node, my_page: PageId, peer_page: PageId) -> Result<ChannelEnd> {
        node.create_owned(my_page);
        let end = ChannelEnd {
            my_page,
            peer_page,
            timeout: Duration::from_secs(30),
        };
        // Deal Me In: "a part of the initialization code purges the
        // current copy of the inconsistent page, so that an up-to-date
        // one will be accessed."
        node.purge(peer_page, MapMode::ReadOnly, PageLength::Short)?;
        Ok(end)
    }

    /// Overrides the blocking timeout (default 30 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> ChannelEnd {
        self.timeout = timeout;
        self
    }

    /// The page this end writes.
    pub fn my_page(&self) -> PageId {
        self.my_page
    }

    /// The page this end reads.
    pub fn peer_page(&self) -> PageId {
        self.peer_page
    }

    fn my(&self, offset: usize) -> VAddr {
        VAddr::new(self.my_page, View::short_demand(), offset as u32)
            .expect("header fits the short view")
    }

    /// A header word of the peer's page, read and waited on as a cell.
    fn peer(&self, offset: usize) -> SyncCell {
        SyncCell::new(self.peer_page, offset as u32)
    }

    /// Sends one message (the paper's `csend`).
    ///
    /// Blocks until the receiver has consumed the previous message, then
    /// publishes: "The writer locks the page, fills in the data, sets the
    /// WriteDataSize, increments the WriteGeneration counter, and issues
    /// a purge."
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `data` exceeds [`MAX_PAYLOAD`];
    /// [`Error::Timeout`] if the receiver never catches up.
    pub fn csend(&self, node: &Node, data: &[u8]) -> Result<()> {
        if data.len() > MAX_PAYLOAD {
            return Err(Error::InvalidConfig(format!(
                "message of {} bytes exceeds the {MAX_PAYLOAD}-byte channel maximum",
                data.len()
            )));
        }
        let wgen = node.read_u32(self.my(ChannelHeader::WRITE_GEN), MapMode::Writeable)?;
        let deadline = Instant::now() + self.timeout;
        self.peer(ChannelHeader::READ_GEN).wait_until(
            node,
            |rg| write_may_proceed(wgen, rg),
            deadline,
        )?;

        let fits = fits_short_page(data.len());
        node.lock(self.my_page, PageLength::Full)?;
        let write_addr = VAddr::new(
            self.my_page,
            if fits {
                View::short_demand()
            } else {
                View::full_demand()
            },
            ChannelHeader::INLINE_DATA as u32,
        )?;
        if !data.is_empty() {
            node.write_bytes(write_addr, data)?;
        }
        node.write_u32(self.my(ChannelHeader::WRITE_SIZE), data.len() as u32)?;
        node.write_u32(self.my(ChannelHeader::WRITE_GEN), wgen + 1)?;
        node.unlock(self.my_page)?;
        node.purge(
            self.my_page,
            MapMode::Writeable,
            if fits {
                PageLength::Short
            } else {
                PageLength::Full
            },
        )
    }

    /// Receives one message into `buf`, returning its length (the
    /// paper's `crecv`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `buf` is too small for the message;
    /// [`Error::Timeout`] if no message arrives in time.
    pub fn crecv(&self, node: &Node, buf: &mut [u8]) -> Result<usize> {
        let deadline = Instant::now() + self.timeout;
        let rgen = node.read_u32(self.my(ChannelHeader::READ_GEN), MapMode::Writeable)?;
        self.peer(ChannelHeader::WRITE_GEN).wait_until(
            node,
            |wg| read_may_proceed(wg, rgen),
            deadline,
        )?;
        let left = || deadline.saturating_duration_since(Instant::now());
        let size = self.peer(ChannelHeader::WRITE_SIZE).get(node, left())? as usize;
        if size > buf.len() {
            return Err(Error::InvalidConfig(format!(
                "message of {size} bytes does not fit caller buffer of {}",
                buf.len()
            )));
        }
        if size > 0 {
            // "Note that if the amount of data to be copied out is larger
            // than the short page the reader must access the full-page
            // view."
            let view = if fits_short_page(size) {
                View::short_demand()
            } else {
                View::full_demand()
            };
            let addr = VAddr::new(self.peer_page, view, ChannelHeader::INLINE_DATA as u32)?;
            node.read_bytes_timeout(addr, MapMode::ReadOnly, &mut buf[..size], left())?;
        }
        node.write_u32(self.my(ChannelHeader::READ_SIZE), size as u32)?;
        node.write_u32(self.my(ChannelHeader::READ_GEN), rgen + 1)?;
        node.purge(self.my_page, MapMode::Writeable, PageLength::Short)?;
        Ok(size)
    }

    /// Convenience: receive into an owned buffer.
    ///
    /// # Errors
    ///
    /// As [`ChannelEnd::crecv`].
    pub fn crecv_vec(&self, node: &Node) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; MAX_PAYLOAD];
        let n = self.crecv(node, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }
}

/// Creates a connected pair of channel ends over `pages` (two pages),
/// one end per node. Returns `(end_a, end_b)` where `end_a` lives on
/// `node_a`.
///
/// # Errors
///
/// Propagates creation errors.
pub fn channel_pair(
    node_a: &Node,
    node_b: &Node,
    page_a: PageId,
    page_b: PageId,
) -> Result<(ChannelEnd, ChannelEnd)> {
    let a = ChannelEnd::create(node_a, page_a, page_b)?;
    let b = ChannelEnd::create(node_b, page_b, page_a)?;
    Ok((a, b))
}
