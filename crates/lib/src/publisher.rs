//! One-to-many publication over a single Mether page.
//!
//! The broadcast nature of Mether makes one-writer/many-reader
//! distribution almost free: the publisher writes a sequence number,
//! length, and payload into its page and purges; *every* subscriber's
//! inconsistent copy refreshes off the same broadcast packet, no matter
//! how many subscribers exist — the paper's snoopy-refresh property
//! turned into an API. Payloads that fit the short page (≤ 24 bytes
//! here, after the 8-byte header) travel as 32-byte packets.
//!
//! Unlike a [`crate::ChannelEnd`], there is no flow control: a slow
//! subscriber simply misses intermediate versions (it always sees the
//! newest). That is the semantics a display refresher or a status board
//! wants — and it is exactly the "inconsistent store" philosophy of §3.

use crate::sync::SyncCell;
use mether_core::{Error, MapMode, PageId, PageLength, Result, VAddr, View, PAGE_SIZE};
use mether_runtime::Node;
use std::time::{Duration, Instant};

const SEQ: u32 = 0;
const LEN: u32 = 4;
const DATA: u32 = 8;

/// Largest payload a publication can carry.
pub const MAX_ITEM: usize = PAGE_SIZE - DATA as usize;

/// Payload size that still fits the 32-byte short page.
pub const SHORT_ITEM: usize = mether_core::SHORT_PAGE_SIZE - DATA as usize;

/// The writing side: owns the page.
#[derive(Debug, Clone, Copy)]
pub struct Publisher {
    page: PageId,
    seq: u32,
}

impl Publisher {
    /// Creates the publication page on `node`.
    pub fn create(node: &Node, page: PageId) -> Publisher {
        node.create_owned(page);
        Publisher { page, seq: 0 }
    }

    /// The sequence number of the last publication.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Publishes `item`: one write sequence plus one purge broadcast.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `item` exceeds [`MAX_ITEM`].
    pub fn publish(&mut self, node: &Node, item: &[u8]) -> Result<u32> {
        if item.len() > MAX_ITEM {
            return Err(Error::InvalidConfig(format!(
                "item of {} bytes exceeds the {MAX_ITEM}-byte maximum",
                item.len()
            )));
        }
        let fits_short = item.len() <= SHORT_ITEM;
        let view = if fits_short {
            View::short_demand()
        } else {
            View::full_demand()
        };
        self.seq += 1;
        if !item.is_empty() {
            node.write_bytes(VAddr::new(self.page, view, DATA)?, item)?;
        }
        node.write_u32(
            VAddr::new(self.page, View::short_demand(), LEN)?,
            item.len() as u32,
        )?;
        node.write_u32(VAddr::new(self.page, View::short_demand(), SEQ)?, self.seq)?;
        node.purge(
            self.page,
            MapMode::Writeable,
            if fits_short {
                PageLength::Short
            } else {
                PageLength::Full
            },
        )?;
        Ok(self.seq)
    }
}

/// A reading side: sees the newest publication, possibly skipping
/// intermediate ones.
#[derive(Debug, Clone, Copy)]
pub struct Subscriber {
    page: PageId,
    last_seq: u32,
    timeout: Duration,
}

impl Subscriber {
    /// Attaches to the publication on `page`.
    pub fn new(page: PageId) -> Subscriber {
        Subscriber {
            page,
            last_seq: 0,
            timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the wait timeout (default 30 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Subscriber {
        self.timeout = timeout;
        self
    }

    /// Sequence number of the last item this subscriber consumed.
    pub fn last_seq(&self) -> u32 {
        self.last_seq
    }

    /// Blocks until a publication newer than the last consumed one is
    /// visible, then returns `(seq, payload)`. Intermediate publications
    /// may be skipped; the newest wins.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if nothing new is published in time.
    pub fn next(&mut self, node: &Node) -> Result<(u32, Vec<u8>)> {
        let last = self.last_seq;
        let seq = SyncCell::new(self.page, SEQ).wait_until(
            node,
            |s| s > last,
            Instant::now() + self.timeout,
        )?;
        let item = self.item(node)?;
        self.last_seq = seq;
        Ok((seq, item))
    }

    /// Non-waiting peek at the current publication, however stale the
    /// local copy is (the cheap inconsistent read of §3).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if no copy is present and the fetch times out.
    pub fn peek(&self, node: &Node) -> Result<(u32, Vec<u8>)> {
        let seq = node.read_u32_timeout(
            VAddr::new(self.page, View::short_demand(), SEQ)?,
            MapMode::ReadOnly,
            self.timeout,
        )?;
        Ok((seq, self.item(node)?))
    }

    /// The payload of the publication the local copy holds: its length,
    /// then that many bytes through the view they fit.
    fn item(&self, node: &Node) -> Result<Vec<u8>> {
        let len = node.read_u32_timeout(
            VAddr::new(self.page, View::short_demand(), LEN)?,
            MapMode::ReadOnly,
            self.timeout,
        )? as usize;
        let mut buf = vec![0u8; len];
        if len > 0 {
            let view = if len <= SHORT_ITEM {
                View::short_demand()
            } else {
                View::full_demand()
            };
            node.read_bytes_timeout(
                VAddr::new(self.page, view, DATA)?,
                MapMode::ReadOnly,
                &mut buf,
                self.timeout,
            )?;
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_runtime::{Cluster, ClusterConfig};
    use std::sync::Arc;

    #[test]
    fn one_publisher_two_subscribers_one_packet() {
        let c = Arc::new(Cluster::new(ClusterConfig::fast(3)).unwrap());
        let page = PageId::new(0);
        let mut publisher = Publisher::create(c.node(0), page);

        let mut handles = Vec::new();
        for rank in 1..3usize {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut sub = Subscriber::new(page);
                let (seq, item) = sub.next(c.node(rank)).unwrap();
                (seq, item)
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        let before = c.net_stats().data_packets;
        publisher.publish(c.node(0), b"status: green").unwrap();
        for h in handles {
            let (seq, item) = h.join().unwrap();
            assert_eq!(seq, 1);
            assert_eq!(item, b"status: green");
        }
        let after = c.net_stats().data_packets;
        assert!(
            after - before <= 2,
            "both subscribers served by the broadcast, not per-reader fetches: {}",
            after - before
        );
    }

    #[test]
    fn slow_subscriber_converges_on_newest() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(0);
        let mut publisher = Publisher::create(c.node(0), page);
        for i in 1..=5u32 {
            publisher
                .publish(c.node(0), format!("v{i}").as_bytes())
                .unwrap();
        }
        // The subscriber may observe a broadcast still in flight (it is
        // an inconsistent store), but each next() is strictly newer and
        // it converges on the newest publication without the publisher
        // doing anything further.
        let mut sub = Subscriber::new(page);
        let mut last = 0;
        let mut item = Vec::new();
        while last < 5 {
            let (seq, it) = sub.next(c.node(1)).unwrap();
            assert!(
                seq > last,
                "each delivery strictly newer: {seq} after {last}"
            );
            last = seq;
            item = it;
        }
        assert_eq!(item, b"v5");
    }

    #[test]
    fn large_item_travels_as_full_page() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(0);
        let mut publisher = Publisher::create(c.node(0), page);
        let item: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        publisher.publish(c.node(0), &item).unwrap();
        let mut sub = Subscriber::new(page);
        let (_, got) = sub.next(c.node(1)).unwrap();
        assert_eq!(got, item);
    }

    #[test]
    fn peek_returns_stale_copies_cheaply() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(0);
        let mut publisher = Publisher::create(c.node(0), page);
        publisher.publish(c.node(0), b"one").unwrap();
        let sub = Subscriber::new(page);
        let (s1, _) = sub.peek(c.node(1)).unwrap();
        assert_eq!(s1, 1);
        publisher.publish(c.node(0), b"two").unwrap();
        // peek may return 1 (stale) or 2 (snoop-refreshed): both are
        // legal inconsistent reads; it must never block.
        let (s2, _) = sub.peek(c.node(1)).unwrap();
        assert!(s2 == 1 || s2 == 2);
    }

    #[test]
    fn oversized_item_rejected() {
        let c = Cluster::new(ClusterConfig::fast(1)).unwrap();
        let mut publisher = Publisher::create(c.node(0), PageId::new(0));
        let too_big = vec![0u8; MAX_ITEM + 1];
        assert!(publisher.publish(c.node(0), &too_big).is_err());
    }
}
