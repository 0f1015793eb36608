//! A distributed barrier over Mether pages.
//!
//! One of the "other operations to make use of Mether convenient for
//! programmers" (§5). Each participant owns one page and publishes its
//! epoch counter there with the final protocol (write + purge — one
//! broadcast packet); arriving at the barrier means publishing your new
//! epoch and then waiting, data-driven, until every peer's page shows at
//! least that epoch. No coordinator, no request traffic in the steady
//! state: exactly `n` broadcast packets per barrier crossing.

use crate::sync::SyncCell;
use mether_core::{PageId, Result};
use mether_runtime::Node;
use std::time::{Duration, Instant};

/// One participant's handle on a distributed barrier.
#[derive(Debug, Clone)]
pub struct Barrier {
    my_cell: SyncCell,
    peer_cells: Vec<SyncCell>,
    epoch: u32,
    timeout: Duration,
}

impl Barrier {
    /// Joins a barrier as the owner of `pages[rank]`, with every other
    /// page belonging to one peer. The rank-`rank` page is created on
    /// `node`; all participants must use the same page list in the same
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn join(node: &Node, pages: &[PageId], rank: usize) -> Barrier {
        assert!(
            rank < pages.len(),
            "rank {rank} out of range for {} pages",
            pages.len()
        );
        let my_cell = SyncCell::new(pages[rank], 0);
        my_cell.create_on(node);
        let peer_cells = pages
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != rank)
            .map(|(_, &p)| SyncCell::new(p, 0))
            .collect();
        Barrier {
            my_cell,
            peer_cells,
            epoch: 0,
            timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the wait timeout (default 30 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Barrier {
        self.timeout = timeout;
        self
    }

    /// The barrier epoch this participant has completed.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Arrives at the barrier and blocks until every participant has too.
    ///
    /// # Errors
    ///
    /// [`mether_core::Error::Timeout`] if a peer never arrives.
    pub fn wait(&mut self, node: &Node) -> Result<()> {
        self.epoch += 1;
        self.my_cell.publish(node, self.epoch)?;
        let deadline = Instant::now() + self.timeout;
        for cell in &self.peer_cells {
            cell.wait_until(node, |v| v >= self.epoch, deadline)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_runtime::{Cluster, ClusterConfig};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn three_nodes_cross_ten_epochs_in_lockstep() {
        let n = 3;
        let c = Arc::new(Cluster::new(ClusterConfig::fast(n)).unwrap());
        let pages: Vec<PageId> = (0..n as u32).map(PageId::new).collect();
        let max_seen = Arc::new(AtomicU32::new(0));
        let min_done = Arc::new(AtomicU32::new(0));

        let mut handles = Vec::new();
        for rank in 0..n {
            let c = Arc::clone(&c);
            let pages = pages.clone();
            let max_seen = Arc::clone(&max_seen);
            let min_done = Arc::clone(&min_done);
            handles.push(std::thread::spawn(move || {
                let mut barrier = Barrier::join(c.node(rank), &pages, rank);
                for epoch in 1..=10u32 {
                    barrier.wait(c.node(rank)).unwrap();
                    // Lockstep property: when any thread finishes epoch e,
                    // no thread can have started epoch e+2; i.e. the max
                    // epoch seen anywhere is at most min_done + 1.
                    let prev_max = max_seen.fetch_max(epoch, Ordering::SeqCst).max(epoch);
                    let done = min_done.load(Ordering::SeqCst);
                    assert!(
                        prev_max <= done + 2,
                        "barrier skew: epoch {prev_max} seen while slowest at {done}"
                    );
                    if epoch > done {
                        min_done.fetch_max(epoch - 1, Ordering::SeqCst);
                    }
                }
                barrier.epoch()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 10);
        }
    }

    #[test]
    fn barrier_times_out_without_peers() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let pages = vec![PageId::new(0), PageId::new(1)];
        let mut barrier =
            Barrier::join(c.node(0), &pages, 0).with_timeout(Duration::from_millis(300));
        // Nobody owns page 1, nobody arrives: timeout.
        assert_eq!(
            barrier.wait(c.node(0)).unwrap_err(),
            mether_core::Error::Timeout
        );
    }

    #[test]
    #[should_panic(expected = "rank 2 out of range")]
    fn join_checks_rank() {
        let c = Cluster::new(ClusterConfig::fast(1)).unwrap();
        let _ = Barrier::join(c.node(0), &[PageId::new(0), PageId::new(1)], 2);
    }
}
