//! Threaded in-process Mether runtime: real blocking hosts over a
//! simulated broadcast LAN.
//!
//! Where `mether-sim` reproduces the paper's *numbers* in virtual time,
//! this crate proves the protocols are real, runnable code: every node
//! drives the identical [`mether_core::PageTable`] state machine, but
//! faults block actual threads, packets cross an actual (in-process)
//! broadcast segment as encoded datagrams, and the data-driven views make
//! real readers sleep until a page transits the wire.
//!
//! See [`Cluster`] for the entry point and `mether-lib` for the §5
//! convenience layer (named segments, pipes, `csend`/`crecv`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fault;
mod node;

pub use cluster::{Cluster, ClusterConfig};
pub use fault::FaultPlan;
pub use node::Node;

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::{MapMode, PageId, PageLength, VAddr, View};
    use mether_net::rt::lock;
    use std::time::{Duration, Instant};

    fn two() -> Cluster {
        Cluster::new(ClusterConfig::fast(2)).unwrap()
    }

    #[test]
    fn local_read_write_round_trip() {
        let c = two();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 7).unwrap();
        assert_eq!(c.node(0).read_u32(addr, MapMode::Writeable).unwrap(), 7);
    }

    #[test]
    fn remote_demand_read_fetches_copy() {
        let c = two();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 4).unwrap();
        c.node(0).write_u32(addr, 99).unwrap();
        let v = c
            .node(1)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_secs(5))
            .unwrap();
        assert_eq!(v, 99);
        assert!(
            c.node(0).is_consistent_holder(page),
            "read-only fetch does not move consistency"
        );
    }

    #[test]
    fn remote_write_moves_consistency() {
        let c = two();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(1).write_u32(addr, 5).unwrap();
        assert!(c.node(1).is_consistent_holder(page));
        assert!(!c.node(0).is_consistent_holder(page));
        assert_eq!(c.node(1).read_u32(addr, MapMode::Writeable).unwrap(), 5);
    }

    #[test]
    fn data_driven_read_blocks_until_purge_broadcast() {
        let c = std::sync::Arc::new(two());
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let data_addr = VAddr::new(page, View::short_data(), 0).unwrap();
        let demand_addr = VAddr::new(page, View::short_demand(), 0).unwrap();

        let c2 = std::sync::Arc::clone(&c);
        let reader = std::thread::spawn(move || {
            c2.node(1)
                .read_u32_timeout(data_addr, MapMode::ReadOnly, Duration::from_secs(10))
        });
        // Give the reader time to block, then publish.
        std::thread::sleep(Duration::from_millis(100));
        c.node(0).write_u32(demand_addr, 1234).unwrap();
        c.node(0)
            .purge(page, MapMode::Writeable, PageLength::Short)
            .unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), 1234);
    }

    #[test]
    fn data_driven_read_times_out_without_publisher() {
        let c = two();
        let page = PageId::new(3);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_data(), 0).unwrap();
        let err = c
            .node(1)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(150))
            .unwrap_err();
        assert_eq!(err, mether_core::Error::Timeout);
        // A data wait sends nothing, so there is nothing to re-send.
        assert_eq!(c.net_stats().requests, 0);
    }

    #[test]
    fn ro_purge_then_refetch_sees_new_value() {
        let c = two();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 1).unwrap();
        assert_eq!(c.node(1).read_u32(addr, MapMode::ReadOnly).unwrap(), 1);
        // Holder updates; node 1's inconsistent copy is stale until purged.
        c.node(0).write_u32(addr, 2).unwrap();
        c.node(1)
            .purge(page, MapMode::ReadOnly, PageLength::Short)
            .unwrap();
        assert_eq!(c.node(1).read_u32(addr, MapMode::ReadOnly).unwrap(), 2);
    }

    #[test]
    fn lock_defers_transfer_until_unlock() {
        let c = std::sync::Arc::new(two());
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        c.node(0).lock(page, PageLength::Short).unwrap();

        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        let c2 = std::sync::Arc::clone(&c);
        let writer = std::thread::spawn(move || c2.node(1).write_u32(addr, 9));
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            c.node(0).is_consistent_holder(page),
            "transfer deferred while locked"
        );
        c.node(0).unlock(page).unwrap();
        writer.join().unwrap().unwrap();
        assert!(c.node(1).is_consistent_holder(page));
    }

    /// A copy nobody reads between two refreshes still takes the
    /// second: the receiver installs what the NIC rule drops as
    /// `NicDrop::Unread` (see `Node::start`). Node 1 reads page 0 once,
    /// then only watches its table under the driver lock, which marks
    /// nothing read, while node 0 writes and purges twice.
    #[test]
    fn an_unread_copy_still_takes_every_refresh() {
        let c = two();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        let read = c
            .node(1)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_secs(5));
        assert_eq!(read, Ok(0));
        for word in [1, 2] {
            c.node(0).write_u32(addr, word).unwrap();
            c.node(0)
                .purge(page, MapMode::Writeable, PageLength::Short)
                .unwrap();
        }
        let generation = |n: usize| lock(&c.node(n).inner.driver).generation(page);
        let deadline = Instant::now() + Duration::from_secs(2);
        while generation(1) != generation(0) {
            assert!(Instant::now() < deadline, "node 1 missed a refresh");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.node(1).read_u32(addr, MapMode::ReadOnly), Ok(2));
    }

    /// Runs `f(thread)` on `threads` threads that start each of `rounds`
    /// rounds together, so their faults are in flight at once.
    fn in_lockstep(threads: usize, rounds: u32, f: impl Fn(usize) + Sync) {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (start, f) = (&start, &f);
                s.spawn(move || {
                    for _ in 0..rounds {
                        start.wait();
                        f(t);
                    }
                });
            }
        });
    }

    /// Each node's only application thread blocks on a page homed at the
    /// other node. While a thread is blocked it receives for its node, so
    /// each one must serve the other's request for its reply to come.
    #[test]
    fn crossed_faults_are_served_by_the_blocked_accessors() {
        let c = two();
        let pages = [PageId::new(0), PageId::new(1)];
        let addr = |n: usize| VAddr::new(pages[n], View::short_demand(), 0).unwrap();
        for (n, &page) in pages.iter().enumerate() {
            c.node(n).create_owned(page);
            c.node(n).write_u32(addr(n), 100 + n as u32).unwrap();
        }
        in_lockstep(2, 200, |me| {
            let other = 1 - me;
            let read =
                c.node(me)
                    .read_u32_timeout(addr(other), MapMode::ReadOnly, Duration::from_secs(5));
            assert_eq!(read, Ok(100 + other as u32));
            c.node(me)
                .purge(pages[other], MapMode::ReadOnly, PageLength::Short)
                .unwrap();
        });
    }

    /// Two accessor threads of one node block on two different remote
    /// pages: whichever receives the other's reply hands it over.
    #[test]
    fn two_blocked_accessors_of_one_node_each_read_their_page() {
        let c = two();
        let pages = [PageId::new(0), PageId::new(1)];
        let addr = |t: usize| VAddr::new(pages[t], View::short_demand(), 8).unwrap();
        for (t, &page) in pages.iter().enumerate() {
            c.node(0).create_owned(page);
            c.node(0).write_u32(addr(t), 7_000 + t as u32).unwrap();
        }
        in_lockstep(2, 200, |t| {
            let read =
                c.node(1)
                    .read_u32_timeout(addr(t), MapMode::ReadOnly, Duration::from_secs(5));
            assert_eq!(read, Ok(7_000 + t as u32));
            c.node(1)
                .purge(pages[t], MapMode::ReadOnly, PageLength::Short)
                .unwrap();
        });
    }

    #[test]
    fn counting_to_64_over_the_final_protocol() {
        // The paper's final protocol, on real threads: two nodes, two
        // one-way pages, data-driven readers.
        let c = std::sync::Arc::new(two());
        let pages = [PageId::new(0), PageId::new(1)];
        c.node(0).create_owned(pages[0]);
        c.node(1).create_owned(pages[1]);
        let target = 64u32;

        let mut handles = Vec::new();
        for me in 0..2usize {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let my_page = pages[me];
                let other_page = pages[1 - me];
                let my_addr = VAddr::new(my_page, View::short_demand(), 0).unwrap();
                let other_demand = VAddr::new(other_page, View::short_demand(), 0).unwrap();
                let other_data = VAddr::new(other_page, View::short_data(), 0).unwrap();
                let mut last = 0u32;
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    if last >= target {
                        return last;
                    }
                    assert!(Instant::now() < deadline, "the count stalled at {last}");
                    if last % 2 == me as u32 {
                        c.node(me).write_u32(my_addr, last + 1).unwrap();
                        c.node(me)
                            .purge(my_page, MapMode::Writeable, PageLength::Short)
                            .unwrap();
                        last += 1;
                        continue;
                    }
                    // Reader: demand check, purge, then block data-driven.
                    let v = c
                        .node(me)
                        .read_u32_timeout(other_demand, MapMode::ReadOnly, Duration::from_secs(10))
                        .unwrap();
                    if v > last {
                        last = v;
                        continue;
                    }
                    c.node(me)
                        .purge(other_page, MapMode::ReadOnly, PageLength::Short)
                        .unwrap();
                    // Block data-driven, bounded: a publish handled
                    // between the demand check and the purge is gone with
                    // the purged copy, and only the next demand check
                    // sees it (mether-lib's channels loop back the same
                    // way). The writer publishes nothing more until this
                    // reader answers, so that wait ends with no copy
                    // here; a copy present at the timeout arrived while
                    // the reader slept, and its wake-up was lost.
                    let window = Duration::from_millis(500);
                    match c
                        .node(me)
                        .read_u32_timeout(other_data, MapMode::ReadOnly, window)
                    {
                        Ok(v) if v > last => last = v,
                        Ok(_) => {}
                        Err(mether_core::Error::Timeout) => {
                            let driver = lock(&c.node(me).inner.driver);
                            assert!(
                                driver.page_buf(other_page).is_none(),
                                "the count reached {last}: a reader slept through its data"
                            );
                        }
                        Err(e) => panic!("data-driven read failed: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), target);
        }
    }
}
