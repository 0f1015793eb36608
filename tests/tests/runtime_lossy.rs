//! Failure injection: the threaded runtime and the channel layer over a
//! lossy LAN.
//!
//! The paper's motivation for abandoning global consistency was "the
//! comparatively low reliability of the network we are using". The raw
//! Mether protocols have no acknowledgements; a node re-sends the
//! request of a fault that got no reply within its retransmission
//! timeout, so a bare read is live over drops, and `csend`/`crecv` ride
//! on that with no retry loop of their own. These tests inject frame
//! loss and assert that reads, writes and the channel still complete,
//! in order, and that a lossless exchange re-sends nothing.

use mether_core::{MapMode, PageId, VAddr, View};
use mether_lib::channel_pair;
use mether_net::rt::LanConfig;
use mether_runtime::{Cluster, ClusterConfig};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn lossy_cluster(loss: f64, seed: u64) -> Arc<Cluster> {
    let cfg = ClusterConfig {
        lan: LanConfig::fast().with_loss(loss, seed),
        ..ClusterConfig::fast(2)
    };
    Arc::new(Cluster::new(cfg).unwrap())
}

#[test]
fn channel_survives_10_percent_loss() {
    let c = lossy_cluster(0.10, 42);
    let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
    let a = a.with_timeout(Duration::from_secs(30));
    let b = b.with_timeout(Duration::from_secs(30));

    let c2 = Arc::clone(&c);
    let receiver = std::thread::spawn(move || {
        (0..40u32)
            .map(|_| {
                let v = b.crecv_vec(c2.node(1)).unwrap();
                u32::from_le_bytes(v.try_into().unwrap())
            })
            .collect::<Vec<u32>>()
    });
    for i in 0..40u32 {
        a.csend(c.node(0), &i.to_le_bytes()).unwrap();
    }
    assert_eq!(receiver.join().unwrap(), (0..40).collect::<Vec<u32>>());
    let stats = c.net_stats();
    assert!(
        stats.lost > 0,
        "the loss injection must actually have dropped frames"
    );
}

#[test]
fn channel_survives_30_percent_loss() {
    let c = lossy_cluster(0.30, 7);
    let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
    let a = a.with_timeout(Duration::from_secs(60));
    let b = b.with_timeout(Duration::from_secs(60));

    let c2 = Arc::clone(&c);
    let receiver = std::thread::spawn(move || b.crecv_vec(c2.node(1)).unwrap());
    a.csend(c.node(0), b"survives heavy loss").unwrap();
    assert_eq!(receiver.join().unwrap(), b"survives heavy loss");
}

#[test]
fn a_bare_demand_read_survives_25_percent_loss() {
    // One read, no retry loop around it: a lost request or reply is
    // re-sent by the node at its retransmission timeout.
    for seed in 0..20 {
        let c = lossy_cluster(0.25, seed);
        let page = PageId::new(4);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 5).unwrap();
        let read = c
            .node(1)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_secs(2));
        assert_eq!(read, Ok(5), "seed {seed}");
    }
}

#[test]
fn a_remote_write_re_sends_its_lost_request() {
    // Every frame is lost until the first request is; then the LAN
    // heals and only the write's own re-send can fetch the consistent
    // copy. (Uniform loss would also drop grants: a lost grant leaves
    // the page with no consistent holder, which no re-send recovers, on
    // either engine.)
    let c = lossy_cluster(0.0, 0);
    let page = PageId::new(4);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.set_loss(0, 1.0);
    let (tx, rx) = mpsc::channel();
    let writer = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || tx.send(c.node(1).write_u32(addr, 7)).unwrap())
    };
    while c.net_stats().lost == 0 {
        std::thread::yield_now();
    }
    c.set_loss(0, 0.0);
    assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(Ok(())));
    writer.join().unwrap();
    assert!(c.node(1).is_consistent_holder(page));
    assert!(c.net_stats().requests >= 2, "{:?}", c.net_stats());
}

#[test]
fn loss_free_control_moves_no_retries() {
    // Control: with loss 0 the same exchange completes with the minimal
    // packet count (sanity check on the loss tests above).
    let c = lossy_cluster(0.0, 0);
    let page = PageId::new(0);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.node(0).write_u32(addr, 1).unwrap();
    let v = c.node(1).read_u32(addr, MapMode::ReadOnly).unwrap();
    assert_eq!(v, 1);
    assert_eq!(c.net_stats().lost, 0);
    assert_eq!(c.net_stats().requests, 1);
    assert_eq!(c.net_stats().data_packets, 1);
}
