//! The Mether convenience library (§5 of the paper).
//!
//! "Using the information gained from these tests, we built a library
//! which provides support for using Mether efficiently. The library
//! provides named segments with capabilities; pipe-like operations; and
//! other operations to make use of Mether convenient for programmers."
//!
//! * [`segment`] — named segments with capability-based rights;
//! * [`channel`] — `csend`/`crecv` message passing (the Figure 3
//!   protocol, with short-page fast path and generation handshake);
//! * [`pipe`] — the pipe API (create/open, read and write pointers,
//!   bidirectional);
//! * [`sync`] — `SyncCell`, the final protocol as a publish/watch
//!   primitive, whose `wait_until` is every wait the other modules do;
//! * [`barrier`] — a coordinator-free distributed barrier (n broadcast
//!   packets per crossing);
//! * [`publisher`] — one-to-many publication riding the snoopy refresh:
//!   one broadcast serves every subscriber.
//!
//! Nothing here recovers loss: a node re-sends a lost request itself
//! (`mether_runtime::Node`, "Loss"), so the library holds no poll
//! interval of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod channel;
pub mod pipe;
pub mod publisher;
pub mod segment;
pub mod sync;

pub use barrier::Barrier;
pub use channel::{channel_pair, ChannelEnd, MAX_PAYLOAD};
pub use pipe::{create_pipe, open_pipe, PipeReader, PipeWriter};
pub use publisher::{Publisher, Subscriber};
pub use segment::{Capability, Registry, Rights, Segment};
pub use sync::SyncCell;

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::PageId;
    use mether_runtime::{Cluster, ClusterConfig};
    use std::sync::Arc;
    use std::time::Duration;

    fn two() -> Arc<Cluster> {
        Arc::new(Cluster::new(ClusterConfig::fast(2)).unwrap())
    }

    #[test]
    fn channel_small_message_round_trip() {
        let c = two();
        let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
        let c2 = Arc::clone(&c);
        let receiver = std::thread::spawn(move || b.crecv_vec(c2.node(1)).unwrap());
        a.csend(c.node(0), b"hi").unwrap();
        assert_eq!(receiver.join().unwrap(), b"hi");
    }

    #[test]
    fn channel_large_message_uses_full_page() {
        let c = two();
        let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
        let msg: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let expect = msg.clone();
        let c2 = Arc::clone(&c);
        let receiver = std::thread::spawn(move || b.crecv_vec(c2.node(1)).unwrap());
        a.csend(c.node(0), &msg).unwrap();
        assert_eq!(receiver.join().unwrap(), expect);
    }

    #[test]
    fn channel_sequence_of_messages_flow_controlled() {
        let c = two();
        let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
        let c2 = Arc::clone(&c);
        let receiver = std::thread::spawn(move || {
            (0..20u32)
                .map(|_| {
                    let v = b.crecv_vec(c2.node(1)).unwrap();
                    u32::from_le_bytes(v.try_into().unwrap())
                })
                .collect::<Vec<u32>>()
        });
        for i in 0..20u32 {
            a.csend(c.node(0), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(receiver.join().unwrap(), (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn channel_is_bidirectional() {
        let c = two();
        let (a, b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
        let c2 = Arc::clone(&c);
        let peer = std::thread::spawn(move || {
            let got = b.crecv_vec(c2.node(1)).unwrap();
            b.csend(c2.node(1), &got).unwrap(); // echo
        });
        a.csend(c.node(0), b"ping").unwrap();
        let mut buf = [0u8; 16];
        let n = a.crecv(c.node(0), &mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        peer.join().unwrap();
    }

    #[test]
    fn oversized_message_rejected() {
        let c = two();
        let (a, _b) = channel_pair(c.node(0), c.node(1), PageId::new(0), PageId::new(1)).unwrap();
        let too_big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(a.csend(c.node(0), &too_big).is_err());
    }

    #[test]
    fn pipe_create_open_round_trip() {
        let c = two();
        let registry = Registry::new(16);
        let (_ra, wa, cap) = create_pipe(&registry, c.node(0), "jobs").unwrap();
        let (rb, _wb) = open_pipe(&registry, c.node(1), &cap).unwrap();
        let c2 = Arc::clone(&c);
        let reader = std::thread::spawn(move || rb.read_vec(c2.node(1)).unwrap());
        wa.write(c.node(0), b"task-1").unwrap();
        assert_eq!(reader.join().unwrap(), b"task-1");
    }

    #[test]
    fn pipe_requires_full_rights() {
        let c = two();
        let registry = Registry::new(16);
        let (_r, _w, cap) = create_pipe(&registry, c.node(0), "guarded").unwrap();
        let weak = cap.restrict(Rights::READ);
        assert!(matches!(
            open_pipe(&registry, c.node(1), &weak),
            Err(mether_core::Error::PermissionDenied(_))
        ));
    }

    #[test]
    fn sync_cell_publish_watch() {
        let c = two();
        let cell = SyncCell::new(PageId::new(5), 0);
        cell.create_on(c.node(0));
        let c2 = Arc::clone(&c);
        let watcher = std::thread::spawn(move || {
            cell.wait_change(c2.node(1), 0, Duration::from_secs(10))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(50));
        cell.publish(c.node(0), 41).unwrap();
        assert_eq!(watcher.join().unwrap(), 41);
        assert_eq!(cell.get(c.node(1), Duration::from_secs(5)).unwrap(), 41);
    }
}
