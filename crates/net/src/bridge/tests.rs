//! The bridge modules' unit tests, one file per module beside it
//! (`policy_tests.rs` beside `policy.rs`, and so on). They share this
//! one `tests` module, so each test keeps the name `bridge::tests::…` it
//! had while the bridge was one file.

use super::election::GOSSIP_WINDOW;
use super::*;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use mether_core::{
    BridgeTopology, DeviceView, Generation, HostId, HostMask, Packet, PageHomePolicy, PageId,
    PageLength, SegmentLayout, Want,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn layout_4x2() -> SegmentLayout {
    // 8 hosts, 4 segments of 2.
    SegmentLayout::new(8, 4).unwrap()
}

fn req(from: u16, page: u32) -> Packet {
    Packet::PageRequest {
        from: HostId(from),
        page: PageId::new(page),
        length: PageLength::Short,
        want: Want::ReadOnly,
    }
}

fn superset_req(from: u16, page: u32) -> Packet {
    Packet::PageRequest {
        from: HostId(from),
        page: PageId::new(page),
        length: PageLength::Full,
        want: Want::Superset,
    }
}

fn data(from: u16, page: u32, transfer_to: Option<u16>) -> Packet {
    Packet::PageData {
        from: HostId(from),
        page: PageId::new(page),
        length: PageLength::Short,
        generation: Generation(1),
        transfer_to: transfer_to.map(HostId),
        data: Bytes::from(vec![0u8; 32]),
    }
}

/// `data(..)` sent as a reply to a request.
fn reply(from: u16, page: u32, transfer_to: Option<u16>) -> Packet {
    Packet::PageReply {
        from: HostId(from),
        page: PageId::new(page),
        length: PageLength::Short,
        generation: Generation(1),
        transfer_to: transfer_to.map(HostId),
        data: Bytes::from(vec![0u8; 32]),
    }
}

/// `n` ms into a run: pending markers need a request heard after the
/// epoch (`SimTime::ZERO` means none pending).
fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn star_policy() -> BridgePolicy {
    BridgePolicy::star(layout_4x2(), PageHomePolicy::Striped)
}

const T0: SimTime = SimTime::ZERO;

fn set(m: impl IntoIterator<Item = usize>) -> Vec<usize> {
    m.into_iter().collect()
}

include!("policy_tests.rs");
include!("election_tests.rs");
include!("device_tests.rs");
include!("fabric_tests.rs");
