//! Zero-copy broadcast fan-out: one decoded frame serves every
//! snooping host without per-host payload copies, and copy-on-write keeps
//! published payloads immutable.
//!
//! These tests pin the acceptance criteria of the zero-copy page-data
//! path: (1) a full-page broadcast delivered to N snooping hosts performs
//! zero full-page copies per host in steady state — every host's page
//! buffer shares the frame's payload segment; (2) a snooped refresh or
//! a local write never mutates bytes already handed to the network.

use bytes::Bytes;
use mether_core::{
    Generation, HostId, MapMode, MetherConfig, Packet, PageBuf, PageId, PageLength, PageTable, View,
};

const SNOOPERS: u16 = 16;

fn full_page_broadcast(generation: u64, fill: u8) -> Packet {
    Packet::PageData {
        from: HostId(0),
        page: PageId::new(0),
        length: PageLength::Full,
        generation: Generation(generation),
        transfer_to: None,
        data: Bytes::from(vec![fill; 8192]),
    }
}

/// Builds N snooping tables that have page 0 mapped (data-driven view),
/// so broadcasts install and refresh.
fn snoopers() -> Vec<PageTable> {
    (1..=SNOOPERS)
        .map(|i| {
            let mut t = PageTable::new(HostId(i), MetherConfig::new());
            let mut fx = Vec::new();
            let _ = t.access(
                PageId::new(0),
                View::short_data(),
                MapMode::ReadOnly,
                1,
                &mut fx,
            );
            t
        })
        .collect()
}

#[test]
fn one_decode_serves_sixteen_snoopers_without_copies() {
    let frame = full_page_broadcast(1, 0xab).encode_vectored();
    let decoded = Packet::decode_frame(&frame).unwrap();
    let payload = match &decoded {
        Packet::PageData { data, .. } => data.clone(),
        other => panic!("{other:?}"),
    };
    assert!(
        payload.shares_storage_with(&frame.payload),
        "decode is zero-copy"
    );

    let mut tables = snoopers();
    for t in tables.iter_mut() {
        let mut fx = Vec::new();
        t.handle_packet(&decoded, &mut fx);
    }
    for t in &tables {
        let buf = t.page_buf(PageId::new(0)).expect("installed by snoop");
        assert!(buf.full_valid());
        assert_eq!(
            buf.as_slice(),
            &payload[..],
            "identical bytes on every host"
        );
        assert!(
            buf.shares_storage_with(&frame.payload),
            "install adopted the payload segment: zero full-page copies per host"
        );
    }
}

#[test]
fn steady_state_refresh_stays_zero_copy() {
    let mut tables = snoopers();
    // Install generation 1 everywhere, then refresh with generation 2.
    let first = Packet::decode_frame(&full_page_broadcast(1, 0x11).encode_vectored()).unwrap();
    let second_frame = full_page_broadcast(2, 0x22).encode_vectored();
    let second = Packet::decode_frame(&second_frame).unwrap();
    for t in tables.iter_mut() {
        let mut fx = Vec::new();
        t.handle_packet(&first, &mut fx);
        t.handle_packet(&second, &mut fx);
    }
    for t in &tables {
        let buf = t.page_buf(PageId::new(0)).unwrap();
        assert_eq!(buf.read_u32(0).unwrap(), 0x2222_2222);
        assert!(
            buf.shares_storage_with(&second_frame.payload),
            "a full refresh adopts the new payload segment instead of copying it"
        );
    }
}

#[test]
fn snooped_refresh_never_mutates_published_payload() {
    // A holder publishes a full page; a *snooping host* that shares that
    // payload then takes later broadcasts. The bytes the holder handed to
    // the network must remain exactly as published.
    let mut holder = PageTable::new(HostId(0), MetherConfig::new());
    holder.create_owned(PageId::new(0));
    holder
        .page_buf_mut(PageId::new(0))
        .unwrap()
        .write_u32(0, 0xfeed_f00d)
        .unwrap();

    // The holder answers a read-only full-view request — its reply carries a
    // zero-copy payload of its page.
    let mut fx = Vec::new();
    holder.handle_packet(
        &Packet::PageRequest {
            from: HostId(1),
            page: PageId::new(0),
            length: PageLength::Full,
            want: mether_core::Want::ReadOnly,
        },
        &mut fx,
    );
    let published = match fx.remove(0) {
        mether_core::Effect::Send(Packet::PageReply { data, .. }) => data,
        other => panic!("{other:?}"),
    };
    assert_eq!(&published[..4], &0xfeed_f00du32.to_le_bytes());

    // A snooper installs the published payload (sharing its storage),
    // then gets refreshed by a *newer* short broadcast from elsewhere.
    let mut snooper = snoopers().remove(0);
    let mut fx2 = Vec::new();
    snooper.handle_packet(
        &Packet::PageData {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Full,
            generation: Generation(1),
            transfer_to: None,
            data: published.clone(),
        },
        &mut fx2,
    );
    assert!(snooper
        .page_buf(PageId::new(0))
        .unwrap()
        .shares_storage_with(&published));
    snooper.handle_packet(
        &Packet::PageData {
            from: HostId(2),
            page: PageId::new(0),
            length: PageLength::Short,
            generation: Generation(2),
            transfer_to: None,
            data: Bytes::from(vec![0u8; 32]),
        },
        &mut fx2,
    );
    assert_eq!(
        snooper
            .page_buf(PageId::new(0))
            .unwrap()
            .read_u32(0)
            .unwrap(),
        0,
        "snooper merged the newer short prefix"
    );
    assert_eq!(
        &published[..4],
        &0xfeed_f00du32.to_le_bytes(),
        "the payload the holder published is immutable"
    );

    // And the holder writing again must not alter it either (COW).
    holder
        .page_buf_mut(PageId::new(0))
        .unwrap()
        .write_u32(0, 7)
        .unwrap();
    assert_eq!(&published[..4], &0xfeed_f00du32.to_le_bytes());
}

#[test]
fn writes_on_adopted_storage_do_not_leak_between_hosts() {
    // Two hosts adopt the same datagram, then one becomes the consistent
    // holder and writes. The other host's copy must be unaffected.
    let frame = full_page_broadcast(1, 0x33).encode_vectored();
    let decoded = Packet::decode_frame(&frame).unwrap();
    let mut a = PageTable::new(HostId(1), MetherConfig::new());
    let mut b = PageTable::new(HostId(2), MetherConfig::new());
    let mut fx = Vec::new();
    for t in [&mut a, &mut b] {
        let _ = t.access(
            PageId::new(0),
            View::short_data(),
            MapMode::ReadOnly,
            1,
            &mut fx,
        );
        t.handle_packet(&decoded, &mut fx);
    }
    // Transfer consistency of the page to host 1, which then writes.
    let transfer = Packet::PageData {
        from: HostId(0),
        page: PageId::new(0),
        length: PageLength::Full,
        generation: Generation(2),
        transfer_to: Some(HostId(1)),
        data: Bytes::from(vec![0x33u8; 8192]),
    };
    a.handle_packet(&transfer, &mut fx);
    assert!(a.is_consistent_holder(PageId::new(0)));
    a.page_buf_mut(PageId::new(0))
        .unwrap()
        .write_u32(0, 0xdead_beef)
        .unwrap();
    assert_eq!(
        b.page_buf(PageId::new(0)).unwrap().read_u32(0).unwrap(),
        0x3333_3333,
        "host B's shared copy is isolated from host A's write"
    );
}

#[test]
fn pagebuf_cow_semantics_under_payload_round_trip() {
    // Belt-and-braces: the PageBuf-level invariant driving all of the
    // above, stated directly.
    let mut page = PageBuf::new_zeroed();
    page.write_u32(0, 1).unwrap();
    let v1 = page.payload(8192);
    page.write_u32(0, 2).unwrap();
    let v2 = page.payload(8192);
    assert_eq!(&v1[..4], &1u32.to_le_bytes());
    assert_eq!(&v2[..4], &2u32.to_le_bytes());
    assert!(!v1.shares_storage_with(&v2));
}
