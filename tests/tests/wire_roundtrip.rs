//! Property tests locking down the wire codec.
//!
//! A packet crosses the wire as the two-segment [`WireFrame`] of
//! [`Packet::encode_vectored`], and [`Packet::decode_frame`] is the one
//! decoder. These tests pin the contract the runtime relies on:
//!
//! * any packet survives encode → decode field-for-field, and its frame
//!   is exactly [`Packet::encoded_len`] bytes, the length the simulator
//!   charges;
//! * the payload segment is a zero-copy view of the packet's own data
//!   buffer (no 8 KiB transmit copy), and the decoder adopts it;
//! * malformed, truncated, or bit-flipped frames, split into header and
//!   payload segments anywhere, never panic the decoder — they return
//!   `Err`, and the threaded LAN's policy of counting each failure in
//!   [`NetStats::decode_errors`] keeps the segment alive.

use bytes::Bytes;
use mether_core::{Generation, HostId, Packet, PageId, PageLength, Want, WireFrame};
use mether_net::NetStats;
use proptest::prelude::*;

const CASES: u32 = 256;

fn mk_request(from: u16, page: u32, short: bool, want: u8) -> Packet {
    Packet::PageRequest {
        from: HostId(from),
        page: PageId::new(page),
        length: if short {
            PageLength::Short
        } else {
            PageLength::Full
        },
        want: match want % 3 {
            0 => Want::ReadOnly,
            1 => Want::Consistent,
            _ => Want::Superset,
        },
    }
}

/// A page copy on the wire: a reply to a request when `reply`, else a
/// publication. Both share one header layout.
fn mk_data(
    reply: bool,
    from: u16,
    page: u32,
    short: bool,
    generation: u64,
    transfer: Option<u16>,
    data: Vec<u8>,
) -> Packet {
    let (from, page, generation, transfer_to, data) = (
        HostId(from),
        PageId::new(page),
        Generation(generation),
        transfer.map(HostId),
        Bytes::from(data),
    );
    let length = if short {
        PageLength::Short
    } else {
        PageLength::Full
    };
    if reply {
        Packet::PageReply {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        }
    } else {
        Packet::PageData {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        }
    }
}

/// `wire` presented as a frame whose header segment ends at `at` (the
/// rest is the payload segment) — a well-formed frame at the split its
/// encoder chose, a malformed one anywhere else.
fn split_frame(wire: &Bytes, at: usize) -> WireFrame {
    WireFrame {
        header: wire.slice(..at),
        payload: wire.slice(at..),
    }
}

/// Both segments of `frame`, back to back.
fn concat(frame: &WireFrame) -> Bytes {
    Bytes::from([&frame.header[..], &frame.payload[..]].concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn prop_request_round_trips_in_both_framings(
        from in any::<u16>(),
        page in 0u32..mether_core::config::MAX_PAGES,
        short in any::<bool>(),
        want in any::<u8>(),
    ) {
        let p = mk_request(from, page, short, want);
        let frame = p.encode_vectored();
        prop_assert!(frame.payload.is_empty(), "requests carry no payload segment");
        prop_assert_eq!(frame.len(), p.encoded_len());
        prop_assert_eq!(Packet::decode_frame(&frame).unwrap(), p);
    }

    #[test]
    fn prop_data_round_trips_byte_identically_in_both_framings(
        from in any::<u16>(),
        page in 0u32..mether_core::config::MAX_PAGES,
        short in any::<bool>(),
        generation in any::<u64>(),
        transfer in proptest::option::of(any::<u16>()),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        reply in any::<bool>(),
    ) {
        let p = mk_data(reply, from, page, short, generation, transfer, data.clone());
        let frame = p.encode_vectored();
        prop_assert_eq!(frame.len(), p.encoded_len());
        prop_assert_eq!(&frame.payload[..], &data[..]);

        // The round trip reproduces the packet, and re-encoding it
        // reproduces the frame byte for byte.
        let decoded = Packet::decode_frame(&frame).unwrap();
        prop_assert_eq!(&decoded, &p);
        prop_assert_eq!(decoded.encode_vectored(), frame);
    }

    #[test]
    fn prop_vectored_payload_shares_storage(
        len in 1usize..8192,
        fill in any::<u8>(),
    ) {
        let data = Bytes::from(vec![fill; len]);
        let p = Packet::PageData {
            from: HostId(1),
            page: PageId::new(0),
            length: PageLength::Full,
            generation: Generation(1),
            transfer_to: None,
            data: data.clone(),
        };
        let frame = p.encode_vectored();
        prop_assert!(
            frame.payload.shares_storage_with(&data),
            "transmit-side payload copy eliminated"
        );
        match Packet::decode_frame(&frame).unwrap() {
            Packet::PageData { data: d, .. } => prop_assert!(
                d.shares_storage_with(&data),
                "receive side adopts the same storage"
            ),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn prop_truncated_frames_err_and_count_not_panic(
        from in any::<u16>(),
        short in any::<bool>(),
        generation in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..96),
        cut_seed in any::<u64>(),
        split_seed in any::<u64>(),
        reply in any::<bool>(),
    ) {
        let p = mk_data(reply, from, 0, short, generation, None, data);
        let frame = p.encode_vectored();
        // Any strict prefix of the frame's bytes, split into segments
        // anywhere, must fail to decode with Err, never panic. (The
        // threaded LAN's accounting of such failures —
        // NetStats::decode_errors — is exercised for real against the
        // Lan in mether-net's `corrupt_frame_is_counted_and_dropped_not_fatal`;
        // here the property is the decoder's own behaviour.)
        let wire = concat(&frame);
        let cut = (cut_seed % wire.len() as u64) as usize;
        let split = (split_seed % (cut as u64 + 1)) as usize;
        let res = Packet::decode_frame(&split_frame(&wire.slice(..cut), split));
        prop_assert!(res.is_err(), "cut at {} of {}, split at {}", cut, wire.len(), split);

        // A header segment cut short in front of an intact payload.
        let hcut = (cut_seed % frame.header.len() as u64) as usize;
        let res = Packet::decode_frame(&WireFrame {
            header: frame.header.slice(..hcut),
            payload: frame.payload.clone(),
        });
        prop_assert!(res.is_err(), "header cut at {}", hcut);
    }

    #[test]
    fn prop_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        split_seed in any::<u64>(),
        typed in 0u8..3,
    ) {
        // Arbitrary bytes — or arbitrary bytes behind a valid magic and a
        // publication or reply type tag, so the data parser sees garbage
        // too — all in the header segment...
        let prefix: &[u8] = match typed {
            0 => &[],
            1 => &[0x4D, 0x45, 2],
            _ => &[0x4D, 0x45, 5],
        };
        let b = Bytes::from([prefix, &bytes[..]].concat());
        let _ = Packet::decode_frame(&split_frame(&b, b.len()));
        // ...and split between the segments anywhere.
        let split = (split_seed % (b.len() as u64 + 1)) as usize;
        let _ = Packet::decode_frame(&split_frame(&b, split));
        // Reaching here without a panic is the property.
    }

    #[test]
    fn prop_bit_flips_never_panic(
        from in any::<u16>(),
        generation in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<u64>(),
        flip in 1u8..255,
        split_seed in any::<u64>(),
        reply in any::<bool>(),
    ) {
        let p = mk_data(reply, from, 3, true, generation, Some(2), data);
        let frame = p.encode_vectored();
        let mut wire = concat(&frame).to_vec();
        let pos = (pos_seed % wire.len() as u64) as usize;
        wire[pos] ^= flip;
        let wire = Bytes::from(wire);
        // A flipped frame may still parse (e.g. a payload or generation
        // bit); it must never panic, and if it fails it fails with Err —
        // at the encoder's own split and at any other.
        let _ = Packet::decode_frame(&split_frame(&wire, frame.header.len()));
        let split = (split_seed % (wire.len() as u64 + 1)) as usize;
        let _ = Packet::decode_frame(&split_frame(&wire, split));
    }
}

/// The counter side of the threaded LAN's policy: `record_decode_error`
/// accumulates one per bad frame and survives snapshot deltas. (The
/// policy itself — a corrupt frame on the real LAN incrementing the
/// counter, reaching no receiver, and leaving the segment alive — is
/// tested end to end in mether-net's
/// `corrupt_frame_is_counted_and_dropped_not_fatal`.)
#[test]
fn decode_error_counter_accumulates() {
    let mut stats = NetStats::new();
    for garbage in [
        Bytes::new(),
        Bytes::from(vec![0u8; 2]),
        Bytes::from(vec![0xffu8; 40]),
    ] {
        assert!(Packet::decode_frame(&split_frame(&garbage, garbage.len())).is_err());
        stats.record_decode_error();
    }
    assert_eq!(stats.decode_errors, 3);
    let snap = stats;
    stats.record_decode_error();
    assert_eq!(stats.delta(&snap).decode_errors, 1);
}
