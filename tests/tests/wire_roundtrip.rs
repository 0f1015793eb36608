//! Property tests locking down the wire codec across both framings.
//!
//! The event-engine overhaul made the two-segment vectored frame
//! ([`Packet::encode_vectored`]) the production transmit path, with the
//! contiguous [`Packet::encode`] kept as a compatibility wrapper. These
//! tests pin the contract that makes that safe to rely on:
//!
//! * the two framings are **byte-identical** on the wire — concatenating
//!   the vectored segments yields exactly the contiguous datagram;
//! * any packet survives encode → decode round-trips through either
//!   framing, field-for-field and byte-for-byte;
//! * the vectored payload segment is a zero-copy view of the packet's
//!   own data buffer (no 8 KiB transmit copy);
//! * malformed, truncated, or bit-flipped frames never panic the decoder
//!   — they return `Err`, and the threaded LAN's policy of counting each
//!   failure in [`NetStats::decode_errors`] keeps the segment alive.

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

fn mk_data(
    from: u16,
    page: u32,
    short: bool,
    generation: u64,
    transfer: Option<u16>,
    data: Vec<u8>,
) -> Packet {
    Packet::PageData {
        from: HostId(from),
        page: PageId::new(page),
        length: if short {
            PageLength::Short
        } else {
            PageLength::Full
        },
        generation: Generation(generation),
        transfer_to: transfer.map(HostId),
        data: Bytes::from(data),
    }
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
        let enc = p.encode();
        prop_assert_eq!(Packet::decode(&enc).unwrap(), p.clone());
        let frame = p.encode_vectored();
        prop_assert!(frame.payload.is_empty(), "requests carry no payload segment");
        prop_assert_eq!(&frame.header[..], &enc[..]);
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
    ) {
        let p = mk_data(from, page, short, generation, transfer, data);
        let enc = p.encode();
        let frame = p.encode_vectored();

        // Byte identity of the two framings.
        let mut cat = frame.header.to_vec();
        cat.extend_from_slice(&frame.payload);
        prop_assert_eq!(&cat[..], &enc[..]);
        prop_assert_eq!(frame.len(), p.encoded_len());

        // Round trips through either framing reproduce the packet.
        prop_assert_eq!(Packet::decode(&enc).unwrap(), p.clone());
        prop_assert_eq!(Packet::decode_frame(&frame).unwrap(), p.clone());
        // And a contiguous datagram presented as a frame decodes too.
        let flat = WireFrame { header: enc, payload: Bytes::new() };
        prop_assert_eq!(Packet::decode_frame(&flat).unwrap(), p);
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
    ) {
        let p = mk_data(from, 0, short, generation, None, data);
        let enc = p.encode();
        // Any strict prefix must fail to decode with Err, never panic.
        // (The threaded LAN's accounting of such failures —
        // NetStats::decode_errors — is exercised for real against the
        // Lan in mether-net's `corrupt_frame_is_counted_and_dropped_not_fatal`;
        // here the property is the decoder's own behaviour.)
        let cut = (cut_seed % enc.len() as u64) as usize;
        let res = Packet::decode(&enc.slice(..cut));
        prop_assert!(res.is_err(), "cut at {} of {}", cut, enc.len());

        // Same for the vectored framing: truncate the header segment.
        let frame = p.encode_vectored();
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
    ) {
        // Arbitrary bytes through the contiguous decoder...
        let b = Bytes::from(bytes.clone());
        let _ = Packet::decode(&b);
        // ...and through the frame decoder at an arbitrary segment split.
        let split = if b.is_empty() { 0 } else { (split_seed % b.len() as u64) as usize };
        let _ = Packet::decode_frame(&WireFrame {
            header: b.slice(..split),
            payload: b.slice(split..),
        });
        // Reaching here without a panic is the property.
    }

    #[test]
    fn prop_bit_flips_never_panic(
        from in any::<u16>(),
        generation in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let p = mk_data(from, 3, true, generation, Some(2), data);
        let mut enc = p.encode().to_vec();
        let pos = (pos_seed % enc.len() as u64) as usize;
        enc[pos] ^= flip;
        // A flipped frame may still parse (e.g. a payload or generation
        // bit); it must never panic, and if it fails it fails with Err.
        let _ = Packet::decode(&Bytes::from(enc));
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
        assert!(Packet::decode(&garbage).is_err());
        stats.record_decode_error();
    }
    assert_eq!(stats.decode_errors, 3);
    let snap = stats;
    stats.record_decode_error();
    assert_eq!(stats.delta(&snap).decode_errors, 1);
}
