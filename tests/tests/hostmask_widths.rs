//! Property tests for the variable-width `HostMask` across the widths
//! that matter: 1 (degenerate), 128 (the old `u128` ceiling), 129 (the
//! first spilled index), and 1024 (the 16×64 scale deployment).
//!
//! Four contracts are pinned:
//!
//! * **set-algebra laws** — union / intersection / difference /
//!   symmetric difference / insert / remove / iteration agree with a
//!   reference `BTreeSet` at every width, on either side of the
//!   inline-to-spilled representation boundary;
//! * **wire round-trip** — a mask crosses the codec inside a
//!   [`Packet::BridgePdu`] device view (`word_count:u16` + big-endian
//!   words, trailing zero words trimmed) and comes back equal, with
//!   `encoded_len` matching the bytes actually produced;
//! * **`range` in one pass** — `range(lo, hi)` is the set `lo..hi` on
//!   either side of the 128 boundary and at `lo == hi`, in canonical
//!   form: equal to, and hashing like, the `all_below` difference it
//!   used to be built from;
//! * **`u128` equivalence** — below 128 hosts the mask is
//!   bit-for-bit the `u128` it replaced: every operation matches the
//!   corresponding bitwise op through `bits`/`from_bits`.

use mether_core::{DeviceView, HostId, HostMask, Packet};
use proptest::prelude::*;
use std::collections::BTreeSet;

const WIDTHS: [usize; 4] = [1, 128, 129, 1024];

/// Folds raw draws into members below `WIDTHS[wi]` — the vendored
/// proptest has no `prop_flat_map`, so width-dependent membership is
/// derived in the test body instead.
fn members(wi: usize, raw: &[usize]) -> Vec<usize> {
    raw.iter().map(|&x| x % WIDTHS[wi]).collect()
}

fn mask_of(xs: &[usize]) -> HostMask {
    xs.iter().copied().collect()
}

fn set_of(xs: &[usize]) -> BTreeSet<usize> {
    xs.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_algebra_matches_btreeset_at_every_width(
        wi in 0usize..WIDTHS.len(),
        raw_a in proptest::collection::vec(0usize..1024, 0..48),
        raw_b in proptest::collection::vec(0usize..1024, 0..48),
    ) {
        let width = WIDTHS[wi];
        let (xs, ys) = (members(wi, &raw_a), members(wi, &raw_b));
        let (a, b) = (mask_of(&xs), mask_of(&ys));
        let (sa, sb) = (set_of(&xs), set_of(&ys));
        prop_assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.difference(&b).iter().collect::<Vec<_>>(),
            sa.difference(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.symmetric_difference(&b).iter().collect::<Vec<_>>(),
            sa.symmetric_difference(&sb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(a.len(), sa.len());
        for &x in &xs {
            prop_assert!(a.contains(x));
        }
        prop_assert!(!a.contains(width + 1), "nothing past the width");
        // Words round-trip at any width, trimmed or not.
        prop_assert_eq!(HostMask::from_words(a.words()), a.clone());
    }

    #[test]
    fn prop_insert_remove_track_the_reference(
        wi in 0usize..WIDTHS.len(),
        raw in proptest::collection::vec(0usize..1024, 0..48),
        toggle_seed in any::<u64>(),
    ) {
        let xs = members(wi, &raw);
        let mut m = HostMask::EMPTY;
        let mut s = BTreeSet::new();
        // Interleave inserts of the members with removes of earlier
        // ones, crossing the spill boundary both ways when width > 128.
        for (i, &x) in xs.iter().enumerate() {
            m.insert(x);
            s.insert(x);
            if toggle_seed.rotate_left(i as u32) & 1 == 1 {
                if let Some(&y) = s.iter().next() {
                    m.remove(y);
                    s.remove(&y);
                }
            }
            prop_assert_eq!(m.len(), s.len());
        }
        prop_assert_eq!(
            m.iter().collect::<Vec<_>>(),
            s.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn prop_masks_round_trip_the_wire_in_bridge_pdus(
        wi in 0usize..WIDTHS.len(),
        raw_a in proptest::collection::vec(0usize..1024, 0..48),
        raw_b in proptest::collection::vec(0usize..1024, 0..48),
        version in any::<u64>(),
        alive in any::<bool>(),
    ) {
        let p = Packet::BridgePdu {
            from: HostId(7),
            device: 3,
            views: vec![
                DeviceView { version, alive, ports: mask_of(&members(wi, &raw_a)) },
                DeviceView { version: version ^ 1, alive: !alive, ports: mask_of(&members(wi, &raw_b)) },
            ],
        };
        let enc = p.encode();
        prop_assert_eq!(enc.len(), p.encoded_len(), "advertised length is the real one");
        prop_assert_eq!(Packet::decode(&enc).unwrap(), p.clone());
        let frame = p.encode_vectored();
        prop_assert_eq!(Packet::decode_frame(&frame).unwrap(), p);
    }

    #[test]
    fn prop_range_is_the_contiguous_set_in_canonical_form(
        wi in 0usize..WIDTHS.len(),
        raw_lo in 0usize..1100,
        raw_len in 0usize..1100,
        empty in any::<bool>(),
    ) {
        use std::hash::{BuildHasher, RandomState};

        // Ends on both sides of every width, `lo == hi` included.
        let lo = raw_lo % (WIDTHS[wi] + 2);
        let hi = lo + if empty { 0 } else { raw_len % 140 };
        let r = HostMask::range(lo, hi);
        prop_assert_eq!(
            r.iter().collect::<Vec<_>>(),
            (lo..hi).collect::<BTreeSet<_>>().into_iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(r.len(), hi - lo);
        prop_assert_eq!(r.is_empty(), lo == hi);
        // Canonical: indistinguishable from the old two-mask expression
        // under `==` and `Hash`, and from its own words re-canonicalised.
        let old = HostMask::all_below(hi).difference(&HostMask::all_below(lo));
        prop_assert_eq!(&r, &old);
        let hasher = RandomState::new();
        prop_assert_eq!(hasher.hash_one(&r), hasher.hash_one(&old));
        prop_assert_eq!(HostMask::from_words(r.words()), r.clone());
        prop_assert_eq!(r.words().len() == 2, hi <= 128 || lo == hi);
    }

    #[test]
    fn prop_below_128_the_mask_is_its_u128(
        xs in proptest::collection::vec(0usize..128, 0..48),
        ys in proptest::collection::vec(0usize..128, 0..48),
    ) {
        let (a, b) = (mask_of(&xs), mask_of(&ys));
        let (ba, bb) = (a.bits(), b.bits());
        let expect_bits = xs.iter().fold(0u128, |acc, &x| acc | (1 << x));
        prop_assert_eq!(ba, expect_bits);
        prop_assert_eq!(a.union(&b).bits(), ba | bb);
        prop_assert_eq!(a.intersection(&b).bits(), ba & bb);
        prop_assert_eq!(a.difference(&b).bits(), ba & !bb);
        prop_assert_eq!(a.symmetric_difference(&b).bits(), ba ^ bb);
        prop_assert_eq!(HostMask::from_bits(ba), a.clone());
        if let Some(&x) = xs.first() {
            prop_assert_eq!(a.without(x).bits(), ba & !(1 << x));
        }
    }
}

/// The representation boundary, pinned deterministically on top of the
/// properties: every width round-trips the wire inside a full-width
/// device view.
#[test]
fn spill_boundary_round_trips_the_wire() {
    for width in WIDTHS {
        let full = HostMask::all_below(width);
        let p = Packet::BridgePdu {
            from: HostId(1),
            device: 0,
            views: vec![DeviceView {
                version: 9,
                alive: true,
                ports: full.clone(),
            }],
        };
        let enc = p.encode();
        assert_eq!(enc.len(), p.encoded_len(), "width {width}");
        assert_eq!(Packet::decode(&enc).unwrap(), p, "width {width}");
        assert_eq!(full.len(), width);
    }
}
