// -----------------------------------------------------------------
// The fabric: multi-device pickup and hop-by-hop forwarding.
// -----------------------------------------------------------------

#[test]
fn fabric_offers_pickup_to_every_incident_device() {
    // Chain over 3 segments: devices {0,1} and {1,2}. A frame on
    // segment 1 is heard by both; page 2 is homed on segment 2, so
    // only device 1 forwards it.
    let layout = SegmentLayout::new(6, 3).unwrap();
    let mut f = Fabric::new(layout, FabricConfig::chain(3));
    let out = f.pickup(&data(2, 2, None), 1, SimTime::ZERO);
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].device, out[0].dst), (1, 2));
    assert_eq!(f.device_stats()[0].filtered, 1, "device 0 kept it local");
    assert_eq!(f.device_stats()[1].forwarded, 1);
    assert_eq!(f.stats().heard, 2, "both devices heard the frame");
}

#[test]
fn forwarded_frames_hop_onward_but_never_back() {
    // Chain 0-1-2: a request from segment 0 crosses device 0 onto
    // segment 1; the forwarded copy is offered to the *other*
    // devices on segment 1 (device 1) and hops on to segment 2.
    let layout = SegmentLayout::new(6, 3).unwrap();
    let mut f = Fabric::new(layout, FabricConfig::chain(3));
    let hop1 = f.pickup(&req(0, 5), 0, SimTime::ZERO).to_vec();
    assert_eq!(hop1.len(), 1);
    assert_eq!((hop1[0].device, hop1[0].dst), (0, 1));
    let hop2 = f
        .pickup_forwarded(&req(0, 5), 1, hop1[0].exit, hop1[0].device)
        .to_vec();
    assert_eq!(hop2.len(), 1, "device 0 excluded, device 1 carries on");
    assert_eq!((hop2[0].device, hop2[0].dst), (1, 2));
    let hop3 = f.pickup_forwarded(&req(0, 5), 2, hop2[0].exit, hop2[0].device);
    assert!(hop3.is_empty(), "segment 2 is a leaf: the walk ends");
}

#[test]
fn fabric_subscribe_pins_every_device_toward_the_segment() {
    let layout = SegmentLayout::new(8, 4).unwrap();
    let mut f = Fabric::new(layout, FabricConfig::tree(4, 2));
    f.subscribe(PageId::new(0), 3);
    // Data on segment 0 (the home) now crosses device 0 toward
    // segment 1 (the direction of 3)...
    let out = f.pickup(&data(0, 0, None), 0, SimTime::ZERO).to_vec();
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].device, out[0].dst), (0, 1));
    // ...and hops across device 1 to segment 3 itself.
    let out2 = f.pickup_forwarded(&data(0, 0, None), 1, out[0].exit, 0);
    assert_eq!(out2.len(), 1);
    assert_eq!((out2[0].device, out2[0].dst), (1, 3));
}

#[test]
fn fabric_star_matches_single_bridge_byte_for_byte() {
    // The 1-device fabric must reproduce the single bridge exactly:
    // same egress schedule, same counters.
    let layout = layout_4x2();
    let mut f = Fabric::new(layout, FabricConfig::star(4));
    let mut b = star_bridge(BridgeConfig::typical());
    let frames = [
        (req(6, 0), 3usize),
        (data(0, 0, None), 0),
        (data(0, 0, Some(5)), 0),
        (data(5, 0, None), 2),
        (req(2, 7), 1),
    ];
    let mut now = SimTime::ZERO;
    for (pkt, seg) in frames {
        now += SimDuration::from_micros(200);
        let fab: Vec<(usize, SimTime)> = f
            .pickup(&pkt, seg, now)
            .iter()
            .map(|fw| {
                assert_eq!(fw.device, 0);
                (fw.dst, fw.exit)
            })
            .collect();
        assert_eq!(fab, b.pickup(&pkt, seg, now));
    }
    assert_eq!(f.stats(), b.stats());
}

#[test]
fn an_untimed_forward_routes_and_counts_like_a_pickup() {
    // Two copies of one fabric hear the same frames: one through the
    // timed pickup (no drop or duplicate knob), one through the
    // runtime's untimed step. Both send each frame to the same segments
    // and count the same.
    let layout = SegmentLayout::new(8, 4).unwrap();
    let mut timed = Fabric::new(layout, FabricConfig::tree(4, 2));
    let mut untimed = Fabric::new(layout, FabricConfig::tree(4, 2));
    let frames = [
        (req(6, 0), 3),
        (reply(0, 0, None), 0),
        (req(2, 1), 1),
        (data(2, 1, Some(6)), 1),
        (req(4, 1), 2),
        (superset_req(0, 2), 0),
    ];
    let carried = |f: &mut Fabric, pkt: &Packet, seg: usize, now: SimTime| {
        let mut out = Vec::new();
        f.carry(pkt, seg, now, None, 0, &mut out);
        for e in &out {
            assert_eq!(&e.pkt, pkt, "a data frame leaves as it came");
        }
        out.iter().map(|e| (e.device, e.seg)).collect::<Vec<_>>()
    };
    for (n, (pkt, seg)) in frames.iter().enumerate() {
        let now = ms(n as u64 + 1);
        let mut want: Vec<(usize, usize)> = (timed.pickup(pkt, *seg, now).iter())
            .map(|fw| (fw.device, fw.dst))
            .collect();
        let mut got = carried(&mut untimed, pkt, *seg, now);
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{pkt:?} on {seg}");
    }
    assert_eq!(untimed.device_stats(), timed.device_stats());
    // A severed attachment hears nothing, and the lost port is never
    // a destination: the election leaves it out.
    let lost = FabricEvent::LinkDown {
        device: 0,
        segment: 1,
    };
    untimed.apply_event(lost, ms(10));
    let heard = untimed.device(0).stats().heard;
    carried(&mut untimed, &req(2, 0), 1, ms(11));
    assert_eq!(untimed.device(0).stats().heard, heard);
    for seg in [0, 2] {
        let out = carried(&mut untimed, &superset_req(2 * seg as u16, 3), seg, ms(12));
        assert!(
            !out.contains(&(0, 1)),
            "forwarded onto the lost port: {out:?}"
        );
    }
}

#[test]
fn a_frame_at_the_hop_bound_is_counted_not_forwarded() {
    // Chain 0-1-2: a flooded request on segment 0 crosses device 0 —
    // unless it has already crossed as many devices as there are
    // segments, which only a forwarding loop can make it do.
    let layout = SegmentLayout::new(6, 3).unwrap();
    let mut f = Fabric::new(layout, FabricConfig::chain(3));
    let mut out = Vec::new();
    f.carry(&superset_req(0, 5), 0, ms(1), None, 2, &mut out);
    assert_eq!(out.len(), 1, "two crossings in, one more is allowed");
    out.clear();
    f.carry(&superset_req(0, 5), 0, ms(2), None, 3, &mut out);
    assert!(out.is_empty(), "three crossings in, the walk ends");
    let s = f.device(0).stats();
    assert_eq!((s.heard, s.forwarded, s.dropped), (2, 1, 1));
}
