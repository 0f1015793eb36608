// -----------------------------------------------------------------
// The filter on the star, with sticky interest.
// -----------------------------------------------------------------

#[test]
fn requests_flood_and_register_interest() {
    let mut p = star_policy();
    // Host 6 (segment 3) asks for page 0 (homed on segment 0) with a
    // Superset request, which any full copy may answer.
    let t = p.route(&superset_req(6, 0), 3, T0);
    assert_eq!(set(t), vec![0, 1, 2], "flooded");
    // Page 0's interest now holds home (0) and the requester (3).
    assert_eq!(set(p.interest(PageId::new(0), T0)), vec![0, 3]);
}

#[test]
fn data_follows_interest_only() {
    let mut p = star_policy();
    // Page 0 homed on segment 0; its holder on segment 0 broadcasts.
    // Nobody else asked: nothing crosses the bridge.
    assert!(p.route(&data(0, 0, None), 0, T0).is_empty());
    // Segment 2 requests it; from then on data transits follow.
    let _ = p.route(&req(4, 0), 2, T0);
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
    // Interest is sticky: a second transit still reaches segment 2.
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
}

#[test]
fn data_homed_elsewhere_always_reaches_home() {
    let mut p = star_policy();
    // Page 1 is homed on segment 1, but its holder sits on segment 3.
    let t = p.route(&data(6, 1, None), 3, T0);
    assert_eq!(set(t), vec![1], "home stays subscribed");
}

#[test]
fn transfer_to_reaches_and_subscribes_the_new_holder() {
    let mut p = star_policy();
    // Consistency of page 0 moves from host 0 (segment 0) to host 5
    // (segment 2).
    let t = p.route(&data(0, 0, Some(5)), 0, T0);
    assert_eq!(set(t), vec![2]);
    // The sender's segment stays interested: when the new holder
    // broadcasts, segment 0 (home + old copies) hears it.
    let t = p.route(&data(5, 0, None), 2, T0);
    assert_eq!(set(t), vec![0]);
}

#[test]
fn out_of_range_transfer_target_is_ignored() {
    let mut p = star_policy();
    let t = p.route(&data(0, 0, Some(9999)), 0, T0);
    assert!(t.is_empty(), "garbage transfer target routes nowhere");
}

#[test]
fn explicit_subscription_covers_silent_data_readers() {
    let mut p = star_policy();
    p.subscribe(PageId::new(0), 3);
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![3]);
}

#[test]
fn targets_is_route_without_learning() {
    let p = star_policy();
    let t = p.targets(&data(0, 2, Some(7)), 1, T0);
    // Home of page 2 is segment 2; transfer target host 7 is segment 3.
    assert_eq!(set(t), vec![2, 3]);
    // No learning happened: interest still just the home bit.
    assert_eq!(set(p.interest(PageId::new(2), T0)), vec![2]);
}

#[test]
fn route_equals_targets_after_learning() {
    // route() is definitionally learn-then-targets: for any frame,
    // the mask route() returns equals what targets() reports right
    // after, so diagnostics can never drift from forwarding.
    let mut p = star_policy();
    for (pkt, src) in [
        (req(6, 0), 3usize),
        (data(0, 0, Some(5)), 0),
        (data(5, 0, None), 2),
        (req(2, 7), 1),
        (data(2, 7, Some(9999)), 1),
    ] {
        let routed = p.route(&pkt, src, T0);
        assert_eq!(routed, p.targets(&pkt, src, T0), "{pkt:?} from {src}");
    }
}

// -----------------------------------------------------------------
// The same rules on a wide fabric: a two-port device of the 16×16
// mesh with one port below segment 128 and one at or above it —
// where a segment-id mask stops fitting inline — forwarding on both.
// -----------------------------------------------------------------

/// The straddling device's policy, with its `(low, high)` ports.
/// Two hosts per segment: host `2s` sits on segment `s`.
fn wide_policy(cfg: impl FnOnce(FabricConfig) -> FabricConfig) -> (BridgePolicy, usize, usize) {
    let topology = Arc::new(BridgeTopology::mesh2d(16, 16));
    let layout = SegmentLayout::new(512, 256).unwrap();
    let boot = BootState::new(Arc::clone(&topology), Vec::new());
    let cfg = cfg(FabricConfig::new(BridgeTopology::clone(&topology)));
    let device = (0..topology.bridges())
        .find(|&d| {
            let ports = topology.ports(d);
            ports[0] < 128 && ports[1] >= 128 && boot.active.forwarding(d).len() == 2
        })
        .expect("the boot tree crosses the 128 boundary somewhere");
    let (lo, hi) = (topology.ports(device)[0], topology.ports(device)[1]);
    (
        BridgePolicy::for_device(layout, &boot, device, &cfg),
        lo,
        hi,
    )
}

fn host_on(seg: usize) -> u16 {
    2 * seg as u16
}

#[test]
fn wide_route_equals_targets_and_targets_learns_nothing() {
    for aging in [AgeHorizon::Sticky, AgeHorizon::Transits(3)] {
        let (mut p, lo, hi) = wide_policy(|c| c.with_aging(aging));
        // Pages homed toward either side, heard from either side.
        let (near, far) = (lo as u32, hi as u32);
        for (pkt, src) in [
            (req(host_on(hi), near), hi),
            (data(host_on(lo), near, Some(host_on(hi))), lo),
            (data(host_on(hi), near, None), hi),
            (req(host_on(lo), far), lo),
            (data(host_on(hi), far, Some(9999)), hi),
            (superset_req(host_on(lo), near), lo),
        ] {
            let (Packet::PageRequest { page, .. } | Packet::PageData { page, .. }) = pkt else {
                unreachable!("data-plane frames only")
            };
            let before = (p.learned(page), p.holder_port(page));
            let dry = p.targets(&pkt, src, T0);
            let after = (p.learned(page), p.holder_port(page));
            assert_eq!(before, after, "targets() learned from {pkt:?}");
            assert!(!dry.contains(src), "{pkt:?} back out port {src}");
            let routed = p.route(&pkt, src, T0);
            assert_eq!(routed, p.targets(&pkt, src, T0), "{pkt:?} from {src}");
            assert!(set(routed).iter().all(|&t| t == lo || t == hi));
        }
        // What was learned sits on both sides of the boundary.
        assert_eq!(set(p.learned(PageId::new(near))), vec![lo, hi]);
        assert_eq!(p.holder_port(PageId::new(near)), Some(hi));
    }
}

#[test]
fn wide_interest_ages_and_pins_hold_on_either_side() {
    // Aging: demand from one side, data from the page's home side.
    for (asks, home) in [(0, 1), (1, 0)] {
        let (mut p, lo, hi) = wide_policy(|c| c.with_aging(AgeHorizon::Transits(2)));
        let (asks, home) = ([lo, hi][asks], [lo, hi][home]);
        let page = home as u32; // striped: homed on the segment itself
        let _ = p.route(&req(host_on(asks), page), asks, T0);
        let refresh = data(host_on(home), page, None);
        assert_eq!(set(p.route(&refresh, home, T0)), vec![asks]);
        assert_eq!(set(p.route(&refresh, home, T0)), vec![asks]);
        assert!(p.route(&refresh, home, T0).is_empty(), "aged out");
        let _ = p.route(&req(host_on(asks), page), asks, T0);
        assert_eq!(set(p.route(&refresh, home, T0)), vec![asks], "reinstated");
    }
    // Pins: resolved through the tree to the port on that side, and
    // never aged, whichever side of 128 the pinned segment is on.
    for side in 0..2 {
        let (mut p, lo, hi) = wide_policy(|c| c.with_aging(AgeHorizon::Transits(0)));
        let (pinned, other) = ([lo, hi][side], [hi, lo][side]);
        let page = PageId::new(other as u32); // home on the other side
        p.subscribe(page, pinned);
        assert_eq!(set(p.interest(page, T0)), vec![lo, hi]);
        for _ in 0..4 {
            let heard = p.route(&data(host_on(other), other as u32, None), other, T0);
            assert_eq!(set(heard), vec![pinned]);
        }
    }
}

// -----------------------------------------------------------------
// Replies: back along the pending requests only.
// -----------------------------------------------------------------

/// Whether port `i` of `p` holds a pending request for `page`.
fn pending(p: &BridgePolicy, page: u32, i: usize) -> bool {
    p.stamps(PageId::new(page))
        .is_some_and(|row| row[i].requested_at != SimTime::ZERO)
}

#[test]
fn a_reply_leaves_only_through_pending_ports_and_clears_them() {
    let mut p = star_policy();
    // Page 0 is homed on segment 0. Segment 2 once published it
    // (learned interest); segment 3 asks for it now.
    let _ = p.route(&data(4, 0, None), 2, ms(1));
    let _ = p.route(&req(6, 0), 3, ms(2));
    assert!(pending(&p, 0, 3) && !pending(&p, 0, 2));
    // The holder answers from home: the reply goes to the asker
    // alone — not to the interested segment 2 a publication reaches.
    let answer = reply(0, 0, None);
    assert_eq!(set(p.targets(&answer, 0, ms(3))), vec![3]);
    assert_eq!(set(p.route(&answer, 0, ms(3))), vec![3]);
    assert!(!pending(&p, 0, 3), "forwarding the reply answered it");
    // Answered: a second reply has nowhere to go.
    assert!(p.route(&answer, 0, ms(4)).is_empty());
}

#[test]
fn one_reply_reaches_every_port_a_request_is_pending_on() {
    // Two requesters on two segments, one reply: the holder coalesced
    // or piggybacked the second request onto its answer to the first.
    let mut p = star_policy();
    let _ = p.route(&req(4, 0), 2, ms(1));
    let _ = p.route(&req(6, 0), 3, ms(2));
    assert_eq!(set(p.route(&reply(0, 0, None), 0, ms(3))), vec![2, 3]);
    assert!(!pending(&p, 0, 2) && !pending(&p, 0, 3));
}

#[test]
fn a_purge_still_reaches_a_learned_but_idle_port() {
    // Segment 3 asked once and was answered; its reader is now
    // data-driven and asks no more. The publication still reaches it.
    let mut p = star_policy();
    let _ = p.route(&req(6, 0), 3, ms(1));
    assert_eq!(set(p.route(&reply(0, 0, None), 0, ms(2))), vec![3]);
    assert!(!pending(&p, 0, 3));
    assert_eq!(set(p.route(&data(0, 0, None), 0, ms(3))), vec![3]);
}

#[test]
fn a_grant_follows_transfer_to_when_nothing_is_pending() {
    // Consistency of page 0 moves from host 0 (segment 0) to host 5
    // (segment 2) with no request pending here: the grant still
    // walks to the new holder, and the belief follows it.
    let mut p = star_policy();
    assert_eq!(set(p.route(&reply(0, 0, Some(5)), 0, ms(1))), vec![2]);
    assert_eq!(p.holder_port(PageId::new(0)), Some(2));
}

#[test]
fn a_reply_with_nothing_pending_and_no_pin_goes_nowhere() {
    let mut p = star_policy();
    // Page 0 homed on segment 0, answered from segment 1: its
    // publication twin would go home, the reply goes nowhere...
    assert_eq!(set(p.targets(&data(2, 0, None), 1, ms(1))), vec![0]);
    assert!(p.route(&reply(2, 0, None), 1, ms(1)).is_empty());
    // ...except to a pinned segment.
    p.subscribe(PageId::new(0), 3);
    assert_eq!(set(p.route(&reply(2, 0, None), 1, ms(2))), vec![3]);
}

#[test]
fn a_pending_request_outlives_any_aging_horizon() {
    // A horizon far shorter than the round trip ages the requester's
    // learned interest, so publications stop — but the request's
    // pending marker still lets its reply back through.
    let (mut p, lo, hi) =
        wide_policy(|c| c.with_aging(AgeHorizon::SimTime(SimDuration::from_millis(1))));
    let page = lo as u32; // striped: homed on `lo`
    let _ = p.route(&req(host_on(hi), page), hi, ms(1));
    assert!(p
        .targets(&data(host_on(lo), page, None), lo, ms(20))
        .is_empty());
    assert_eq!(
        set(p.route(&reply(host_on(lo), page, None), lo, ms(20))),
        vec![hi]
    );
}

#[test]
fn flush_port_zeroes_exactly_that_ports_column() {
    let (mut p, lo, hi) = wide_policy(|c| c);
    let t = SimTime::ZERO + SimDuration::from_millis(3);
    // Demand on both ports of pages 0..6, holder beliefs alternating.
    for page in 0..6u32 {
        let _ = p.route(&req(host_on(lo), page), lo, t);
        let holder_side = [lo, hi][page as usize % 2];
        let _ = p.route(&data(host_on(holder_side), page, None), holder_side, t);
        let _ = p.route(&req(host_on(hi), page), hi, t);
    }
    let tracked: Vec<PageId> = p.tracked_pages().collect();
    assert_eq!(tracked.len(), 6);
    let before: Vec<Vec<PortStamp>> = tracked
        .iter()
        .map(|&page| p.stamps(page).expect("tracked").to_vec())
        .collect();
    assert!(
        before.iter().all(|row| row.len() == 2),
        "one stamp per port"
    );
    assert!(before.iter().flatten().all(|s| *s != PortStamp::NEVER));
    assert_eq!(
        p.stamps(PageId::new(6)),
        None,
        "untracked pages have no row"
    );
    p.flush_port(hi);
    for (&page, was) in tracked.iter().zip(&before) {
        let row = p.stamps(page).expect("still tracked");
        assert_eq!(row[0], was[0], "page {page}: the other column is untouched");
        assert_eq!(row[1], PortStamp::NEVER, "page {page}: flushed column");
        assert_eq!(set(p.learned(page)), vec![lo]);
        let keeps_belief = page.index() % 2 == 0;
        assert_eq!(
            p.holder_port(page),
            keeps_belief.then_some(lo),
            "page {page}"
        );
    }
}

#[test]
fn a_device_keeps_filters_only_for_pages_it_heard_of() {
    let (mut p, lo, hi) = wide_policy(|c| c);
    let t = SimTime::ZERO + SimDuration::from_millis(3);
    let page = PageId::new(200);
    let _ = p.route(&req(host_on(lo), 200), lo, t);
    assert_eq!(p.tracked_pages().collect::<Vec<_>>(), vec![page]);
    assert_eq!(p.stamps(PageId::new(199)), None, "never heard of");
    assert_eq!(set(p.learned(PageId::new(199))), Vec::<usize>::new());
    let _ = p.take_dirty();
    let row = p.stamps(page).expect("tracked").to_vec();
    assert_ne!(row[0], PortStamp::NEVER, "the request's port");
    assert_eq!(row[1], PortStamp::NEVER);
    p.flush_port(hi);
    assert_eq!(p.stamps(page), Some(&row[..]), "port {lo}'s column stays");
    assert_eq!(set(p.learned(page)), vec![lo]);
    assert_eq!(p.take_dirty().0, vec![page], "only tracked pages dirty");
    p.flush_port(lo);
    assert_eq!(p.stamps(page), Some(&[PortStamp::NEVER; 2][..]));
    assert_eq!(set(p.learned(page)), Vec::<usize>::new());
    assert_eq!(p.tracked_pages().collect::<Vec<_>>(), vec![page]);
}

// -----------------------------------------------------------------
// Request routing: toward the believed holder, anchored at home.
// -----------------------------------------------------------------

#[test]
fn unknown_holder_on_the_boot_tree_walks_toward_home() {
    let mut p = star_policy();
    // No data seen for page 0 (homed on segment 0): no move passed
    // this device, so the holder is homeward — the request leaves
    // through the home port alone...
    assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0]);
    // ...and one from the home segment itself goes nowhere.
    assert!(p.route(&req(1, 0), 0, T0).is_empty());
    let c = p.belief_counters();
    assert_eq!(
        (c.belief_hits, c.home_routed, c.belief_fallback_floods),
        (0, 2, 0),
        "two requests routed home, none flooded"
    );
}

#[test]
fn unknown_holder_floods_after_a_tree_change_or_a_rejoin() {
    // A device whose tree changed may have missed a move — its
    // silence no longer says "homeward", so it floods what is left.
    let mut p = star_policy();
    assert!(p.kill_port(2, T0).active_changed);
    assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1]);
    // So does a device revived cold into a running fabric.
    let mut p = star_policy();
    p.rejoin(T0);
    assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1, 2]);
    let c = p.belief_counters();
    assert_eq!((c.home_routed, c.belief_fallback_floods), (0, 1));
}

#[test]
fn learned_holder_directs_requests_with_a_home_anchor() {
    let mut p = star_policy();
    // Data from segment 1 teaches the holder direction for page 0
    // (homed on segment 0).
    let _ = p.route(&data(2, 0, None), 1, T0);
    assert_eq!(p.holder_port(PageId::new(0)), Some(1));
    // A request from segment 3 goes to the believed holder plus the
    // home anchor — never the full flood.
    assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1]);
    // When the belief sits on the home segment the anchor is free:
    // one port.
    let _ = p.route(&data(5, 2, None), 2, T0); // page 2 homed on 2
    assert_eq!(set(p.route(&req(6, 2), 3, T0)), vec![2]);
    let c = p.belief_counters();
    assert_eq!(
        (c.belief_hits, c.home_routed),
        (2, 0),
        "both requests routed on belief"
    );
}

#[test]
fn transfer_to_repoints_the_holder_belief() {
    let mut p = star_policy();
    let _ = p.route(&data(2, 0, None), 1, T0);
    // Consistency moves to host 7 (segment 3); requests from the
    // home segment itself need no anchor.
    let _ = p.route(&data(2, 0, Some(7)), 1, T0);
    assert_eq!(p.holder_port(PageId::new(0)), Some(3));
    assert_eq!(set(p.route(&req(0, 0), 0, T0)), vec![3]);
    assert_eq!(
        p.belief_counters().belief_repairs,
        1,
        "the transfer repointed an existing belief"
    );
}

#[test]
fn request_from_the_holder_direction_is_not_bounced() {
    let mut p = star_policy();
    // Page 0 is homed on segment 0 and its holder broadcasts from
    // there: belief and home coincide.
    let _ = p.route(&data(0, 0, None), 0, T0);
    // A request arriving *from* that very direction: the holder (or
    // the next device toward it) already heard the frame on that
    // segment; bouncing it elsewhere is pure waste.
    assert!(p.route(&req(1, 0), 0, T0).is_empty());
}

#[test]
fn superset_requests_always_flood() {
    let mut p = star_policy();
    let _ = p.route(&data(2, 0, None), 1, T0);
    // Any host with a full copy may answer a Superset request, so
    // the holder belief must not narrow it.
    assert_eq!(set(p.route(&superset_req(6, 0), 3, T0)), vec![0, 1, 2]);
    assert_eq!(
        p.belief_counters(),
        BridgeStats::default(),
        "superset floods are not belief events"
    );
}

#[test]
fn stale_generation_replies_do_not_poison_the_holder_belief() {
    // The Superset hazard: a non-holder with a full copy answers a
    // Superset request, echoing a generation the holder has long
    // advanced past. That reply must not repoint the belief — the
    // next ordinary request still routes toward the live holder.
    let mut p = star_policy();
    let fresh = |from: u16, gen: u64, seg: usize, p: &mut BridgePolicy| {
        let pkt = Packet::PageData {
            from: HostId(from),
            page: PageId::new(0),
            length: PageLength::Short,
            generation: Generation(gen),
            transfer_to: None,
            data: Bytes::from(vec![0u8; 32]),
        };
        p.route(&pkt, seg, T0)
    };
    // The holder on segment 1 has published up to generation 5.
    let _ = fresh(2, 5, 1, &mut p);
    assert_eq!(p.holder_port(PageId::new(0)), Some(1));
    // A stale full-copy echo from segment 2 (generation 3).
    let _ = fresh(4, 3, 2, &mut p);
    assert_eq!(
        p.holder_port(PageId::new(0)),
        Some(1),
        "stale data must not repoint the belief"
    );
    // But it still registered segment 2's interest (it holds copies).
    assert!(p.interest(PageId::new(0), T0).contains(2));
    // A genuinely newer broadcast does move the belief.
    let _ = fresh(5, 6, 3, &mut p);
    assert_eq!(p.holder_port(PageId::new(0)), Some(3));
}

#[test]
fn home_anchor_rescues_a_cold_poisoned_belief() {
    // Even when a stale echo is the *first* data a device ever sees
    // (nothing to gate against), the home anchor keeps requests
    // reaching the segment where the consistent copy is seeded.
    let mut p = star_policy();
    let _ = p.route(&data(4, 0, None), 2, T0); // first evidence: segment 2
    assert_eq!(p.holder_port(PageId::new(0)), Some(2));
    // Requests still reach home (segment 0) alongside the belief.
    assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 2]);
}

// -----------------------------------------------------------------
// Interest aging.
// -----------------------------------------------------------------

fn aging_star(horizon: AgeHorizon) -> BridgePolicy {
    let cfg = FabricConfig::star(4).with_aging(horizon);
    let boot = BootState::new(Arc::new(cfg.topology.clone()), Vec::new());
    BridgePolicy::for_device(layout_4x2(), &boot, 0, &cfg)
}

#[test]
fn idle_interest_ages_out_after_the_transit_horizon() {
    let mut p = aging_star(AgeHorizon::Transits(2));
    let _ = p.route(&req(4, 0), 2, T0); // segment 2 wants page 0
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
    // Two forwarded transits with no fresh demand from segment 2:
    // the horizon expires and the next transit stays home.
    assert!(p.route(&data(0, 0, None), 0, T0).is_empty());
}

#[test]
fn reuse_reinstates_aged_interest() {
    let mut p = aging_star(AgeHorizon::Transits(1));
    let _ = p.route(&req(4, 0), 2, T0);
    let _ = p.route(&data(0, 0, None), 0, T0);
    let _ = p.route(&data(0, 0, None), 0, T0);
    assert!(
        p.route(&data(0, 0, None), 0, T0).is_empty(),
        "aged out after the horizon"
    );
    // A fresh request reinstates the entry through ordinary learning.
    let _ = p.route(&req(4, 0), 2, T0);
    assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
}

#[test]
fn home_and_pins_never_age() {
    let mut p = aging_star(AgeHorizon::Transits(0));
    p.subscribe(PageId::new(1), 3);
    // Horizon 0: learned interest dies after every forwarded
    // transit; the home port (segment 1) and the pin (segment 3)
    // survive any number of them.
    for _ in 0..8 {
        assert_eq!(set(p.route(&data(0, 1, None), 0, T0)), vec![1, 3]);
    }
}

#[test]
fn sim_time_horizon_ages_by_the_clock() {
    let mut p = aging_star(AgeHorizon::SimTime(SimDuration::from_millis(5)));
    let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let _ = p.route(&req(4, 0), 2, t(0));
    assert_eq!(set(p.route(&data(0, 0, None), 0, t(4))), vec![2]);
    assert!(
        p.route(&data(0, 0, None), 0, t(10)).is_empty(),
        "5 ms horizon expired"
    );
    let _ = p.route(&req(4, 0), 2, t(11));
    assert_eq!(set(p.route(&data(0, 0, None), 0, t(12))), vec![2]);
}

// -----------------------------------------------------------------
// Multi-device trees: scoped ports, hop-by-hop interest.
// -----------------------------------------------------------------

fn tree_4_policies() -> Vec<BridgePolicy> {
    // 4 segments, fanout 2: device 0 = {0,1,2}, device 1 = {1,3}.
    let cfg = FabricConfig::tree(4, 2);
    let boot = BootState::new(Arc::new(cfg.topology.clone()), Vec::new());
    (0..cfg.topology.bridges())
        .map(|d| BridgePolicy::for_device(layout_4x2(), &boot, d, &cfg))
        .collect()
}

#[test]
fn tree_devices_flood_only_their_own_ports() {
    let mut ps = tree_4_policies();
    // A Superset request heard on segment 1 by device 0 ({0,1,2})
    // floods to {0,2}; the same frame heard by device 1 ({1,3})
    // floods to {3}.
    assert_eq!(set(ps[0].route(&superset_req(2, 0), 1, T0)), vec![0, 2]);
    assert_eq!(set(ps[1].route(&superset_req(2, 0), 1, T0)), vec![3]);
}

#[test]
fn tree_home_port_points_along_the_path() {
    let ps = tree_4_policies();
    // Page 3 is homed on segment 3. Device 0 reaches it via port 1;
    // device 1 is adjacent.
    assert_eq!(ps[0].home_port(PageId::new(3)), Some(1));
    assert_eq!(ps[1].home_port(PageId::new(3)), Some(3));
    // Data for page 3 heard on segment 0 hops toward home.
    assert_eq!(set(ps[0].targets(&data(0, 3, None), 0, T0)), vec![1]);
}

#[test]
fn tree_subscription_pins_the_port_toward_the_segment() {
    let mut ps = tree_4_policies();
    // Subscribe segment 3 to page 0 (homed on 0): device 0 pins its
    // port 1 (toward 3), device 1 pins port 3.
    for p in &mut ps {
        p.subscribe(PageId::new(0), 3);
    }
    assert_eq!(set(ps[0].targets(&data(0, 0, None), 0, T0)), vec![1]);
    assert_eq!(set(ps[1].targets(&data(0, 0, None), 1, T0)), vec![3]);
}

#[test]
fn tree_holder_chase_turns_at_fresher_beliefs() {
    // Chain 0-1-2-3. Holder starts on segment 3; data flowed to
    // segment 0, so every device believes "holder toward 3". Then
    // the holder moves 3 → 2; only devices on that path (device 2)
    // hear the transfer. A request from segment 0 must still arrive:
    // devices 0 and 1 forward on their stale beliefs, device 2 turns
    // nothing — segment 2 *is* where the frame lands.
    let cfg = FabricConfig::chain(4);
    let boot = BootState::new(Arc::new(cfg.topology.clone()), Vec::new());
    let mut ps: Vec<BridgePolicy> = (0..3)
        .map(|d| BridgePolicy::for_device(layout_4x2(), &boot, d, &cfg))
        .collect();
    // Reply data 3 → 0 teaches every device holder-toward-3.
    let _ = ps[2].route(&data(6, 0, None), 3, T0);
    let _ = ps[1].route(&data(6, 0, None), 2, T0);
    let _ = ps[0].route(&data(6, 0, None), 1, T0);
    // Holder transfer 3 → 2 (host 6 → host 4): seen on segment 3 by
    // device 2 only (it forwards to segment 2, where the move ends).
    assert_eq!(set(ps[2].route(&data(6, 0, Some(4)), 3, T0)), vec![2]);
    assert_eq!(ps[2].holder_port(PageId::new(0)), Some(2));
    // Request from segment 0 chases: device 0 → port 1 (stale but
    // correct direction), device 1 → port 2, device 2 hears it on
    // port 2 where its belief now points — the chase ends there, on
    // the holder's own segment.
    assert_eq!(set(ps[0].route(&req(0, 0), 0, T0)), vec![1]);
    assert_eq!(set(ps[1].route(&req(0, 0), 1, T0)), vec![2]);
    assert!(ps[2].route(&req(0, 0), 2, T0).is_empty());
}

#[test]
fn targets_is_the_same_walk_as_route_on_wide_devices() {
    // After a frame is routed, targets() of the same frame at the
    // same instant names exactly the ports route_into chose — on
    // the 16×16 mesh, whose segment ids run past a mask's inline
    // width, and on a 160-port star.
    let mut rng = StdRng::seed_from_u64(7);
    for topology in [BridgeTopology::mesh2d(16, 16), BridgeTopology::star(160)] {
        let topology = Arc::new(topology);
        let segments = topology.segments();
        let layout = SegmentLayout::new(2 * segments, segments).unwrap();
        let cfg = FabricConfig::new(BridgeTopology::clone(&topology));
        let boot = BootState::new(Arc::clone(&topology), Vec::new());
        let last = topology.bridges() - 1;
        for device in [0, last / 2, last] {
            let mut p = BridgePolicy::for_device(layout, &boot, device, &cfg);
            let ports = topology.ports(device);
            for step in 1..=200 {
                let in_port = ports[rng.gen_range(0..ports.len() as u64) as usize];
                let (from, page) = (host_on(in_port), rng.gen_range(0..300) as u32);
                let pkt = match rng.gen_range(0..4) {
                    0 => req(from, page),
                    1 => superset_req(from, page),
                    kind => Packet::PageData {
                        from: HostId(from),
                        page: PageId::new(page),
                        length: PageLength::Short,
                        generation: Generation(kind),
                        transfer_to: (kind == 3)
                            .then(|| HostId(rng.gen_range(0..2 * segments as u64) as u16)),
                        data: Bytes::from(vec![0u8; 32]),
                    },
                };
                let now = ms(step);
                let routed = p.route(&pkt, in_port, now);
                assert_eq!(
                    routed,
                    p.targets(&pkt, in_port, now),
                    "{pkt:?} on {in_port}"
                );
            }
        }
    }
}
