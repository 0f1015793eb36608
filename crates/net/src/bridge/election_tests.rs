/// 32 quiescent devices take `32 / GOSSIP_WINDOW` hellos to
/// re-announce every view in full — the resync horizon a revived
/// device faces when nothing else is changing.
#[test]
fn anti_entropy_covers_32_devices_in_4_hellos() {
    let segs = 33; // chain(33) = 32 two-port devices
    let layout = SegmentLayout::new(segs, segs).unwrap();
    let topology = Arc::new(BridgeTopology::chain(segs));
    let n = topology.bridges();
    let cfg = FabricConfig::chain(segs);
    let mut p = BridgePolicy::for_device(layout, &BootState::new(topology, Vec::new()), 0, &cfg);
    let mut covered = vec![false; n];
    let hellos = (1..=n)
        .find(|_| {
            let Packet::BridgePdu { entries, .. } = p.pdu_for_emission() else {
                panic!("hellos are bridge PDUs");
            };
            for (d, _) in entries {
                covered[d as usize] = true;
            }
            covered.iter().all(|c| *c)
        })
        .expect("anti-entropy window never covered the fabric");
    assert_eq!(GOSSIP_WINDOW, 8);
    assert_eq!(hellos, 4, "32 devices / 8 per hello");
}

/// A fabric of at most `GOSSIP_WINDOW` devices hears every view in
/// every hello, whatever the news and wherever the cursor stands.
#[test]
fn small_fabrics_hear_every_view_in_every_hello() {
    for segs in [2, 5, GOSSIP_WINDOW] {
        let mut f = live_ring_fabric(segs, segs);
        let n = f.device(0).policy().views().len();
        assert!(n <= GOSSIP_WINDOW, "ring({segs}) has {n} devices");
        // No hello is delivered, so the first round's devices
        // declare their silent neighbours dead: a hello of news,
        // then hellos of unchanged entries.
        for round in 1..=3u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(5 * round);
            for d in 0..n {
                for out in f.tick(d, t) {
                    let Packet::BridgePdu { entries, .. } = &out.pkt else {
                        panic!("hellos are bridge PDUs");
                    };
                    let views = f.device(d).policy().views();
                    let expect: Vec<(u16, DeviceView)> = (0..n as u16)
                        .map(|i| (i, views[i as usize].clone()))
                        .collect();
                    assert_eq!(entries, &expect, "ring({segs}) device {d} round {round}");
                }
            }
        }
    }
}

// -----------------------------------------------------------------
// The election, wired through policy and fabric.
// -----------------------------------------------------------------

fn live_ring_fabric(segments: usize, hosts: usize) -> Fabric {
    let layout = SegmentLayout::new(hosts, segments).unwrap();
    Fabric::new(
        layout,
        FabricConfig::ring(segments).with_election(ElectionMode::live()),
    )
}

#[test]
fn live_election_on_a_tree_is_the_static_tree() {
    // On a tree, the live election with optimistic views must
    // produce exactly the static forwarding state: every port
    // forwarding, identical next hops — the base case the tree
    // fabric's byte-identical pins ride on.
    let layout = SegmentLayout::new(8, 4).unwrap();
    let topo = BridgeTopology::balanced_tree(4, 2);
    let static_f = Fabric::new(layout, FabricConfig::new(topo.clone()));
    let live_f = Fabric::new(
        layout,
        FabricConfig::new(topo.clone()).with_election(ElectionMode::live()),
    );
    for d in 0..topo.bridges() {
        let s = static_f.device(d).policy().active();
        let l = live_f.device(d).policy().active();
        assert_eq!(s, l, "device {d} active tree");
        let all: HostMask = topo.ports(d).iter().copied().collect();
        assert_eq!(l.forwarding(d), all);
    }
}

#[test]
fn ring_blocks_its_redundant_port_and_routes_around_it() {
    let mut f = live_ring_fabric(4, 8);
    // Healthy ring: the elected tree blocks exactly one port
    // (device 2's port on segment 3 for uniform priorities).
    let blocked: usize = (0..4)
        .map(|d| {
            let p = f.device(d).policy();
            2 - p.active().forwarding(d).len()
        })
        .sum();
    assert_eq!(blocked, 1, "one dormant redundant port");
    // Data for page 0 (homed segment 0) transmitted on segment 0
    // reaches nobody (no interest) — but a request from segment 2
    // crosses toward the holder without looping.
    let out = f.pickup(&req(4, 0), 2, SimTime::ZERO);
    assert!(!out.is_empty());
    for fw in out {
        assert_ne!(fw.dst, 2, "never forwarded back out the incoming port");
    }
}

#[test]
fn hello_timeout_declares_a_dead_neighbour_and_reconverges() {
    let mut f = live_ring_fabric(4, 8);
    let ElectionMode::Live {
        hello_interval,
        hello_timeout,
        ..
    } = f.election()
    else {
        panic!("live fabric")
    };
    // Warm-up: everyone hellos at t = interval, hearing each other.
    let t1 = SimTime::ZERO + hello_interval;
    let mut frames: Vec<Emission> = Vec::new();
    for d in 0..4 {
        frames.extend(f.tick(d, t1));
    }
    assert!(!frames.is_empty(), "live devices emit hellos");
    for c in &frames {
        let more = f.hear_control(&c.pkt, c.seg, t1, c.device);
        for m in more {
            let _ = f.hear_control(&m.pkt, m.seg, t1, m.device);
        }
    }
    assert_eq!(f.reconvergences(), 0, "a healthy fabric never re-elects");
    // Device 0 dies; its neighbours stop hearing it.
    f.apply_event(FabricEvent::BridgeDown(0), t1);
    assert!(f.is_dead(0));
    let t_dead = t1 + hello_timeout + hello_interval + hello_interval;
    let mut changed = Vec::new();
    for d in 1..4 {
        changed.extend(f.tick(d, t_dead));
    }
    // Gossip the obituaries until quiet.
    let mut guard = 0;
    while !changed.is_empty() && guard < 64 {
        let c = changed.remove(0);
        changed.extend(f.hear_control(&c.pkt, c.seg, t_dead, c.device));
        guard += 1;
    }
    assert!(f.reconvergences() >= 1, "the survivors re-elected");
    // The surviving devices all agree device 0 is gone and route
    // around it: a request from segment 1 still reaches segment 0
    // the long way (1 → 2 → 3 → 0).
    for d in 1..4 {
        assert!(f.device(d).policy().active().fully_connected_from(d));
    }
}

#[test]
fn contradictory_pdu_device_id_is_counted_and_ignored() {
    let mut f = live_ring_fabric(4, 8);
    let ElectionMode::Live { hello_interval, .. } = f.election() else {
        panic!("live fabric")
    };
    let t1 = SimTime::ZERO + hello_interval;
    let frames = f.tick(0, t1);
    let c = &frames[0];
    let Packet::BridgePdu { from, entries, .. } = c.pkt.clone() else {
        panic!("hellos are bridge PDUs")
    };
    // A genuine hello from device 0, but the wire claims device 1
    // emitted it: the embedded id contradicts the actual emitter.
    let lying = Packet::BridgePdu {
        from,
        device: 1,
        entries: entries.clone(),
    };
    // Each device that hears it counts it: on the ring that is the
    // one other device on the segment.
    assert!(f.hear_control(&lying, c.seg, t1, c.device).is_empty());
    assert_eq!(f.stats().malformed_pdus, 1);
    // An id naming no device of this fabric is rejected the same
    // way, even when it matches the claimed emitter — and both of
    // the segment's devices hear it, since neither emitted it.
    let alien = Packet::BridgePdu {
        from,
        device: 99,
        entries,
    };
    assert!(f.hear_control(&alien, c.seg, t1, 99).is_empty());
    assert_eq!(f.stats().malformed_pdus, 3);
    // Neither frame refreshed a neighbour's liveness stamp, so the
    // healthy fabric still has nothing to re-elect over.
    assert_eq!(f.reconvergences(), 0);
}

#[test]
fn reconvergence_flushes_learned_state_on_changed_ports() {
    let mut f = live_ring_fabric(4, 8);
    let ElectionMode::Live {
        hello_interval,
        hello_timeout,
        hold_down,
    } = f.election()
    else {
        panic!("live fabric")
    };
    // Teach device 2 a holder belief for page 0 toward segment 2
    // (in from its forwarding port): data arriving on segment 2.
    let _ = f.pickup(&data(4, 0, None), 2, SimTime::ZERO);
    assert_eq!(f.device(2).policy().holder_port(PageId::new(0)), Some(2));
    // Kill device 0; survivors reconverge — device 2's blocked port
    // (segment 3) turns Forwarding, and flushes.
    let t1 = SimTime::ZERO + hello_interval;
    f.apply_event(FabricEvent::BridgeDown(0), t1);
    let t_dead = t1 + hello_timeout + hello_interval + hello_interval;
    let mut frames = Vec::new();
    for d in 1..4 {
        frames.extend(f.tick(d, t_dead));
    }
    let mut guard = 0;
    while !frames.is_empty() && guard < 64 {
        let c = frames.remove(0);
        frames.extend(f.hear_control(&c.pkt, c.seg, t_dead, c.device));
        guard += 1;
    }
    let p2 = f.device(2).policy();
    assert!(p2.election_epoch() >= 1);
    // Port 3 of device 2 changed role (Blocked → Forwarding): any
    // belief through an unchanged port survives, the changed port's
    // state is clean, and the port holds down before carrying data.
    assert!(p2.active().forwarding(2).contains(3));
    let held = p2.targets(&data(0, 1, None), 3, t_dead);
    assert!(held.is_empty(), "held-down ingress carries nothing");
    let after_hold = t_dead + hold_down + SimDuration::from_micros(1);
    let flowing = p2.targets(&data(0, 1, None), 3, after_hold);
    assert!(
        flowing.contains(2),
        "after the hold-down the new tree carries data toward home"
    );
}

#[test]
fn bridge_up_revives_with_a_version_above_its_obituary() {
    let mut f = live_ring_fabric(4, 8);
    let t = SimTime::ZERO + SimDuration::from_millis(10);
    f.apply_event(FabricEvent::BridgeDown(1), t);
    assert!(f.is_dead(1));
    let t2 = t + SimDuration::from_millis(10);
    f.apply_event(FabricEvent::BridgeUp(1), t2);
    assert!(!f.is_dead(1));
    // The revived device's hello asserts itself at version 2 —
    // above the version-1 obituary any neighbour may still be
    // gossiping.
    let outs = f.tick(1, t2 + SimDuration::from_millis(1));
    let Packet::BridgePdu { entries, .. } = &outs[0].pkt else {
        panic!("hellos are bridge PDUs")
    };
    let (_, own) = entries.iter().find(|(d, _)| *d == 1).expect("own view");
    assert_eq!(own.version, 2);
    assert!(own.alive);
    assert_eq!(f.timeline().len(), 2, "both events on the timeline");
}

#[test]
fn revival_rejoins_held_down_stamped_and_with_its_history() {
    // The three revival transients, pinned: (a) a revived device's
    // ports boot in their hold-down — its optimistic construction
    // tree must not forward before the first hello exchange, or a
    // transient loop could close on the redundant wiring; (b) its
    // neighbour stamps start at the revival time, so its first tick
    // does NOT declare every neighbour dead off a zeroed clock;
    // (c) the run's traffic accounting survives the cold restart.
    let mut f = live_ring_fabric(4, 8);
    let ElectionMode::Live {
        hello_interval,
        hold_down,
        ..
    } = f.election()
    else {
        panic!("live fabric")
    };
    // Pre-kill traffic: device 1 ({1,2}) forwards a request from
    // segment 2 toward page 0's home (segment 1 → device 0 → 0).
    let _ = f.pickup(&req(4, 0), 2, SimTime::ZERO);
    let pre = f.device(1).stats();
    assert!(pre.forwarded > 0, "device 1 carried pre-kill traffic");
    // Kill late enough that a zeroed clock would look timed out.
    let t_down = SimTime::ZERO + SimDuration::from_millis(50);
    f.apply_event(FabricEvent::BridgeDown(1), t_down);
    let t_up = t_down + SimDuration::from_millis(100);
    f.apply_event(FabricEvent::BridgeUp(1), t_up);
    // (a) Every port held down: no data in or out until it expires.
    let during_hold = t_up + SimDuration::from_micros(10);
    assert!(
        f.device(1)
            .policy()
            .targets(&req(2, 0), 1, during_hold)
            .is_empty(),
        "held-down ports must not forward"
    );
    let after_hold = t_up + hold_down + SimDuration::from_micros(1);
    assert!(
        !f.device(1)
            .policy()
            .targets(&req(2, 0), 1, after_hold)
            .is_empty(),
        "forwarding resumes once the hold-down expires"
    );
    // (b) The first tick after revival raises no obituaries: the
    // neighbour stamps were reset to the revival time.
    let outs = f.tick(1, t_up + hello_interval);
    assert!(!outs.is_empty(), "the revived device hellos");
    let Packet::BridgePdu { entries, .. } = &outs[0].pkt else {
        panic!()
    };
    for (d, v) in entries {
        assert!(v.alive, "device {d} wrongly declared dead at revival");
    }
    // (c) The pre-kill counters carried over into the new life.
    let post = f.device(1).stats();
    assert!(post.forwarded >= pre.forwarded);
    assert!(post.heard >= pre.heard);
}

#[test]
fn link_down_survives_a_revival() {
    let mut f = live_ring_fabric(4, 8);
    let t = SimTime::ZERO;
    f.apply_event(
        FabricEvent::LinkDown {
            device: 1,
            segment: 2,
        },
        t,
    );
    assert_eq!(set(f.device(1).policy().self_live_ports()), vec![1]);
    // Frames on the severed segment are no longer picked up by 1.
    let out = f.pickup(&req(4, 0), 2, t);
    assert!(out.iter().all(|fw| fw.device != 1));
    // Death and revival do not repair the cable.
    f.apply_event(FabricEvent::BridgeDown(1), t + SimDuration::from_millis(1));
    f.apply_event(FabricEvent::BridgeUp(1), t + SimDuration::from_millis(2));
    assert_eq!(set(f.device(1).policy().self_live_ports()), vec![1]);
}

#[test]
fn repeated_and_no_op_events_change_nothing() {
    let mut f = live_ring_fabric(4, 8);
    let down = FabricEvent::LinkDown {
        device: 1,
        segment: 2,
    };
    assert!(f.apply_event(down, ms(1)));
    let version = f.device(1).policy().views()[1].version;
    let epoch = f.device(1).policy().election_epoch();
    let timeline = f.timeline().to_vec();
    // The link is already lost: the second LinkDown neither bumps
    // the self-version nor re-elects nor leaves a timeline entry.
    assert!(!f.apply_event(down, ms(2)));
    assert_eq!(f.device(1).policy().views()[1].version, version);
    assert_eq!(f.device(1).policy().election_epoch(), epoch);
    assert_eq!(f.timeline(), timeline);
    // The same for a BridgeDown of a dead device and a BridgeUp of
    // a live one.
    assert!(f.apply_event(FabricEvent::BridgeDown(3), ms(3)));
    let timeline = f.timeline().to_vec();
    assert!(!f.apply_event(FabricEvent::BridgeDown(3), ms(4)));
    assert!(!f.apply_event(FabricEvent::BridgeUp(0), ms(4)));
    assert_eq!(f.timeline(), timeline);
    assert_eq!(f.restarts(0), 0);
}

#[test]
fn each_device_counts_the_lying_hellos_it_hears() {
    // Each device that hears a contradictory hello counts it in its
    // own stats; the emitter does not hear its own frame.
    let mut f = live_ring_fabric(4, 8);
    let frames = f.tick(0, ms(1));
    let Packet::BridgePdu { from, entries, .. } = frames[0].pkt.clone() else {
        panic!("hellos are bridge PDUs")
    };
    let seg = frames[0].seg;
    let lying = Packet::BridgePdu {
        from,
        device: 1,
        entries,
    };
    let hearer = *(f.topology().bridges_on(seg).iter())
        .find(|&&d| d != 0)
        .unwrap();
    assert!(f.hear_control(&lying, seg, ms(1), 0).is_empty());
    assert_eq!(f.device(hearer).stats().malformed_pdus, 1);
    assert_eq!(f.device(0).stats().malformed_pdus, 0);
    assert_eq!(f.stats().malformed_pdus, 1);
    // The honest hello is heard: a fresh device's first news of its
    // neighbour changes nothing, so nothing is triggered either.
    let honest = frames[0].pkt.clone();
    assert!(f.hear_control(&honest, seg, ms(1), 0).is_empty());
    assert_eq!(f.stats().malformed_pdus, 1);
}

#[test]
fn static_election_ignores_the_control_plane() {
    let layout = SegmentLayout::new(8, 4).unwrap();
    let mut f = Fabric::new(layout, FabricConfig::tree(4, 2));
    assert!(f.tick(0, SimTime::ZERO).is_empty(), "no hellos");
    assert_eq!(f.election().hello_interval(), None);
    assert_eq!(f.reconvergences(), 0);
}
