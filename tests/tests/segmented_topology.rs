//! The multi-segment scaling claim, end to end.
//!
//! The paper's cost model says per-host load stays O(1) because the
//! network does the fan-out — but on one shared segment every host
//! still *hears* every frame, so per-host frames-snooped grows with
//! cluster-wide traffic. Splitting the cluster into bridged segments
//! with a filtering bridge caps that at the segment's own traffic.
//!
//! This file pins the headline number (≥3× fewer frames snooped per
//! host on 4×8 segments vs 1×32 flat, publisher broadcast workload —
//! the figures recorded in `BENCH_baseline.json`), the `HostMask`
//! properties behind `Recipients::Subset`, and the golden digest of
//! the masked fan-out path.

use mether_core::HostMask;
use mether_net::{FabricConfig, SimDuration};
use mether_sim::{Recipients, RunLimits, SimConfig, Simulation, Topology};
use mether_workloads::{
    build_cross_segment_counting, build_fabric_readers, build_publisher_sim,
    build_segmented_publisher, run_segmented, CountingConfig, Protocol,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The acceptance criterion.
// ---------------------------------------------------------------------

fn mean_frames_heard(sim: &Simulation) -> f64 {
    let n = sim.host_count();
    (0..n).map(|h| sim.host(h).frames_heard).sum::<u64>() as f64 / n as f64
}

#[test]
fn four_by_eight_segments_snoop_at_least_3x_fewer_frames_than_flat_32() {
    const CYCLES: u32 = 64;

    let mut flat = build_publisher_sim(32, CYCLES);
    let flat_outcome = flat.run(RunLimits::default());
    assert!(flat_outcome.finished);

    let mut seg = build_segmented_publisher(4, 8, CYCLES);
    let report = run_segmented(&mut seg, "publisher 4x8", 1, RunLimits::default());
    assert!(report.outcome.finished);

    // Identical offered traffic: the publisher broadcast the same
    // number of frames in both deployments.
    assert_eq!(
        flat.net_stats().packets,
        seg.net_stats().packets,
        "same broadcasts on the wire"
    );

    let flat_mean = mean_frames_heard(&flat);
    let seg_mean = mean_frames_heard(&seg);
    let ratio = flat_mean / seg_mean;
    // The BENCH_baseline.json `_meta_pr3` figures (visible with
    // `--nocapture`).
    eprintln!(
        "publisher x{CYCLES}: transits={} | frames-heard/host flat 1x32 = {flat_mean:.2}, segmented 4x8 = {seg_mean:.2}, ratio {ratio:.2}x | cross-segment bytes = {}",
        flat.net_stats().packets,
        report.cross_segment_bytes,
    );
    assert!(
        ratio >= 3.0,
        "frames snooped per host must shrink ≥3× (flat {flat_mean:.1}, segmented {seg_mean:.1}, ratio {ratio:.2}×)"
    );

    // Where the win comes from: the bridge filtered every transit (page
    // 0 is homed on segment 0 and nobody off-segment wants it), so the
    // other three segments' wires — and their 24 hosts — saw nothing.
    assert_eq!(report.cross_segment_bytes, 0);
    for s in 1..4 {
        assert_eq!(seg.segment_stats(s).packets, 0, "segment {s} silent");
    }
    for h in 8..32 {
        assert_eq!(seg.host(h).frames_heard, 0, "host {h} snooped nothing");
    }
    // And the hosts sharing the publisher's segment still snoop it all —
    // per-host load is the segment's traffic, not the cluster's.
    for h in 1..8 {
        assert_eq!(
            seg.host(h).frames_heard,
            seg.segment_stats(0).packets,
            "host {h} heard its own segment"
        );
    }
}

// ---------------------------------------------------------------------
// The PR 4 acceptance criterion, restated once replies were scoped: on
// a holder-stable request workload (one publisher-side holder at 32
// hosts, readers polling from every other segment of a 4×8 balanced
// tree), holder-directed routing with scoped replies must carry fewer
// request frames and far fewer bytes across the fabric than PR 3's
// flooding — while changing nothing about the protocol outcome. The
// flooded run's numbers are literals, recorded when flooding was still
// a request routing.
// ---------------------------------------------------------------------

#[test]
fn routed_fabric_crosses_fewer_request_frames_and_bytes_than_flooding() {
    const ROUNDS: u32 = 48;
    // Fabric-crossing requests, and the wire bytes of everything the
    // fabric forwarded, on the flooded run.
    const FLOODED_REQUESTS: u64 = 261;
    const FLOODED_BYTES: u64 = 41_355;
    let mut sim = build_fabric_readers(FabricConfig::tree(4, 2), 8, ROUNDS);
    let routed = run_segmented(&mut sim, "readers 4x8 tree", 1, RunLimits::default());
    assert!(routed.outcome.finished, "{:?}", routed.outcome);

    // The flooded run's protocol work: every reader took one fault per
    // round and completed every round.
    assert_eq!(routed.faults, 3 * u64::from(ROUNDS), "one fault per round");
    assert_eq!(routed.metrics.additions, 3 * u64::from(ROUNDS));

    // Request frames crossing the fabric. A reply now crosses only
    // toward the request it answers, so a reader no longer finds its
    // page refreshed by the reply to another segment's request: each
    // fetches its own, and routed requests went 115 → 192 when replies
    // were scoped — still fewer than the flood's.
    let r = routed.metrics.bridge.req_forwarded;
    let bytes = routed.metrics.bridge.bytes_forwarded;
    eprintln!(
        "readers x{ROUNDS} on 4x8 tree: fabric-crossing requests {r} (flooding \
         {FLOODED_REQUESTS}), forwarded bytes {bytes} (flooding {FLOODED_BYTES}), \
         ended at {}",
        routed.outcome.wall
    );
    assert!(
        r <= FLOODED_REQUESTS,
        "routed requests must not exceed the flood's (flooded {FLOODED_REQUESTS}, routed {r})"
    );
    // The bytes are the win: replies stopped fanning out along learned
    // interest, so the fabric forwards a third less than the flood did
    // (32 605 bytes with unscoped replies, 26 544 with scoped ones).
    assert!(
        3 * bytes <= 2 * FLOODED_BYTES,
        "scoped replies must cut forwarded bytes by a third against the flood \
         (flooded {FLOODED_BYTES}, routed {bytes})"
    );
}

// ---------------------------------------------------------------------
// Cross-segment protocol correctness under bridge faults.
// ---------------------------------------------------------------------

#[test]
fn cross_segment_counting_finishes_and_crosses_the_bridge() {
    let cfg = CountingConfig {
        target: 128,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut sim = build_cross_segment_counting(Protocol::P5, &cfg);
    let report = run_segmented(&mut sim, "p5 across 2 segments", 2, RunLimits::default());
    assert!(report.outcome.finished, "{:?}", report.outcome);
    assert_eq!(report.metrics.additions, 128);
    assert!(
        report.cross_segment_bytes > 0,
        "the pair straddles the bridge"
    );
    assert!(report.cross_bytes_per_fault.is_finite());
    // Both parties' segments carried traffic, and the sum view agrees
    // with the per-segment counters.
    let total = sim.segment_stats(0).packets + sim.segment_stats(1).packets;
    assert_eq!(sim.net_stats().packets, total);
}

fn faulty_bridge_sim(drop: f64, duplicate: f64, target: u32) -> Simulation {
    use mether_net::{BridgeConfig, FabricConfig};
    use mether_workloads::build_counting;

    let cfg = CountingConfig {
        target,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut bridge = BridgeConfig::typical().with_seed(9);
    if drop > 0.0 {
        bridge = bridge.with_drop(drop);
    }
    if duplicate > 0.0 {
        bridge = bridge.with_duplicate(duplicate);
    }
    let sim_cfg = SimConfig {
        topology: Topology::fabric(FabricConfig::star(2).with_bridge(bridge)),
        ..SimConfig::paper(2)
    };
    build_counting(Protocol::P5, &cfg, sim_cfg)
}

#[test]
fn duplicating_bridge_is_harmless_to_the_protocol() {
    // Bridges may duplicate frames during topology flaps; Mether's
    // generation counters make replays no-ops, so a *permanently*
    // duplicating bridge must change cost only, never the count.
    let mut sim = faulty_bridge_sim(0.0, 1.0, 96);
    let outcome = sim.run(RunLimits::default());
    assert!(outcome.finished, "duplicates must not wedge the protocol");
    let m = sim.metrics("p5 duplicating bridge", outcome.finished, 2);
    assert_eq!(m.additions, 96, "every addition counted exactly once");
    let bridge = sim.bridge_stats().unwrap();
    assert!(bridge.duplicated > 0, "the knob fired");
}

#[test]
fn dropping_bridge_degrades_deterministically_not_catastrophically() {
    // The raw paper protocols have no retransmit timer — a lost transit
    // can stall a silently-waiting party (exactly the failure mode the
    // paper blames on "the comparatively low reliability of the
    // network"). What the simulator owes us under a dropping bridge is
    // bounded, *deterministic* degradation: the run ends (completion or
    // cap), drops are attributed to the bridge, and two identical runs
    // agree bit for bit.
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(60),
        ..RunLimits::default()
    };
    let digest = |sim: &mut Simulation| {
        let outcome = sim.run(limits);
        let m = sim.metrics("p5 dropping bridge", outcome.finished, 2);
        let b = sim.bridge_stats().unwrap();
        (outcome, m.additions, m.net, b.dropped, b.forwarded)
    };
    let mut a = faulty_bridge_sim(0.25, 0.0, 96);
    let mut b = faulty_bridge_sim(0.25, 0.0, 96);
    let da = digest(&mut a);
    let db = digest(&mut b);
    assert_eq!(da, db, "deterministic under bridge loss");
    let (outcome, _, _, dropped, _) = da;
    assert!(dropped > 0, "the drop knob fired");
    // The run terminated — either the protocol powered through or the
    // cap tripped; both are legal, wedging the event loop is not.
    assert!(outcome.events > 0);
}

#[test]
fn bridge_queue_tail_drops_surface_in_protocol_metrics() {
    // A slow, 1-frame bridge device between a broadcast-happy publisher
    // and a subscribed remote segment: purge broadcasts arrive every
    // ~15 ms while the store-and-forward service takes 100 ms, so the
    // queue tail-drops most of them — and those drops must surface in
    // `ProtocolMetrics.bridge` (the fabric-wide sum), not sit invisible
    // in the per-device counters.
    use mether_core::PageId;
    use mether_net::{BridgeConfig, BridgeStats};
    use mether_workloads::Publisher;

    let bridge = BridgeConfig::typical()
        .with_forward_delay(SimDuration::from_millis(100))
        .with_queue_frames(1);
    let mut sim = Simulation::new(SimConfig {
        topology: Topology::fabric(FabricConfig::star(2).with_bridge(bridge)),
        ..SimConfig::paper(4)
    });
    let page = PageId::new(0);
    sim.create_owned(0, page);
    sim.subscribe_segment(page, 1);
    sim.add_process(0, Box::new(Publisher::new(page, 64)));
    let outcome = sim.run(RunLimits::default());
    assert!(outcome.finished);
    let m = sim.metrics("slow 1-frame bridge", outcome.finished, 1);
    assert!(
        m.bridge.queue_drops > 0,
        "the 1-frame queue tail-dropped: {:?}",
        m.bridge
    );
    assert_eq!(
        m.bridge,
        sim.bridge_stats().unwrap(),
        "metrics surface the fabric counters"
    );
    assert_eq!(
        m.bridge,
        BridgeStats::sum(m.bridge_devices.iter().copied()),
        "the fabric-wide row is the per-device sum"
    );
    // The drops are real: the subscribed segment heard fewer transits
    // than the publisher broadcast.
    assert!(
        sim.segment_stats(1).packets < sim.segment_stats(0).packets,
        "tail-dropped frames never reached segment 1"
    );
    assert!(
        sim.segment_stats(0).packets - sim.segment_stats(1).packets >= m.bridge.queue_drops,
        "every accounted tail-drop is a transit segment 1 never heard \
         (the remainder is the copy still in flight when the run ended)"
    );
}

// ---------------------------------------------------------------------
// The masked (Subset) fan-out through the bridge, pinned by digest.
// ---------------------------------------------------------------------

fn segmented_run_digest() -> String {
    let cfg = CountingConfig {
        target: 96,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut sim = build_cross_segment_counting(Protocol::P5, &cfg);
    let outcome = sim.run(RunLimits::default());
    let m = sim.metrics("p5", outcome.finished, 2);
    format!(
        "finished={} wall={} net={:?} heard={:?} ctx={} additions={}",
        m.finished,
        m.wall.as_nanos(),
        m.net,
        (0..sim.host_count())
            .map(|h| sim.host(h).frames_heard)
            .collect::<Vec<_>>(),
        m.ctx_switches,
        m.additions,
    )
}

#[test]
fn segmented_delivery_modes_agree() {
    // The per-host schedule delivered a Subset mask one event per
    // member, in the ascending order the per-transit fan-out walks, and
    // the outcomes were identical through the bridge too. The literal is
    // the FNV-1a of the digest both produced at the last commit that
    // could run both.
    let transit = segmented_run_digest();
    let fnv = transit.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    assert_eq!(
        fnv, 0x3752_8f98_b333_77f2,
        "cross-segment P5 moved off its golden digest (now {fnv:#018x}):\n{transit}"
    );
}

// ---------------------------------------------------------------------
// HostMask / Recipients properties: iteration order, dedup against
// AllExcept, and the round-trip through a Deliver fan-out.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_hostmask_iterates_sorted_and_deduped(xs in proptest::collection::vec(0usize..128, 0..48)) {
        let mask: HostMask = xs.iter().copied().collect();
        let got: Vec<usize> = mask.iter().collect();
        let mut expect = xs.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn prop_subset_of_all_except_mask_equals_all_except(n in 2usize..64, sender_raw in 0usize..64) {
        let sender = sender_raw % n;
        // The two spellings of "everyone on this n-host segment except
        // the sender" resolve to the same recipient set…
        let all_except = Recipients::AllExcept(sender).to_mask(n);
        let subset = Recipients::Subset(HostMask::all_except(n, sender)).to_mask(n);
        prop_assert_eq!(all_except, subset);
        // …and the set never contains the sender or an off-network host.
        prop_assert!(!all_except.contains(sender));
        prop_assert_eq!(all_except.len(), n - 1);
        prop_assert!(all_except.iter().all(|h| h < n));
    }

    #[test]
    fn prop_subset_mask_clips_to_deployment(xs in proptest::collection::vec(0usize..128, 0..48), n in 1usize..128) {
        let mask: HostMask = xs.iter().copied().collect();
        let clipped = Recipients::Subset(mask).to_mask(n);
        let expect: Vec<usize> = {
            let mut v: Vec<usize> = xs.iter().copied().filter(|&h| h < n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        prop_assert_eq!(clipped.iter().collect::<Vec<_>>(), expect);
    }
}

/// The round-trip through `Deliver`: a Subset-addressed transit reaches
/// exactly the masked hosts, in mask order, once each. Driven through a
/// real segmented run (the publisher's purge broadcasts on segment 0)
/// rather than a synthetic heap, so the property covers the scheduler,
/// the heap, and the fan-out together.
#[test]
fn subset_deliver_round_trip_reaches_exactly_the_masked_hosts() {
    for (segments, hosts_per_segment) in [(2, 3), (3, 2), (4, 2)] {
        let mut sim = build_segmented_publisher(segments, hosts_per_segment, 16);
        let outcome = sim.run(RunLimits::default());
        assert!(outcome.finished);
        let transits = sim.segment_stats(0).packets;
        assert!(transits >= 16);
        for h in 0..sim.host_count() {
            let heard = sim.host(h).frames_heard;
            if h == 0 {
                assert_eq!(heard, 0, "the sender never hears its own frames");
            } else if sim.segment_of(h) == 0 {
                assert_eq!(
                    heard, transits,
                    "segment-0 host {h} heard every transit once"
                );
            } else {
                assert_eq!(heard, 0, "off-segment host {h} heard nothing");
            }
        }
    }
}
