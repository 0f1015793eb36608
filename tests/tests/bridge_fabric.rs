//! The routed bridge fabric, pinned end to end.
//!
//! Four property/regression layers over `mether_net::bridge` and the
//! topologies in `mether_core::topology`:
//!
//! 1. **Next-hop derivation** (property tests): on arbitrary trees,
//!    hop-by-hop forwarding along the derived tables walks exactly the
//!    unique tree path between any two segments, and no device ever
//!    forwards a frame back out its incoming port.
//! 2. **Interest aging invariants** (property tests): whatever frames a
//!    device sees, the home port is never evicted and pins survive;
//!    after an eviction, fresh demand reinstates the entry.
//! 3. **Routed ≡ flooding**: holder-directed request routing must change
//!    *which wires carry requests* and nothing else — byte-identical
//!    outcomes on the 2-segment counting workloads at 3 lossy seeds
//!    (where the modes are structurally equivalent, pinning that the
//!    routed code path is exactly PR 3's in the base case), identical
//!    final page states and protocol outcomes on the 3-segment solver
//!    (where routing genuinely removes frames from uninvolved wires),
//!    and identical results from the threaded runtime.
//! 4. **Aging in anger**: a reader segment that stops touching a page
//!    stops receiving its transits — its snooped-frame count goes flat
//!    while an active reader's keeps climbing.
//!
//! Plus the placement pin: the automatic write-graph placement
//! reproduces the hand-placed solver byte for byte; the election
//! properties on random connected graphs; and the boot-state sharing
//! pins — a fresh fabric's devices hold one tree and one view table
//! between them, equal to the per-device cold election, and diverge
//! copy-on-write without ever aliasing.

use mether_core::{BridgeTopology, HostMask, PageId, SegmentLayout};
use mether_net::{
    AgeHorizon, BridgePolicy, Fabric, FabricConfig, RequestRouting, SimDuration, SimTime,
};
use mether_sim::{ProtocolMetrics, RunLimits, SimConfig, Simulation, Topology};
use mether_workloads::{
    build_counting, build_segmented_solver, build_segmented_solver_on, CountingConfig,
    PollingReader, Protocol, SolverConfig, SolverWorker,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Random trees for the routing properties come from
// `BridgeTopology::from_parents` (the parent-vector family: stars,
// chains, and everything between) — promoted into mether-core so the
// soak generator draws from the same family instead of duplicating it.
// ---------------------------------------------------------------------

fn tree_from_parents(parents: &[usize]) -> BridgeTopology {
    BridgeTopology::from_parents(parents)
}

proptest! {
    /// Every segment pair routes along the unique tree path: the
    /// next-hop walk ends at the destination, never revisits a segment,
    /// never immediately backtracks, and its length is the same in both
    /// directions (it is the same path).
    #[test]
    fn prop_next_hop_walk_is_the_unique_tree_path(
        parents in proptest::collection::vec(0usize..64, 1..12)
    ) {
        let t = tree_from_parents(&parents);
        let n = t.segments();
        for src in 0..n {
            for dst in 0..n {
                let path = t.path(src, dst);
                if src == dst {
                    prop_assert!(path.is_empty());
                    continue;
                }
                prop_assert_eq!(path.last().unwrap().1, dst, "walk ends at dst");
                let mut visited = vec![src];
                let mut here = src;
                for &(bridge, out) in &path {
                    // The hop leaves through a real port of the bridge,
                    // never the one it came in on.
                    prop_assert!(t.ports(bridge).contains(&here));
                    prop_assert!(t.ports(bridge).contains(&out));
                    prop_assert_ne!(out, here, "no hop forwards back toward the sender");
                    prop_assert!(!visited.contains(&out), "tree paths are simple");
                    visited.push(out);
                    here = out;
                }
                // Symmetric: the reverse walk is the same path backwards.
                let back = t.path(dst, src);
                prop_assert_eq!(back.len(), path.len());
                let fwd_bridges: Vec<usize> = path.iter().map(|&(b, _)| b).collect();
                let mut back_bridges: Vec<usize> = back.iter().map(|&(b, _)| b).collect();
                back_bridges.reverse();
                prop_assert_eq!(fwd_bridges, back_bridges);
            }
        }
    }

    /// A device's forwarding mask never contains the incoming port and
    /// never leaves its own ports, for any frame kind, routing mode, and
    /// holder/interest state reached by an arbitrary frame history.
    #[test]
    fn prop_targets_stay_on_ports_and_never_reverse(
        parents in proptest::collection::vec(0usize..8, 1..6),
        history in proptest::collection::vec((0usize..6, 0u8..3, 0usize..48, 0usize..2), 0..24),
        routed in any::<bool>(),
    ) {
        use bytes::Bytes;
        use mether_core::{Generation, HostId, Packet, PageLength, Want};

        let t = Arc::new(tree_from_parents(&parents));
        let n = t.segments();
        let layout = SegmentLayout::new(n * 2, n).unwrap();
        let routing = if routed { RequestRouting::HolderDirected } else { RequestRouting::Flood };
        let mut policies: Vec<BridgePolicy> = (0..t.bridges())
            .map(|d| BridgePolicy::new(
                layout,
                Arc::clone(&t),
                d,
                mether_core::PageHomePolicy::Striped,
                routing,
                AgeHorizon::Transits(3),
            ))
            .collect();
        let now = SimTime::ZERO;
        for (page, kind, host, transfer) in history {
            let page = PageId::new((page % 4) as u32);
            let from = HostId((host % (n * 2)) as u16);
            let pkt = match kind {
                0 => Packet::PageRequest { from, page, length: PageLength::Short, want: Want::ReadOnly },
                1 => Packet::PageData {
                    from, page, length: PageLength::Short, generation: Generation(1),
                    transfer_to: None, data: Bytes::from(vec![0u8; 32]),
                },
                _ => Packet::PageData {
                    from, page, length: PageLength::Short, generation: Generation(2),
                    transfer_to: Some(HostId((transfer * (n * 2 - 1)) as u16)),
                    data: Bytes::from(vec![0u8; 32]),
                },
            };
            // Offer the frame to every device on the sender's segment,
            // as the fabric would.
            let seg = layout.segment_of(from.0 as usize);
            for (d, policy) in policies.iter_mut().enumerate() {
                if !t.ports(d).contains(&seg) {
                    continue;
                }
                let ports: HostMask = t.ports(d).iter().copied().collect();
                let targets = policy.route(&pkt, seg, now);
                prop_assert!(!targets.contains(seg), "never out the incoming port");
                prop_assert!(targets.intersection(&ports) == targets, "only real ports");
            }
        }
    }

    /// The port walk on wide fabrics, for any device, routing mode and
    /// frame history: a pickup's egress ports come out strictly
    /// ascending, never include the port the frame came in on, and stay
    /// within the device's *forwarding* ports — on the 16×16 mesh, whose
    /// boot tree blocks every redundant port and whose segment ids run
    /// past the inline width of a mask, and on a 160-port star where one
    /// flooded request fans out over both sides of that boundary.
    #[test]
    fn prop_routed_ports_ascend_within_the_forwarding_ports(
        mesh in any::<bool>(),
        device in 0usize..480,
        history in proptest::collection::vec((0usize..300, 0u8..4, 0usize..160, 0usize..512), 1..40),
        routed in any::<bool>(),
    ) {
        use bytes::Bytes;
        use mether_core::{Generation, HostId, Packet, PageLength, Want};
        use mether_net::{BootState, Bridge, BridgeConfig};

        let topology = Arc::new(if mesh {
            BridgeTopology::mesh2d(16, 16)
        } else {
            BridgeTopology::star(160)
        });
        let segments = topology.segments();
        let layout = SegmentLayout::new(2 * segments, segments).unwrap();
        let routing = if routed { RequestRouting::HolderDirected } else { RequestRouting::Flood };
        let cfg = FabricConfig::new(BridgeTopology::clone(&topology)).with_routing(routing);
        let boot = BootState::new(Arc::clone(&topology), Vec::new());
        let device = device % topology.bridges();
        let mut bridge = Bridge::new(
            BridgePolicy::for_device(layout, &boot, device, &cfg),
            BridgeConfig::typical().with_queue_frames(usize::MAX),
        );
        let ports = topology.ports(device).to_vec();
        let forwarding = bridge.policy().active().forwarding(device);
        let mut now = SimTime::ZERO;
        for (page, kind, port, host) in history {
            let page = PageId::new(page as u32);
            let in_port = ports[port % ports.len()];
            let from = HostId((2 * in_port) as u16);
            let pkt = match kind {
                0 => Packet::PageRequest { from, page, length: PageLength::Short, want: Want::ReadOnly },
                1 => Packet::PageRequest { from, page, length: PageLength::Full, want: Want::Superset },
                _ => Packet::PageData {
                    from, page, length: PageLength::Short, generation: Generation(kind.into()),
                    transfer_to: (kind == 3).then_some(HostId((host % (2 * segments)) as u16)),
                    data: Bytes::from(vec![0u8; 32]),
                },
            };
            now += SimDuration::from_micros(100);
            let out: Vec<usize> = bridge.pickup(&pkt, in_port, now).iter().map(|&(dst, _)| dst).collect();
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", out);
            prop_assert!(!out.contains(&in_port), "never out the incoming port");
            prop_assert!(out.iter().all(|&dst| forwarding.contains(dst)), "only forwarding ports");
            if !forwarding.contains(in_port) {
                prop_assert!(out.is_empty(), "a blocked port hears nothing");
            }
            let again = bridge.policy().targets(&pkt, in_port, now);
            prop_assert_eq!(again.iter().collect::<Vec<_>>(), out, "targets() is the same walk");
        }
    }

    /// Aging invariants under arbitrary histories: the home port is in
    /// the interest mask after every step, pins never disappear, and a
    /// request on an evicted port reinstates it immediately.
    /// (Horizon 0 is excluded from the reinstatement leg: it means "an
    /// entry expires at the device's next forwarded transit", so the
    /// reinstating request's own forward already retires it — the
    /// home/pin invariants still hold there and are covered by the
    /// `home_and_pins_never_age` unit test.)
    #[test]
    fn prop_aging_never_evicts_home_or_pins_and_reuse_reinstates(
        horizon in 1u64..6,
        pin_seg in 0usize..4,
        evts in proptest::collection::vec((0usize..4, 0usize..4, 0u8..2), 1..32),
    ) {
        use bytes::Bytes;
        use mether_core::{Generation, HostId, Packet, PageLength, Want};

        let layout = SegmentLayout::new(8, 4).unwrap();
        let mut p = BridgePolicy::new(
            layout,
            Arc::new(BridgeTopology::star(4)),
            0,
            mether_core::PageHomePolicy::Striped,
            RequestRouting::Flood,
            AgeHorizon::Transits(horizon),
        );
        let page = PageId::new(0); // homed on segment 0
        p.subscribe(page, pin_seg);
        let now = SimTime::ZERO;
        for (seg, from_seg, kind) in evts {
            let from = HostId((from_seg * 2) as u16);
            let pkt = if kind == 0 {
                Packet::PageRequest { from, page, length: PageLength::Short, want: Want::ReadOnly }
            } else {
                Packet::PageData {
                    from, page, length: PageLength::Short, generation: Generation(1),
                    transfer_to: None, data: Bytes::from(vec![0u8; 32]),
                }
            };
            let _ = p.route(&pkt, seg, now);
            let interest = p.interest(page, now);
            prop_assert!(interest.contains(0), "home port never evicted");
            prop_assert!(interest.contains(pin_seg), "pins never evicted");
        }
        // Age everything learned out (each forwarded transit ticks the
        // clock; home keeps every frame forwardable), then reinstate.
        let data = Packet::PageData {
            from: HostId(2), page, length: PageLength::Short,
            generation: Generation(1), transfer_to: None,
            data: Bytes::from(vec![0u8; 32]),
        };
        for _ in 0..=(horizon + 1) {
            let _ = p.route(&data, 1, now);
        }
        let req = Packet::PageRequest {
            from: HostId(4), page, length: PageLength::Short, want: Want::ReadOnly,
        };
        let _ = p.route(&req, 2, now);
        prop_assert!(
            p.interest(page, now).contains(2),
            "fresh demand reinstates an aged-out port"
        );
    }
}

// ---------------------------------------------------------------------
// Routed ≡ flooding, discrete-event simulator.
// ---------------------------------------------------------------------

const SEEDS: [u64; 3] = [1, 7, 42];

/// FNV-1a over a byte slice — cheap, deterministic content digest.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Every host's final page-table state, flattened to a comparable
/// string: page bytes, generations, holders, locks — the protocol's
/// externally observable memory.
fn page_state_digest(sim: &Simulation) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for h in 0..sim.host_count() {
        let host = sim.host(h);
        writeln!(out, "host{h}:").unwrap();
        for page in host.table.tracked_pages() {
            let buf = host.table.page_buf(page);
            writeln!(
                out,
                "  page{}: gen={:?} holder={} locked={} valid={:?} digest={:016x}",
                page.index(),
                host.table.generation(page),
                host.table.is_consistent_holder(page),
                host.table.is_locked(page),
                buf.map(|b| b.valid_len()),
                buf.map_or(0, |b| fnv(b.as_slice())),
            )
            .unwrap();
        }
    }
    out
}

/// The full fingerprint: page states plus the whole metrics row
/// (timing, traffic, frames heard per host).
fn full_fingerprint(sim: &Simulation, m: &ProtocolMetrics) -> String {
    use std::fmt::Write;
    let mut out = page_state_digest(sim);
    for h in 0..sim.host_count() {
        writeln!(out, "heard{h}={}", sim.host(h).frames_heard).unwrap();
    }
    writeln!(
        out,
        "metrics: finished={} wall={} net={:?} ctx={} losses={} wins={} additions={}",
        m.finished,
        m.wall.as_nanos(),
        m.net,
        m.ctx_switches,
        m.losses,
        m.wins,
        m.additions,
    )
    .unwrap();
    out
}

fn counting_run(
    protocol: Protocol,
    seed: u64,
    routing: RequestRouting,
) -> (Simulation, ProtocolMetrics) {
    let cfg = CountingConfig {
        target: 192,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut sim_cfg = SimConfig::paper(2);
    sim_cfg.ether = sim_cfg.ether.with_loss(0.02, seed);
    sim_cfg.topology = Topology::fabric(FabricConfig::star(2).with_routing(routing));
    let mut sim = build_counting(protocol, &cfg, sim_cfg);
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    };
    let outcome = sim.run(limits);
    let m = sim.metrics(&protocol.label(), outcome.finished, protocol.space_pages());
    (sim, m)
}

#[test]
fn routed_star_is_byte_identical_to_flooding_on_two_segments_at_lossy_seeds() {
    // On a 2-segment star the holder-directed path must degenerate to
    // exactly PR 3's flooding (one other port — belief or no belief,
    // the frame goes there, or nowhere precisely when the holder's own
    // segment already heard it and nobody else exists to tell). The
    // byte-identical pin covers every packet kind, the lossy ether, and
    // both counting protocols at 3 seeds: the routed code path IS the
    // old bridge in the base case.
    for protocol in [Protocol::P1, Protocol::P5] {
        for seed in SEEDS {
            let (flood_sim, flood_m) = counting_run(protocol, seed, RequestRouting::Flood);
            let (routed_sim, routed_m) =
                counting_run(protocol, seed, RequestRouting::HolderDirected);
            assert_eq!(
                full_fingerprint(&flood_sim, &flood_m),
                full_fingerprint(&routed_sim, &routed_m),
                "{protocol:?} seed {seed}: routed diverged from flooding on 2 segments"
            );
        }
    }
}

fn solver_run(routing: RequestRouting, seed: u64) -> (Simulation, ProtocolMetrics) {
    // 3 ranks on 3 segments of a star: flooding sprays every request
    // over both remote segments, holder-directed walks it to the
    // holder's one. Lossless ether so both runs are deterministic; the
    // bridge seed exercises distinct fault-injection RNG streams
    // (no-ops at zero probability, pinning that the streams do not
    // perturb routing).
    const RANKS: usize = 3;
    let cfg = SolverConfig {
        iterations: 6,
        work_per_iteration: SimDuration::from_millis(20),
    };
    let mut sim_cfg = SimConfig::paper(RANKS);
    let fabric = FabricConfig::star(RANKS)
        .with_routing(routing)
        .with_bridge(mether_net::BridgeConfig::typical().with_seed(seed));
    sim_cfg.topology = Topology::fabric(fabric);
    let mut sim = Simulation::new(sim_cfg);
    for rank in 0..RANKS {
        sim.create_owned(rank, PageId::new(rank as u32));
        sim.add_process(rank, Box::new(SolverWorker::new(cfg, rank, RANKS)));
    }
    let outcome = sim.run(RunLimits::default());
    let m = sim.metrics("solver", outcome.finished, RANKS as u32);
    assert!(outcome.finished, "{outcome:?}");
    (sim, m)
}

#[test]
fn routed_solver_matches_flooding_page_states_and_outcomes() {
    // Beyond 2 segments the wire traffic legitimately differs — that is
    // the whole point — but the protocol must not notice: identical
    // final page states (contents, generations, holders) and identical
    // protocol-level outcomes on every rank.
    for seed in SEEDS {
        let (flood_sim, flood_m) = solver_run(RequestRouting::Flood, seed);
        let (routed_sim, routed_m) = solver_run(RequestRouting::HolderDirected, seed);
        assert_eq!(
            page_state_digest(&flood_sim),
            page_state_digest(&routed_sim),
            "seed {seed}: routed solver diverged in page state"
        );
        assert_eq!(flood_m.additions, routed_m.additions);
        assert_eq!(flood_m.finished, routed_m.finished);
        // And the routed run put no MORE request frames on the fabric.
        assert!(routed_m.bridge.req_forwarded <= flood_m.bridge.req_forwarded);
    }
}

// ---------------------------------------------------------------------
// Routed ≡ flooding, threaded runtime.
// ---------------------------------------------------------------------

#[test]
fn runtime_routed_star_serves_every_value_flooding_serves() {
    use mether_core::{MapMode, PageLength, VAddr, View};
    use mether_runtime::{Cluster, ClusterConfig};

    // The threaded runtime is asynchronous: a forwarded refresh from an
    // earlier round can land just after a reader's purge, so individual
    // reads may legitimately observe a recent-but-stale inconsistent
    // copy. The cross-mode guarantee is *eventual freshness*: under
    // either routing mode, every written value becomes visible to every
    // remote reader — never a value from the future, never a wedge.
    let run = |routing: RequestRouting| {
        let fabric = FabricConfig::star(3).with_routing(routing);
        let mut c = Cluster::new(ClusterConfig::fabric(6, fabric)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        for i in 1..=8u32 {
            c.node(0).write_u32(addr, i).unwrap();
            for reader in [2usize, 4] {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                loop {
                    c.node(reader)
                        .purge(page, MapMode::ReadOnly, PageLength::Short)
                        .unwrap();
                    let v = c.node(reader).read_u32(addr, MapMode::ReadOnly).unwrap();
                    assert!(
                        v <= i,
                        "reader {reader} saw a value from the future: {v} > {i}"
                    );
                    if v == i {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "reader {reader} never saw {i} under {routing:?}"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        c.shutdown();
    };
    run(RequestRouting::Flood);
    run(RequestRouting::HolderDirected);
}

// ---------------------------------------------------------------------
// Aging in anger: an idle segment's snoop count goes flat.
// ---------------------------------------------------------------------

fn aging_run(aging: AgeHorizon) -> (u64, u64) {
    // Star over 3 segments, one host each: the holder of page 0 sits on
    // segment 0 (host 0, no process — the server answers requests
    // without application help). Reader A (segment 1) polls 40 rounds;
    // reader B (segment 2) polls 5 rounds and goes idle. Requests are
    // holder-directed so the only traffic reaching B's segment is
    // interest-driven data — the component aging governs (flooded
    // requests would reach every segment regardless of interest).
    // Returns (frames A's host heard, frames B's host heard).
    let mut sim = Simulation::new(SimConfig {
        topology: Topology::fabric(
            FabricConfig::star(3)
                .with_routing(RequestRouting::HolderDirected)
                .with_aging(aging),
        ),
        ..SimConfig::paper(3)
    });
    let page = PageId::new(0);
    sim.create_owned(0, page);
    let pace = SimDuration::from_millis(4);
    sim.add_process(
        1,
        Box::new(PollingReader::new(page, 40, pace, SimDuration::ZERO)),
    );
    sim.add_process(
        2,
        Box::new(PollingReader::new(
            page,
            5,
            pace + SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        )),
    );
    let outcome = sim.run(RunLimits::default());
    assert!(outcome.finished, "{outcome:?}");
    (sim.host(1).frames_heard, sim.host(2).frames_heard)
}

#[test]
fn idle_segment_stops_hearing_transits_under_aging() {
    let (sticky_a, sticky_b) = aging_run(AgeHorizon::Sticky);
    let (aged_a, aged_b) = aging_run(AgeHorizon::Transits(8));
    eprintln!("frames heard: sticky A={sticky_a} B={sticky_b}, aged A={aged_a} B={aged_b}");
    // Sticky (PR 3): B's segment stays interested forever — it keeps
    // hearing A's replies long after its own last fault.
    assert!(
        sticky_b > 25,
        "sticky interest keeps feeding the idle segment ({sticky_b} frames)"
    );
    // Aged: B's interest evicts within the horizon after its 5th round;
    // its snooped-frame count goes flat while A keeps polling.
    assert!(
        aged_b <= 5 + 8 + 4,
        "idle segment must stop hearing transits (heard {aged_b})"
    );
    assert!(aged_b < sticky_b / 2, "the flat line is a real change");
    // The active reader still hears everything it needs — aging never
    // touches live demand.
    assert!(aged_a >= 40, "active reader still fed ({aged_a} frames)");
}

// ---------------------------------------------------------------------
// Automatic placement ≡ hand placement.
// ---------------------------------------------------------------------

#[test]
fn write_graph_placement_reproduces_the_hand_placed_solver() {
    // The hand-placed segmented solver aligned rank pages with striped
    // homes by construction; the write-graph placement must derive the
    // same homes and therefore the byte-identical run.
    let cfg = SolverConfig {
        iterations: 5,
        work_per_iteration: SimDuration::from_millis(20),
    };
    let mut hand = build_segmented_solver(3, 2, cfg);
    let mut auto = build_segmented_solver_on(FabricConfig::star(3), 2, cfg);
    let hand_out = hand.run(RunLimits::default());
    let auto_out = auto.run(RunLimits::default());
    assert!(hand_out.finished && auto_out.finished);
    let hand_m = hand.metrics("solver hand", hand_out.finished, 3);
    let auto_m = auto.metrics("solver auto", auto_out.finished, 3);
    assert_eq!(
        full_fingerprint(&hand, &hand_m),
        full_fingerprint(&auto, &auto_m),
        "derived homes must reproduce the hand placement exactly"
    );
}

// ---------------------------------------------------------------------
// The spanning-tree election on random connected graphs (PR 5).
// ---------------------------------------------------------------------

/// A random connected graph: a random tree (parents) plus `extra`
/// random two-port tie bridges — every wiring this produces is
/// connected, and most have cycles.
fn graph_from(parents: &[usize], extra: &[(usize, usize)]) -> BridgeTopology {
    let tree = tree_from_parents(parents);
    let n = tree.segments();
    let ties: Vec<Vec<usize>> = extra
        .iter()
        .map(|&(a, b)| (a % n, b % n))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| vec![a, b])
        .collect();
    tree.add_redundant_links(ties).expect("ties stay connected")
}

/// Forwarding edges of an elected tree, as (bridge, segment) pairs.
fn forwarding_edges(t: &BridgeTopology, a: &mether_core::ActiveTree) -> Vec<(usize, usize)> {
    (0..t.bridges())
        .flat_map(|b| a.forwarding(b).iter().map(move |s| (b, s)))
        .collect()
}

/// Is every segment reachable from segment `start` over `edges`?
fn segments_connected(t: &BridgeTopology, edges: &[(usize, usize)], start: usize) -> bool {
    let mut seg_seen = vec![false; t.segments()];
    let mut br_seen = vec![false; t.bridges()];
    seg_seen[start] = true;
    let mut frontier = vec![start];
    while let Some(s) = frontier.pop() {
        for &(b, es) in edges {
            if es == s && !br_seen[b] {
                br_seen[b] = true;
                for &(b2, es2) in edges {
                    if b2 == b && !seg_seen[es2] {
                        seg_seen[es2] = true;
                        frontier.push(es2);
                    }
                }
            }
        }
    }
    seg_seen.iter().all(|&x| x)
}

proptest! {
    /// On any connected graph with everything alive, the election
    /// yields a spanning tree: the Forwarding edges connect every
    /// segment, count exactly |vertices| − 1 (no cycles), and every
    /// observer derives the same tree with full next-hop coverage.
    #[test]
    fn prop_election_yields_a_spanning_tree_on_connected_graphs(
        parents in proptest::collection::vec(0usize..64, 1..10),
        extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
    ) {
        let t = graph_from(&parents, &extra);
        let views = t.fresh_views();
        let reference = t.elect(&[], &views, 0);
        let edges = forwarding_edges(&t, &reference);
        // Tree arithmetic: segments + bridges − 1 edges, connected.
        prop_assert_eq!(edges.len(), t.segments() + t.bridges() - 1);
        prop_assert!(segments_connected(&t, &edges, 0));
        for observer in 0..t.bridges() {
            let a = t.elect(&[], &views, observer);
            prop_assert_eq!(&a, &reference, "observer {} disagrees", observer);
            for b in 0..t.bridges() {
                for dst in 0..t.segments() {
                    prop_assert!(a.next_hop(b, dst).is_some(), "unreachable {}->{}", b, dst);
                }
            }
        }
    }

    /// Killing any non-articulation bridge of a redundant graph leaves
    /// the fabric connected after re-election: the survivors' tree
    /// still spans every segment.
    #[test]
    fn prop_killing_non_articulation_bridges_keeps_the_fabric_connected(
        parents in proptest::collection::vec(0usize..64, 1..8),
        extra in proptest::collection::vec((0usize..16, 0usize..16), 1..5),
        victim_raw in 0usize..32,
    ) {
        let t = graph_from(&parents, &extra);
        let victim = victim_raw % t.bridges();
        // Physical connectivity without the victim (all ports of every
        // other bridge): skip articulation bridges — losing one *should*
        // partition the fabric.
        let phys: Vec<(usize, usize)> = (0..t.bridges())
            .filter(|&b| b != victim)
            .flat_map(|b| t.ports(b).iter().map(move |&s| (b, s)))
            .collect();
        prop_assume!(segments_connected(&t, &phys, 0));
        let mut views = t.fresh_views();
        views[victim].version += 1;
        views[victim].alive = false;
        // Any surviving observer elects a tree spanning all segments.
        let observer = (0..t.bridges()).find(|&b| b != victim).unwrap();
        let a = t.elect(&[], &views, observer);
        let edges = forwarding_edges(&t, &a);
        prop_assert!(a.forwarding(victim).is_empty(), "the dead forward nothing");
        prop_assert!(segments_connected(&t, &edges, 0),
            "survivors must span every segment");
        for dst in 0..t.segments() {
            prop_assert!(a.next_hop(observer, dst).is_some());
        }
    }

    /// On trees with uniform priorities the election reproduces the
    /// wiring: every port Forwarding, next hops equal to the tree-only
    /// tables — the base case that keeps `Static` election
    /// byte-identical to the PR 4 fabric.
    #[test]
    fn prop_tree_election_matches_static_tables(
        parents in proptest::collection::vec(0usize..64, 1..10),
    ) {
        let t = tree_from_parents(&parents);
        let a = t.elect(&[], &t.fresh_views(), 0);
        for b in 0..t.bridges() {
            let all: HostMask = t.ports(b).iter().copied().collect();
            prop_assert_eq!(a.forwarding(b), all);
            for dst in 0..t.segments() {
                prop_assert_eq!(a.next_hop(b, dst), Some(t.next_hop(b, dst)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// One boot state per fabric, shared copy-on-write (PR 13): what
// `Fabric::new` hands every device is the per-device election it
// replaced, by reference; divergence is exact, lazy and never aliased.
// ---------------------------------------------------------------------

/// Do devices `a` and `b` hold the very same view table / active tree
/// (one allocation, not merely equal values)?
fn shares_views(f: &Fabric, a: usize, b: usize) -> bool {
    std::ptr::eq(f.device(a).policy().views(), f.device(b).policy().views())
}

fn shares_tree(f: &Fabric, a: usize, b: usize) -> bool {
    std::ptr::eq(f.device(a).policy().active(), f.device(b).policy().active())
}

/// Every device of a freshly built fabric routes on exactly the tree a
/// per-device cold election would have given it, and all of them hold
/// one tree and one view table between them.
fn assert_fresh_fabric_shares_the_per_device_election(t: &BridgeTopology, priorities: &[u64]) {
    let layout = SegmentLayout::new(t.segments(), t.segments()).unwrap();
    let cfg = FabricConfig::new(t.clone()).with_priorities(priorities.to_vec());
    let f = Fabric::new(layout, cfg);
    let fresh = t.fresh_views();
    for d in 0..t.bridges() {
        let policy = f.device(d).policy();
        assert_eq!(policy.views(), &fresh[..], "device {d} boot views");
        assert_eq!(
            policy.active(),
            &t.elect(priorities, &fresh, d),
            "device {d} boots on its own cold election"
        );
        assert!(
            shares_views(&f, 0, d),
            "device {d} holds a private view table"
        );
        assert!(shares_tree(&f, 0, d), "device {d} holds a private tree");
    }
}

#[test]
fn fresh_fabrics_share_one_election_on_the_named_topologies() {
    for t in [
        BridgeTopology::star(5),
        BridgeTopology::chain(6),
        BridgeTopology::balanced_tree(13, 3),
        BridgeTopology::ring(7),
        BridgeTopology::mesh2d(4, 5),
    ] {
        assert_fresh_fabric_shares_the_per_device_election(&t, &[]);
        // Steer the root away from device 0 (entries past the vector
        // default to 0, so the last listed device outranks the rest).
        let steered: Vec<u64> = (0..t.bridges() / 2 + 1)
            .map(|d| 9 - (d as u64 % 3))
            .collect();
        assert_fresh_fabric_shares_the_per_device_election(&t, &steered);
    }
}

proptest! {
    /// The same on the random connected graphs of the election
    /// properties, with and without priorities.
    #[test]
    fn prop_fresh_fabric_shares_the_per_device_election(
        parents in proptest::collection::vec(0usize..64, 1..10),
        extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
        priorities in proptest::collection::vec(0u64..4, 0..12),
    ) {
        let t = graph_from(&parents, &extra);
        assert_fresh_fabric_shares_the_per_device_election(&t, &[]);
        assert_fresh_fabric_shares_the_per_device_election(&t, &priorities);
    }
}

/// Copy-on-write is not aliasing. On the live 4×8 ring: hello chatter
/// that teaches nothing copies nothing; a view merged into one device
/// shows in no other device's table; a no-op re-election keeps the
/// shared tree; a device that really re-elects holds its own tree while
/// the untouched ones go on sharing; and a revived device boots on the
/// shared boot tree — the cold election it used to run — with a view
/// table of its own.
#[test]
fn divergence_is_copy_on_write_and_never_aliased() {
    use mether_core::{DeviceView, HostId, Packet};
    use mether_net::{ElectionMode, FabricEvent, BRIDGE_HOST_BASE};

    let t = BridgeTopology::ring(4);
    let layout = SegmentLayout::new(32, 4).unwrap();
    let mut f = Fabric::new(
        layout,
        FabricConfig::new(t.clone()).with_election(ElectionMode::live()),
    );
    let ElectionMode::Live { hello_interval, .. } = f.election() else {
        panic!("live fabric")
    };
    let boot = t.elect(&[], &t.fresh_views(), 0);
    // Whatever has happened so far, every device routes on the election
    // of the views it holds right now.
    let assert_trees_follow_views = |f: &Fabric| {
        for d in (0..4).filter(|&d| !f.is_dead(d)) {
            let p = f.device(d).policy();
            assert_eq!(p.active(), &t.elect(&[], p.views(), d), "device {d}");
        }
    };

    // 1. A round of hellos among healthy devices changes no belief and
    // so unshares nothing.
    let t1 = SimTime::ZERO + hello_interval;
    let hellos: Vec<_> = (0..4).flat_map(|d| f.tick(d, t1)).collect();
    assert!(!hellos.is_empty());
    for c in &hellos {
        assert!(f.hear_control(&c.pkt, c.seg, t1, c.device).is_empty());
    }
    for d in 1..4 {
        assert!(
            shares_views(&f, 0, d) && shares_tree(&f, 0, d),
            "device {d}"
        );
    }

    // 2. News reaches device 1 alone (segment 1 joins devices 0 and 1
    // only): device 2 re-asserted itself at version 2. Device 1 takes
    // its own table to record it; nobody else sees the entry move, and
    // the re-election it triggers lands on the same tree — kept, not
    // copied.
    let mut told = t.fresh_views();
    told[2] = DeviceView {
        version: 2,
        ..told[2].clone()
    };
    let news = Packet::BridgePdu {
        from: HostId(BRIDGE_HOST_BASE),
        device: 0,
        views: told,
    };
    let triggered = f.hear_control(&news, 1, t1, 0);
    assert!(!triggered.is_empty(), "device 1 passes the news on");
    assert_eq!(f.device(1).policy().views()[2].version, 2);
    for d in [0, 2, 3] {
        assert_eq!(f.device(d).policy().views()[2].version, 0, "device {d}");
        assert!(shares_views(&f, 0, d), "device {d} was told nothing");
        assert!(shares_tree(&f, 1, d), "a no-op re-election keeps the tree");
    }
    assert!(!shares_views(&f, 0, 1));
    assert_eq!(f.reconvergences(), 0);

    // 3. Device 1 loses its port on segment 2: segment 2 is now reached
    // the long way round, so device 1 — and only device 1, until gossip
    // spreads — elects a different tree and holds it alone.
    let t2 = t1 + hello_interval;
    f.apply_event(
        FabricEvent::LinkDown {
            device: 1,
            segment: 2,
        },
        t2,
    );
    assert_eq!(f.reconvergences(), 1);
    assert_ne!(f.device(1).policy().active(), &boot);
    for d in [2, 3] {
        assert!(
            shares_tree(&f, 0, d) && shares_views(&f, 0, d),
            "device {d}"
        );
        assert!(!shares_tree(&f, 1, d));
        assert_eq!(f.device(d).policy().active(), &boot);
    }
    assert_trees_follow_views(&f);

    // 4. Device 3 dies and restarts cold: it boots on the fabric's boot
    // tree by reference — exactly the per-device election a revival
    // used to run — and asserts itself at version 2 in a table no other
    // device can see.
    let t3 = t2 + hello_interval;
    f.apply_event(FabricEvent::BridgeDown(3), t3);
    f.apply_event(FabricEvent::BridgeUp(3), t3 + hello_interval);
    let revived = f.device(3).policy();
    assert_eq!(revived.active(), &t.elect(&[], &t.fresh_views(), 3));
    assert!(shares_tree(&f, 0, 3), "a revival boots on the shared tree");
    assert_eq!(revived.views()[3].version, 2);
    assert!(!shares_views(&f, 0, 3));
    for d in [0, 1, 2] {
        assert_eq!(f.device(d).policy().views()[3].version, 0, "device {d}");
    }
    assert!(shares_views(&f, 0, 2), "the untouched devices still share");
    assert_trees_follow_views(&f);

    // 5. A device revived with a cable still cut re-severs it on the
    // way up: its tree is the election over the views it then holds —
    // what the per-device path produced, minus the cold election.
    f.apply_event(FabricEvent::BridgeDown(1), t3 + hello_interval);
    f.apply_event(
        FabricEvent::BridgeUp(1),
        t3 + hello_interval + hello_interval,
    );
    let p1 = f.device(1).policy();
    assert_eq!(p1.self_live_ports().iter().collect::<Vec<_>>(), vec![1]);
    assert_eq!(
        p1.views()[1].version,
        4,
        "restart (2) + re-severed link (+2)"
    );
    assert_ne!(p1.active(), &boot);
    assert_trees_follow_views(&f);
}

// ---------------------------------------------------------------------
// PR 4's acceptance workload under LIVE election: same active tree,
// same ≥2× routed-vs-flooding request shrink (PR 5 acceptance).
// ---------------------------------------------------------------------

#[test]
fn live_election_reproduces_the_tree_and_keeps_the_routing_win() {
    use mether_net::ElectionMode;
    use mether_workloads::build_fabric_readers;

    const ROUNDS: u32 = 48;
    let run = |routing: RequestRouting| {
        let fabric = FabricConfig::tree(4, 2)
            .with_routing(routing)
            .with_election(ElectionMode::live());
        let mut sim = build_fabric_readers(fabric, 8, ROUNDS);
        let outcome = sim.run(RunLimits::default());
        assert!(outcome.finished, "{outcome:?}");
        let m = sim.metrics("readers 4x8 live", outcome.finished, 1);
        assert_eq!(
            m.fabric_reconvergences, 0,
            "an undisturbed live fabric never re-elects"
        );
        m
    };
    let flood = run(RequestRouting::Flood);
    let routed = run(RequestRouting::HolderDirected);
    // Identical protocol work across modes, even with hello traffic on
    // the wires.
    assert_eq!(flood.additions, routed.additions);
    assert!(flood.net.control_packets > 0, "hellos rode the wire");
    let (f, r) = (flood.bridge.req_forwarded, routed.bridge.req_forwarded);
    let ratio = f as f64 / r as f64;
    eprintln!(
        "live election, readers x{ROUNDS} on 4x8 tree: fabric-crossing requests \
         flood = {f}, holder-directed = {r}, ratio {ratio:.2}x"
    );
    assert!(
        ratio >= 2.0,
        "the PR 4 routing pin must survive live election (flood {f}, routed {r})"
    );
}

// ---------------------------------------------------------------------
// Holder-belief quality counters (PR 5 satellite).
// ---------------------------------------------------------------------

#[test]
fn belief_counters_surface_through_protocol_metrics() {
    use mether_workloads::build_fabric_readers;

    let fabric = FabricConfig::tree(4, 2).with_routing(RequestRouting::HolderDirected);
    let mut sim = build_fabric_readers(fabric, 8, 24);
    let outcome = sim.run(RunLimits::default());
    assert!(outcome.finished);
    let m = sim.metrics("readers", outcome.finished, 1);
    // The first request of each reader finds no belief (fallback
    // flood); the replies teach the holder direction and later rounds
    // route on it.
    assert!(
        m.bridge.belief_fallback_floods >= 1,
        "cold start floods: {:?}",
        m.bridge
    );
    assert!(
        m.bridge.belief_hits > m.bridge.belief_fallback_floods,
        "a holder-stable workload routes mostly on beliefs: {:?}",
        m.bridge
    );
    // The fabric-wide row is the per-device sum, belief counters
    // included.
    let summed = mether_net::BridgeStats::sum(m.bridge_devices.iter().copied());
    assert_eq!(m.bridge, summed);
    assert!(
        m.bridge_devices.iter().any(|d| d.belief_hits > 0),
        "per-device rows carry the counters"
    );
    // Flood mode never counts belief events.
    let fabric = FabricConfig::tree(4, 2).with_routing(RequestRouting::Flood);
    let mut flood_sim = build_fabric_readers(fabric, 8, 8);
    let fo = flood_sim.run(RunLimits::default());
    let fm = flood_sim.metrics("readers flood", fo.finished, 1);
    assert_eq!(fm.bridge.belief_hits, 0);
    assert_eq!(fm.bridge.belief_fallback_floods, 0);
}

// ---------------------------------------------------------------------
// Ring failover: kill the root, measure the stall (PR 5 acceptance).
// ---------------------------------------------------------------------

#[test]
fn ring_failover_reconverges_and_every_reader_sees_the_final_value() {
    use mether_workloads::{run_ring_failover, FailoverConfig};

    let cfg = FailoverConfig::ring_4x8();
    let (sim, report) = run_ring_failover(&cfg, RunLimits::default());
    eprintln!(
        "ring failover 4x8: finished={} wall={} reconvergences={} stall={:?} events={:?}",
        report.outcome.finished,
        report.metrics.wall,
        report.reconvergences,
        report.stall,
        report.metrics.fabric_events,
    );
    assert!(
        report.outcome.finished,
        "the workload must ride through the failure: {:?}",
        report.outcome
    );
    assert!(
        report.readers_saw_final,
        "every reader observes the final generation"
    );
    assert!(
        report.reconvergences >= 1,
        "the survivors re-elected around the dead root"
    );
    // The acceptance number: the reconvergence stall is measured and
    // finite — from the BridgeDown to the first cross-fabric PageData
    // forwarded by a re-elected device.
    let stall = report.stall.expect("stall measured");
    assert!(
        stall > SimDuration::ZERO && stall < SimDuration::from_secs(2),
        "stall {stall} out of range"
    );
    // The dead device forwarded nothing after its death: its counters
    // are frozen while the survivors kept forwarding.
    assert_eq!(report.metrics.fabric_events.len(), 1);
    assert!(sim.fabric_stall().is_some());
}

#[test]
fn ring_failover_with_revival_heals_the_short_path() {
    use mether_workloads::{run_ring_failover, FailoverConfig};

    let cfg = FailoverConfig {
        writes: 30,
        revive_at: Some(SimDuration::from_millis(220)),
        ..FailoverConfig::ring_4x8()
    };
    let (_sim, report) = run_ring_failover(&cfg, RunLimits::default());
    assert!(report.outcome.finished, "{:?}", report.outcome);
    assert!(report.readers_saw_final);
    assert_eq!(report.metrics.fabric_events.len(), 2, "down + up recorded");
    // The revival triggers a second wave of re-elections (the root
    // reclaims its tree).
    assert!(
        report.reconvergences >= 2,
        "reconvergences: {}",
        report.reconvergences
    );
}

// ---------------------------------------------------------------------
// The aging-policy sweep (PR 5 satellite).
// ---------------------------------------------------------------------

#[test]
fn age_horizon_sweep_locates_the_refetch_vs_filter_knee() {
    use mether_workloads::sweep_age_horizons;

    let gap = SimDuration::from_millis(600);
    let points = sweep_age_horizons(
        &[gap],
        &[
            AgeHorizon::Sticky,
            AgeHorizon::Transits(2),
            AgeHorizon::SimTime(SimDuration::from_millis(50)),
        ],
        RunLimits::default(),
    );
    assert_eq!(points.len(), 3);
    let sticky = &points[0];
    let transits = &points[1];
    let simtime = &points[2];
    for p in &points {
        eprintln!(
            "{}: idle_frames={} return_lag={} fresh={} requests={}",
            p.label, p.idle_frames, p.return_lag, p.fresh_return, p.requests_crossed
        );
    }
    // Sticky: the idle segment is fed through the whole gap — the copy
    // comes back fresh, at the price of snooping every broadcast.
    assert!(sticky.fresh_return, "sticky keeps the idle copy fresh");
    assert!(sticky.return_lag <= 1);
    // Aged out (both horizon kinds, far shorter than the gap): the
    // refreshes stop early — the reader returns stale and pays a
    // catch-up fetch, but its segment snooped far less.
    for aged in [transits, simtime] {
        assert!(
            !aged.fresh_return,
            "{}: a horizon far below the gap must go stale",
            aged.label
        );
        assert!(
            aged.return_lag >= 3,
            "{}: lag {} too small for a 600ms gap",
            aged.label,
            aged.return_lag
        );
        assert!(
            aged.idle_frames * 2 < sticky.idle_frames,
            "{}: aging must at least halve the idle segment's snoops \
             ({} vs sticky {})",
            aged.label,
            aged.idle_frames,
            sticky.idle_frames
        );
    }
}
