//! Microbenchmarks of the Mether building blocks: address encoding, the
//! wire codec (contiguous and vectored), page-buffer operations, the
//! page-table state machine, wake delivery, and the simulator's event
//! queue under broadcast fan-out.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use mether_core::{
    Effect, Generation, HostId, HostMask, MapMode, MetherConfig, Packet, PageBuf, PageHomePolicy,
    PageId, PageLength, PageTable, RtoEstimator, SegmentLayout, VAddr, View, WakeSet, Want,
};
use mether_net::{
    BootState, Bridge, BridgeConfig, BridgePolicy, Fabric, FabricConfig, RequestRouting,
    SimDuration, SimTime,
};
use mether_sim::RunLimits;
use mether_workloads::{build_fabric_readers, build_publisher_sim, build_segmented_publisher};
use std::hint::black_box;

fn bench_addr(c: &mut Criterion) {
    let mut g = c.benchmark_group("addr");
    g.bench_function("encode", |b| {
        b.iter(|| black_box(VAddr::new(PageId::new(17), View::short_data(), 8).unwrap()))
    });
    let va = VAddr::new(PageId::new(17), View::short_data(), 8).unwrap();
    g.bench_function("decode", |b| {
        b.iter(|| black_box((va.page(), va.view(), va.offset())))
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let req = Packet::PageRequest {
        from: HostId(1),
        page: PageId::new(5),
        length: PageLength::Short,
        want: Want::ReadOnly,
    };
    let short_data = Packet::PageData {
        from: HostId(1),
        page: PageId::new(5),
        length: PageLength::Short,
        generation: Generation(9),
        transfer_to: None,
        data: Bytes::from(vec![7u8; 32]),
    };
    let full_data = Packet::PageData {
        from: HostId(1),
        page: PageId::new(5),
        length: PageLength::Full,
        generation: Generation(9),
        transfer_to: Some(HostId(2)),
        data: Bytes::from(vec![7u8; 8192]),
    };
    g.bench_function("encode_request", |b| b.iter(|| black_box(req.encode())));
    g.bench_function("encode_short_data", |b| {
        b.iter(|| black_box(short_data.encode()))
    });
    g.bench_function("encode_full_data", |b| {
        b.iter(|| black_box(full_data.encode()))
    });
    let enc = full_data.encode();
    g.bench_function("decode_full_data", |b| {
        b.iter(|| black_box(Packet::decode(&enc).unwrap()))
    });
    // The vectored transmit path: header bytes are built, the 8 KiB
    // payload is shared (no contiguous-datagram copy). Compare against
    // `encode_full_data` above, which is the same packet flattened.
    g.bench_function("encode_vectored", |b| {
        b.iter(|| black_box(full_data.encode_vectored()))
    });
    let frame = full_data.encode_vectored();
    g.bench_function("decode_vectored", |b| {
        b.iter(|| black_box(Packet::decode_frame(&frame).unwrap()))
    });
    g.finish();
}

fn bench_pagebuf(c: &mut Criterion) {
    let mut g = c.benchmark_group("pagebuf");
    g.bench_function("install_short", |b| {
        let data = [1u8; 32];
        b.iter(|| black_box(PageBuf::from_network(&data)))
    });
    g.bench_function("install_full", |b| {
        let data = vec![1u8; 8192];
        b.iter(|| black_box(PageBuf::from_network(&data)))
    });
    g.bench_function("refresh_short_into_full", |b| {
        let mut buf = PageBuf::new_zeroed();
        let data = [1u8; 32];
        b.iter(|| {
            buf.refresh_from_network(&data);
            black_box(buf.valid_len())
        })
    });
    g.bench_function("payload_short", |b| {
        let mut buf = PageBuf::new_zeroed();
        b.iter(|| black_box(buf.payload(32).len()))
    });
    g.bench_function("payload_full", |b| {
        let mut buf = PageBuf::new_zeroed();
        b.iter(|| black_box(buf.payload(8192).len()))
    });
    g.finish();
}

/// One full-page `PageData` broadcast delivered to N snooping hosts, the
/// way the LAN delivery path does it. This is the end-to-end cost the
/// zero-copy page-data path optimises: per-snooper datagram decode plus
/// per-snooper page install/refresh.
fn bench_fanout(c: &mut Criterion) {
    const SNOOPERS: usize = 16;
    let mut g = c.benchmark_group("fanout");
    for (name, len) in [("broadcast_16_full", 8192usize), ("broadcast_16_short", 32)] {
        let pkt = Packet::PageData {
            from: HostId(0),
            page: PageId::new(0),
            length: if len <= 32 {
                PageLength::Short
            } else {
                PageLength::Full
            },
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![9u8; len]),
        };
        let frame = pkt.encode();
        // Snoopers in steady state: page mapped, copy installed.
        let mut tables: Vec<PageTable> = (1..=SNOOPERS as u16)
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
                t.handle_packet(&pkt, &mut fx);
                assert!(t.page_buf(PageId::new(0)).is_some());
                t
            })
            .collect();
        g.bench_function(name, |b| {
            let mut fx = Vec::new();
            b.iter(|| {
                // One decode per broadcast; every snooper handles a shared
                // view of the same datagram — the zero-copy delivery path.
                let decoded = Packet::decode(&frame).unwrap();
                for t in tables.iter_mut() {
                    fx.clear();
                    t.handle_packet(&decoded, &mut fx);
                }
                black_box(tables.len())
            })
        });
    }
    g.finish();
}

fn bench_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_table");
    g.bench_function("local_hit_access", |b| {
        let mut t = PageTable::new(HostId(0), MetherConfig::new());
        t.create_owned(PageId::new(0));
        let mut fx = Vec::new();
        b.iter(|| {
            fx.clear();
            black_box(
                t.access(
                    PageId::new(0),
                    View::short_demand(),
                    MapMode::Writeable,
                    1,
                    &mut fx,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("fault_and_satisfy", |b| {
        // One full demand-fault round trip between two tables.
        b.iter(|| {
            let mut holder = PageTable::new(HostId(0), MetherConfig::new());
            let mut reader = PageTable::new(HostId(1), MetherConfig::new());
            holder.create_owned(PageId::new(0));
            let mut fx = Vec::new();
            reader
                .access(
                    PageId::new(0),
                    View::short_demand(),
                    MapMode::ReadOnly,
                    1,
                    &mut fx,
                )
                .unwrap();
            let req = match fx.remove(0) {
                mether_core::Effect::Send(p) => p,
                other => panic!("{other:?}"),
            };
            holder.handle_packet(&req, &mut fx);
            let data = match fx.remove(0) {
                mether_core::Effect::Send(p) => p,
                other => panic!("{other:?}"),
            };
            reader.handle_packet(&data, &mut fx);
            black_box(reader.page_buf(PageId::new(0)).is_some())
        })
    });
    g.bench_function("snoop_refresh", |b| {
        let mut t = PageTable::new(HostId(1), MetherConfig::new());
        let mut fx = Vec::new();
        // Map the page so snoops install.
        let _ = t.access(
            PageId::new(0),
            View::short_data(),
            MapMode::ReadOnly,
            1,
            &mut fx,
        );
        let pkt = Packet::PageData {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Short,
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![1u8; 32]),
        };
        b.iter(|| {
            fx.clear();
            t.handle_packet(&pkt, &mut fx);
            black_box(fx.len())
        })
    });
    g.finish();
}

/// Wake delivery. `coalesced_vs_per_waiter` measures the production
/// path end to end: one `PageData` transit unblocking 16 genuinely
/// blocked data-driven waiters via a single `Effect::WakeAll` batch —
/// each iteration purges the local copy first so the waiters re-arm
/// (without the purge, the copy installed by the first `handle_packet`
/// would satisfy every later access and no wake would ever happen
/// again; the bench asserts woken == armed every iteration). The
/// `emit_drain_*` pair then isolates the one thing the overhaul changed
/// — the effect emission + drain shape — since the old per-waiter
/// emission no longer exists inside `handle_packet` to measure
/// end to end.
fn bench_wake(c: &mut Criterion) {
    const WAITERS: u64 = 16;
    let mut g = c.benchmark_group("wake");
    let pkt = Packet::PageData {
        from: HostId(0),
        page: PageId::new(0),
        length: PageLength::Short,
        generation: Generation(1),
        transfer_to: None,
        data: Bytes::from(vec![1u8; 32]),
    };
    // Drops the installed copy and blocks 16 data-driven waiters on the
    // page, returning how many were queued (so the bench can assert the
    // wakes are real work, not a hit path).
    fn rearm(t: &mut PageTable, fx: &mut Vec<Effect>) -> u64 {
        let _ = t.purge(PageId::new(0), MapMode::ReadOnly, u64::MAX, fx);
        let mut armed = 0;
        for w in 0..WAITERS {
            if let Ok(mether_core::AccessOutcome::Blocked(_)) =
                t.access(PageId::new(0), View::short_data(), MapMode::ReadOnly, w, fx)
            {
                armed += 1;
            }
        }
        armed
    }
    g.bench_function("coalesced_vs_per_waiter", |b| {
        let mut t = PageTable::new(HostId(1), MetherConfig::new());
        let mut fx = Vec::new();
        b.iter(|| {
            fx.clear();
            let armed = rearm(&mut t, &mut fx);
            t.handle_packet(&pkt, &mut fx);
            let mut sum = 0u64;
            let mut woken = 0u64;
            for e in &fx {
                match e {
                    Effect::Wake(w) => {
                        sum += w;
                        woken += 1;
                    }
                    Effect::WakeAll(set) => {
                        sum += set.iter().sum::<u64>();
                        woken += set.len() as u64;
                    }
                    _ => {}
                }
            }
            assert_eq!(woken, armed, "every armed waiter woke");
            black_box(sum)
        })
    });
    // The isolated construction + drain comparison. The old emission
    // path (16 `Effect::Wake` pushes straight into the effects Vec) no
    // longer exists inside `handle_packet`, so it cannot be measured end
    // to end; these two benches reproduce exactly the two emission +
    // drain shapes in isolation — the honest before/after for the part
    // the coalescing overhaul changed.
    g.bench_function("emit_drain_per_waiter_16", |b| {
        let mut fx: Vec<Effect> = Vec::new();
        b.iter(|| {
            fx.clear();
            for w in 0..WAITERS {
                fx.push(Effect::Wake(w));
            }
            let mut sum = 0u64;
            for e in &fx {
                if let Effect::Wake(w) = e {
                    sum += w;
                }
            }
            black_box(sum)
        })
    });
    g.bench_function("emit_drain_coalesced_16", |b| {
        let mut fx: Vec<Effect> = Vec::new();
        b.iter(|| {
            fx.clear();
            let mut set = WakeSet::new();
            for w in 0..WAITERS {
                set.insert(w);
            }
            fx.push(Effect::WakeAll(set));
            let mut sum = 0u64;
            for e in &fx {
                if let Effect::WakeAll(s) = e {
                    sum += s.iter().sum::<u64>();
                }
            }
            black_box(sum)
        })
    });
    g.bench_function("wakeset_build_256", |b| {
        // Worst-case batch construction, far beyond realistic per-page
        // waiter counts — a canary for the dedup scan's quadratic tail.
        b.iter(|| {
            let mut set = WakeSet::new();
            for w in 0..256u64 {
                set.insert(w);
            }
            black_box(set.len())
        })
    });
    g.finish();
}

/// The event heap under broadcast fan-out: 16 hosts, one publisher, 64
/// broadcasts end to end, one `Deliver` event per broadcast — the same
/// harness `tests/tests/event_engine_regression.rs` pins, so the number
/// measures exactly the pinned workload.
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("broadcast_heap_16", |b| {
        b.iter(|| {
            let mut sim = build_publisher_sim(16, 64);
            let outcome = sim.run(RunLimits::default());
            assert!(outcome.finished);
            black_box(sim.event_stats().heap_pushes)
        })
    });
    g.finish();
}

/// The multi-segment topology: the acceptance workload end to end (32
/// hosts flat vs 4×8 bridged — same broadcasts, ~4× fewer snoops per
/// host, see `tests/tests/segmented_topology.rs`), the bridge's
/// per-frame forwarding decision, and the `HostMask` fan-out iteration
/// behind `Recipients::Subset`.
fn bench_segments(c: &mut Criterion) {
    let mut g = c.benchmark_group("segments");
    g.bench_function("publisher_flat_32", |b| {
        b.iter(|| {
            let mut sim = build_publisher_sim(32, 16);
            sim.run(RunLimits::default());
            black_box(sim.event_stats().heap_pushes)
        })
    });
    g.bench_function("publisher_4x8", |b| {
        b.iter(|| {
            let mut sim = build_segmented_publisher(4, 8, 16);
            sim.run(RunLimits::default());
            black_box(sim.event_stats().heap_pushes)
        })
    });
    g.bench_function("bridge_pickup_data", |b| {
        // One forwarded data frame per pickup: route through the
        // interest tables + schedule one egress copy (page 1 is homed
        // off the source segment, so every pickup forwards).
        let layout = SegmentLayout::new(32, 4).unwrap();
        let mut bridge = Bridge::star(
            layout,
            PageHomePolicy::Striped,
            BridgeConfig::typical().with_queue_frames(usize::MAX),
        );
        let pkt = Packet::PageData {
            from: HostId(0),
            page: PageId::new(1),
            length: PageLength::Short,
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![7u8; 32]),
        };
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(1);
            black_box(bridge.pickup(&pkt, 0, now).len())
        })
    });
    g.bench_function("hostmask_iter_8_of_128", |b| {
        let mask = HostMask::range(56, 64);
        b.iter(|| {
            let mut sum = 0usize;
            for h in &mask {
                sum += h;
            }
            black_box(sum)
        })
    });
    g.bench_function("tree_4x8", |b| {
        // The star publisher above on a 2-device balanced tree: same
        // broadcasts, filtered hop by hop instead of at one device.
        b.iter(|| {
            let mut sim = mether_sim::Simulation::new(mether_sim::SimConfig {
                topology: mether_sim::Topology::fabric(FabricConfig::tree(4, 2)),
                ..mether_sim::SimConfig::paper(32)
            });
            let page = PageId::new(0);
            sim.create_owned(0, page);
            sim.add_process(0, Box::new(mether_workloads::Publisher::new(page, 16)));
            sim.run(RunLimits::default());
            black_box(sim.event_stats().heap_pushes)
        })
    });
    g.finish();
}

/// Holder-directed request routing vs PR 3's flooding, end to end: the
/// holder-stable polling-reader workload on the 4×8 balanced tree (the
/// acceptance workload of `tests/tests/segmented_topology.rs`). The
/// structural number is fabric-crossing request frames — the ≥2× drop
/// pinned there and recorded in `BENCH_baseline.json` — with these wall
/// numbers showing the run itself does not pay for the routing tables.
fn bench_bridge_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("bridge");
    let run = |routing: RequestRouting| {
        let fabric = FabricConfig::tree(4, 2).with_routing(routing);
        let mut sim = build_fabric_readers(fabric, 8, 12);
        sim.run(RunLimits::default());
        sim.bridge_stats().expect("segmented").req_forwarded
    };
    g.bench_function("flood_readers_4x8_tree", |b| {
        b.iter(|| black_box(run(RequestRouting::Flood)))
    });
    g.bench_function("route_readers_4x8_tree", |b| {
        b.iter(|| black_box(run(RequestRouting::HolderDirected)))
    });
    g.bench_function("pickup_mesh16x16_wide", |b| {
        // The per-frame work `ol-mesh` pays and the 4-segment star of
        // `segments/bridge_pickup_data` cannot see: a two-port device of
        // the 480-device mesh whose ports are both segment ids ≥ 128 —
        // past the inline width of a segment-id mask — forwarding on
        // both, with 256 pages touched round-robin: each page's request
        // heard on one port, then its data on the other.
        let topology = std::sync::Arc::new(mether_core::BridgeTopology::mesh2d(16, 16));
        let layout = SegmentLayout::new(256, 256).unwrap();
        let boot = BootState::new(std::sync::Arc::clone(&topology), Vec::new());
        let cfg = FabricConfig::new(mether_core::BridgeTopology::clone(&topology));
        let wide = |d: &usize| topology.ports(*d)[0] >= 128;
        let policy = (0..topology.bridges())
            .rev()
            .filter(wide)
            .map(|d| BridgePolicy::for_device(layout, &boot, d, &cfg))
            .find(|p| p.active().forwarding(p.device()).len() == 2)
            .expect("a wide device forwarding on both ports");
        let ports = topology.ports(policy.device()).to_vec();
        let mut bridge = Bridge::new(
            policy,
            BridgeConfig::typical().with_queue_frames(usize::MAX),
        );
        let frames: Vec<(Packet, usize)> = (0..256u32)
            .flat_map(|p| {
                let page = PageId::new(p);
                let (asks, answers) = (ports[p as usize % 2], ports[(p as usize + 1) % 2]);
                let req = Packet::PageRequest {
                    from: HostId(asks as u16),
                    page,
                    length: PageLength::Short,
                    want: Want::ReadOnly,
                };
                let data = Packet::PageData {
                    from: HostId(answers as u16),
                    page,
                    length: PageLength::Short,
                    generation: Generation(1),
                    transfer_to: None,
                    data: Bytes::from(vec![7u8; 32]),
                };
                [(req, asks), (data, answers)]
            })
            .collect();
        let mut now = SimTime::ZERO;
        let mut i = 0;
        b.iter(|| {
            now += SimDuration::from_millis(1);
            let (pkt, port) = &frames[i % frames.len()];
            i += 1;
            black_box(bridge.pickup(pkt, *port, now).len())
        })
    });
    g.finish();
}

/// The engine's stop rule on a wide deployment: 256 hosts on one flat
/// segment, the only process a publisher on the *last* host, so after
/// every one of the ~255 deliveries and burst ends a broadcast causes
/// the run asks "is everyone done?" with 255 idle hosts ahead of the
/// one that is not.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("lane_completion_256", |b| {
        b.iter(|| {
            let mut sim = mether_sim::Simulation::new(mether_sim::SimConfig::paper(256));
            let page = PageId::new(0);
            sim.create_owned(255, page);
            sim.add_process(255, Box::new(mether_workloads::Publisher::new(page, 64)));
            let outcome = sim.run(RunLimits::default());
            assert!(outcome.finished);
            black_box(outcome.events)
        })
    });
    g.finish();
}

/// The resilient fabric: the raw spanning-tree election compute on a
/// 16-device ring (what every device re-runs per belief change), and
/// the ring-failover scenario end to end — kill the elected root of a
/// 4×8 ring mid-run, hello-timeout + gossip + re-elect + hold-down,
/// readers ride through on fault retries. The structural number is the
/// reconvergence stall recorded in `BENCH_baseline.json` `_meta_pr5`
/// (measured by `tests/tests/bridge_fabric.rs`); these wall numbers
/// show what the control plane costs.
fn bench_fabric(c: &mut Criterion) {
    use mether_core::BridgeTopology;
    use mether_workloads::{run_ring_failover, FailoverConfig};

    let mut g = c.benchmark_group("fabric");
    g.bench_function("stp_election_16dev", |b| {
        let t = BridgeTopology::ring(16);
        let views = t.fresh_views();
        b.iter(|| black_box(t.elect(&[], &views, 0)))
    });
    g.bench_function("build_mesh16x16", |b| {
        // `Fabric::new` on the 480-device mesh `ol-mesh` builds: one
        // boot election shared by every device (480 private ones
        // before PR 13).
        let layout = SegmentLayout::new(256, 256).unwrap();
        let cfg = FabricConfig::new(BridgeTopology::mesh2d(16, 16));
        b.iter(|| black_box(Fabric::new(layout, cfg.clone())))
    });
    g.bench_function("reconverge_ring_4x8", |b| {
        // A shortened failover run (8 writes, root killed 40 ms in) so
        // the bench iterates in reasonable wall time; the full
        // acceptance shape runs in the test suite.
        let cfg = FailoverConfig {
            writes: 8,
            kill_at: SimDuration::from_millis(40),
            ..FailoverConfig::ring_4x8()
        };
        b.iter(|| {
            let (_sim, report) = run_ring_failover(&cfg, RunLimits::default());
            assert!(report.outcome.finished && report.readers_saw_final);
            black_box(report.stall.expect("stall measured").as_nanos())
        })
    });
    g.finish();
}

/// The past-the-wall deployment end to end: 1024 hosts (16 segments ×
/// 64, every host a counting party) as one lane, and how evenly its
/// events fall on the 16 per-segment lanes — events on the busiest
/// lane over the total, a property of the deployment and not of the
/// measuring host.
fn bench_scale(c: &mut Criterion) {
    use mether_sim::ParallelMode;
    use mether_workloads::{build_scaled_fabric, ScaleConfig};

    let mut g = c.benchmark_group("scale");
    let cfg = ScaleConfig::fabric_16x64();
    let run = |mode: ParallelMode| {
        let mut sim = build_scaled_fabric(&cfg);
        sim.set_parallel_mode(mode);
        let outcome = sim.run(RunLimits::default());
        assert!(outcome.finished, "16x64 must run to completion");
        (outcome.events, sim.lane_event_counts().to_vec())
    };
    g.bench_function("16x64_serial", |b| {
        b.iter(|| black_box(run(ParallelMode::Serial).0))
    });
    // Not a timing: expose the lane balance as ns/iter-shaped output so
    // the baseline collector picks it up (busiest-lane share, in 1/1000
    // of the total — 63 on a perfectly balanced 16-lane deployment).
    g.bench_function("16x64_busiest_lane_permille", |b| {
        let (total, lanes) = run(ParallelMode::Workers(4));
        let max = lanes.iter().copied().max().unwrap_or(0);
        b.iter(|| black_box(max * 1000 / total.max(1)))
    });
    g.finish();
}

/// The spanning-tree election on the 256-segment, 480-device 16×16
/// mesh: the full per-destination recompute every belief change used to
/// pay, against the incremental `elect_from` fast path that recognises
/// an unchanged (root, forwarding) pair — the hello-chatter steady
/// state — and says "keep the tree you hold" without copying it.
fn bench_election(c: &mut Criterion) {
    use mether_core::BridgeTopology;

    let mut g = c.benchmark_group("election");
    let t = BridgeTopology::mesh2d(16, 16);
    let views = t.fresh_views();
    let prev = t.elect(&[], &views, 0);
    g.bench_function("full_recompute_mesh16x16", |b| {
        b.iter(|| black_box(t.elect(&[], &views, 0)))
    });
    g.bench_function("incremental_recompute_mesh16x16", |b| {
        b.iter(|| black_box(t.elect_from(&[], &views, 0, &prev)))
    });
    g.finish();
}

/// The invariant observer on the 256-segment, 480-device 16×16 mesh:
/// the full-deployment oracle sweep (every host table, every device,
/// tree consistency — what *every* sampled sweep used to cost) against
/// the dirty-set incremental sweep (drain what changed, check only
/// that). The deployment is a warmed-up large-soak mesh scenario, so
/// the tables and filters carry real mid-run state. The gap between
/// these two numbers is what moved the stride floor from 256 down to
/// 64 (`_meta_pr9` in `BENCH_baseline.json` records both).
fn bench_observer(c: &mut Criterion) {
    use mether_core::PageId;
    use mether_workloads::{SoakScenario, SoakShape};

    let mut g = c.benchmark_group("observer");
    // First large seed that draws the 16×16 mesh; the build is a pure
    // function of the seed, so the bench deployment is stable.
    let seed = (0..)
        .find(|&s| SoakScenario::large_from_seed(s).shape == SoakShape::Mesh2d(16, 16))
        .unwrap();
    let scenario = SoakScenario::large_from_seed(seed);
    let warmup = RunLimits {
        max_sim_time: SimDuration::from_millis(40),
        max_events: 2_000_000,
    };
    let mut sim = scenario.build();
    sim.run(warmup);
    g.bench_function("full_sweep_16x16", |b| {
        b.iter(|| sim.check_invariants());
    });
    g.bench_function("incremental_16x16", |b| {
        // Touch a handful of devices through an ordinary mutation path
        // (re-pinning a subscription dirties every device on the pin
        // route), then sweep exactly the dirt — the steady-state cost
        // a sampled sweep pays mid-run.
        let page = PageId::new(0);
        b.iter(|| {
            sim.subscribe_segment(page, 255);
            sim.sweep_dirty();
        });
    });
    g.bench_function("tree_consistency_16x16", |b| {
        // One structural mark (a self-version re-asserted at its
        // current value changes nothing but the dirty flag), swept: one
        // device's structure block plus the cross-device elected-tree
        // consistency pass of invariant (d), which is all but the whole
        // of it.
        b.iter(|| {
            let fabric = sim.fabric_mut_for_test().expect("mesh fabric");
            fabric.device_mut(0).policy_mut().set_self_version(0);
            sim.sweep_dirty();
        });
    });
    g.finish();
}

/// The live-election control plane on the 16×16 mesh, no workload: 480
/// devices ticking every simulated millisecond. `BridgeTick` periodics
/// are exactly what the fixed-cadence timer ring keeps out of the
/// binary heap, so this run's wall time tracks the scheduling hot path
/// (the ring share of control pushes lands in `_meta_pr9`).
fn bench_hello_ring(c: &mut Criterion) {
    use mether_core::{BridgeTopology, PageId};
    use mether_net::ElectionMode;
    use mether_sim::{SimConfig, Simulation, Topology};
    use mether_workloads::Publisher;

    let mut g = c.benchmark_group("election");
    g.sample_size(10);
    g.bench_function("hello_ring", |b| {
        b.iter(|| {
            // The large-fabric control plane as the soak harness deploys
            // it: device-scaled hello cadence and sparse delta gossip.
            // (Stock `live()` full-view hellos on this shape allocate a
            // 480-entry view vector per PDU per port — gigabytes of
            // churn per simulated second, the O(devices) wire cost the
            // delta format exists to kill.)
            let fabric = FabricConfig::new(BridgeTopology::mesh2d(16, 16))
                .with_election(ElectionMode::live_scaled(480))
                .with_gossip_deltas();
            let mut cfg = SimConfig::paper(256);
            cfg.topology = Topology::fabric(fabric);
            let mut sim = Simulation::new(cfg);
            // One paced publisher outliving the horizon: a run with no
            // live process exits on its first event, so the workload is
            // what keeps the 480-device tick stream flowing for the
            // full 100 simulated milliseconds.
            let page = PageId::new(0);
            sim.create_owned(0, page);
            sim.add_process(
                0,
                Box::new(Publisher::paced(page, 200, SimDuration::from_millis(1))),
            );
            let outcome = sim.run(RunLimits {
                max_sim_time: SimDuration::from_millis(100),
                max_events: 10_000_000,
            });
            black_box((outcome.events, sim.event_stats().timer_ring_pushes))
        })
    });
    g.finish();
}

/// The fault retransmission timer: what one fault costs it — a timeout
/// asked for when the fault blocks, a round-trip sample when it is
/// answered, and Karn's bookkeeping for the one in eight that had to
/// re-send. On the path of every fault of every host, so it stays in
/// the nanoseconds; five integers and no heap, so there is nothing to
/// allocate.
fn bench_rto(c: &mut Criterion) {
    let mut g = c.benchmark_group("rto");
    g.bench_function("estimate", |b| {
        let mut est = RtoEstimator::new(20_000_000, 29_262_500);
        let mut rtt = 30_000_000u64;
        b.iter(|| {
            // A deterministic wobble between 30 and 94 ms.
            rtt = 30_000_000 + (rtt.wrapping_mul(6_364_136_223_846_793_005) >> 58) * 1_000_000;
            let timeout = est.timeout_ns(est.backoff());
            if rtt.is_multiple_of(8_000_000) {
                est.retransmitted(est.backoff() + 1);
            } else {
                est.sample(rtt);
            }
            black_box(timeout)
        })
    });
    g.finish();
}

/// Open-loop traffic engine end-to-end: the seeded arrival schedule on
/// the 4×8 tree, base and with serve-time reply piggybacking. The pair
/// is the measured serving optimization — `_meta_pr10` records the
/// percentile deltas; this bench tracks the engine's wall-clock cost
/// per simulated access (stream draws, histogram records, retry
/// traffic) so arrival-path regressions show up even when percentiles
/// don't move.
fn bench_openloop(c: &mut Criterion) {
    use mether_workloads::{OpenLoopConfig, OpenLoopScenario};

    let mut g = c.benchmark_group("openloop");
    g.sample_size(10);
    // A shortened stream: the SLO-sized run (200 accesses/host) is for
    // the CI SLO job, not a microbenchmark loop.
    let cfg = {
        let mut cfg = OpenLoopConfig::seeded(5);
        cfg.accesses_per_host = 30;
        cfg
    };
    g.bench_function("tree_4x8", |b| {
        b.iter(|| {
            let report = OpenLoopScenario::tree_4x8(cfg).run(None);
            black_box((report.faults, report.digest))
        })
    });
    g.bench_function("tree_4x8_piggyback", |b| {
        b.iter(|| {
            let report = OpenLoopScenario::tree_4x8(cfg).with_piggyback().run(None);
            black_box((report.piggybacked, report.digest))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_addr,
    bench_wire,
    bench_pagebuf,
    bench_fanout,
    bench_table,
    bench_wake,
    bench_event_queue,
    bench_segments,
    bench_bridge_routing,
    bench_engine,
    bench_fabric,
    bench_scale,
    bench_election,
    bench_observer,
    bench_hello_ring,
    bench_rto,
    bench_openloop
);
criterion_main!(benches);
