//! Per-segment-lanes-vs-one-lane determinism: a run cut into one lane
//! per segment must reproduce the serial oracle schedule exactly.
//!
//! For every segmented protocol workload here — counting P1/P5
//! stretched across a segment boundary, mirror-image counting pairs
//! (the harshest tie workload: both pairs hit the bridge at identical
//! nanoseconds), the distributed solver with one rank per segment (dry
//! and lossy), the ring-failover experiment (live election, an
//! injected root death, fault retries) and an open-loop tree run (the
//! per-host retransmission timers) — [`ParallelMode::Workers`]`(4)`
//! must produce **byte-identical final page states and metrics** to
//! [`ParallelMode::Serial`]: same page bytes, generations and holders
//! on every host, same virtual wall clock, CPU split, context switches,
//! fault latencies, traffic and bridge counters. The fingerprint is the
//! same flattening the event-engine regression suite uses, extended
//! with the per-segment and bridge counters the per-segment cut
//! partitions.
//!
//! Schedule diversity comes from varied compute-spin lengths (which
//! shift every burst boundary) and lossy-ether seeds where the workload
//! tolerates loss; the cross-bridge counting workloads run lossless
//! because a lost transfer wedges them under the *serial* engine too —
//! a protocol property, not an engine one.

use mether_core::PageId;
use mether_net::SimDuration;
use mether_sim::{
    ParallelMode, ProtocolMetrics, RunLimits, RunOutcome, SimConfig, Simulation, Topology,
};
use mether_workloads::{
    build_counting, build_ring_failover, build_segmented_counting_pairs, build_segmented_solver,
    CountingConfig, FailoverConfig, OpenLoopConfig, OpenLoopScenario, Protocol, SolverConfig,
    SolverWorker,
};

/// FNV-1a over a byte slice — cheap, deterministic content digest.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Everything observable about a finished simulation, flattened to a
/// comparable string (floats via `to_bits` so NaN ratios compare).
fn fingerprint(sim: &Simulation, m: &ProtocolMetrics, outcome: RunOutcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for h in 0..sim.host_count() {
        let host = sim.host(h);
        writeln!(
            out,
            "host{h}: ctx={} server_ns={} latencies={:?} heard={} max_q={}",
            host.ctx_switches,
            host.server_time.as_nanos(),
            host.fault_latencies
                .iter()
                .map(|d| d.as_nanos())
                .collect::<Vec<_>>(),
            host.frames_heard,
            host.max_server_queue,
        )
        .unwrap();
        writeln!(out, "  table_stats={:?}", host.table.stats()).unwrap();
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
    for seg in 0..sim.segment_count() {
        writeln!(out, "seg{seg}: {:?}", sim.segment_stats(seg)).unwrap();
    }
    writeln!(
        out,
        "bridge: {:?} devices={:?} reconv={} stall={:?}",
        sim.bridge_stats(),
        sim.bridge_device_stats(),
        sim.fabric_reconvergences(),
        sim.fabric_stall(),
    )
    .unwrap();
    writeln!(
        out,
        "outcome: finished={} wall={} events={}",
        outcome.finished,
        outcome.wall.as_nanos(),
        outcome.events,
    )
    .unwrap();
    writeln!(
        out,
        "metrics: finished={} wall={} user={} sys={} net={:?} load={:016x} bpa={:016x} ctx={} cpa={:016x} lat={} heard=({:016x},{}) losses={} wins={} additions={} max_q={}",
        m.finished,
        m.wall.as_nanos(),
        m.user.as_nanos(),
        m.sys.as_nanos(),
        m.net,
        m.net_load_bps.to_bits(),
        m.bytes_per_addition.to_bits(),
        m.ctx_switches,
        m.ctx_per_addition.to_bits(),
        m.avg_latency.as_nanos(),
        m.frames_heard_mean.to_bits(),
        m.frames_heard_max,
        m.losses,
        m.wins,
        m.additions,
        m.max_server_queue,
    )
    .unwrap();
    out
}

fn run_and_print(mut sim: Simulation, mode: ParallelMode, limits: RunLimits) -> String {
    sim.set_parallel_mode(mode);
    let outcome = sim.run(limits);
    let m = sim.metrics("det", outcome.finished, 1);
    fingerprint(&sim, &m, outcome)
}

/// Runs `build()` under `Serial`, `Workers(2)` and `Workers(4)` and
/// asserts all three fingerprints are identical *and* hash to `golden`
/// — the FNV of the fingerprint the serial run loop produced at the
/// last commit where it was separate code, re-recorded since only in
/// commits of their own that say what moved. The literal is what keeps
/// that oracle alive as data: a schedule change in the one engine
/// moves every mode together, which a mode-vs-mode comparison alone
/// could not see. Returns the serial fingerprint.
fn assert_golden(
    label: &str,
    build: impl Fn() -> Simulation,
    limits: RunLimits,
    golden: u64,
) -> String {
    let serial = run_and_print(build(), ParallelMode::Serial, limits);
    for workers in [2, 4] {
        let par = run_and_print(build(), ParallelMode::Workers(workers), limits);
        assert_eq!(
            serial, par,
            "{label}: Workers({workers}) diverged from the serial schedule"
        );
    }
    assert_eq!(
        fnv(serial.as_bytes()),
        golden,
        "{label}: schedule moved off its golden digest (now {:#018x})",
        fnv(serial.as_bytes())
    );
    serial
}

/// Counting P1/P5 with the two parties on their own bridged segment.
/// Lossless: the cross-bridge transfer has no retransmission for a lost
/// data frame, so loss wedges the run under either engine. The spin
/// length varies the schedule instead — every burst boundary moves.
fn counting_pair(protocol: Protocol, spin_us: u64) -> Simulation {
    let cfg = CountingConfig {
        target: 192,
        processes: 2,
        spin: SimDuration::from_micros(spin_us),
    };
    let mut sim_cfg = SimConfig::paper(2);
    sim_cfg.topology = Topology::segmented(2);
    build_counting(protocol, &cfg, sim_cfg)
}

#[test]
fn counting_protocols_identical_under_serial_and_workers() {
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    };
    // Last re-recorded when requests stopped being flooded: the one
    // device forwards exactly what it forwarded before, and only the
    // belief counters in `{:?}` of `BridgeStats` moved (P1: 191 hits
    // and 1 routed home, P5: 1 and 1, where flooding counted none).
    let golden = [
        (Protocol::P1, 48, 0x2c99_c108_8df0_a2e2_u64),
        (Protocol::P1, 53, 0xbb63_9a2a_b944_5280),
        (Protocol::P1, 61, 0x27c5_09a4_f21e_1b15),
        (Protocol::P5, 48, 0xff1e_bb2d_ca59_19ae),
        (Protocol::P5, 53, 0x677d_c0fc_4f53_39e1),
        (Protocol::P5, 61, 0x880b_79ec_3652_749e),
    ];
    for (protocol, spin_us, digest) in golden {
        let serial = assert_golden(
            &format!("{protocol:?} spin {spin_us}µs"),
            || counting_pair(protocol, spin_us),
            limits,
            digest,
        );
        assert!(
            serial.contains("finished=true"),
            "{protocol:?} spin {spin_us}µs: the run must finish"
        );
    }
}

#[test]
fn mirror_counting_pairs_identical_under_serial_and_workers() {
    // Pair A (segments 0/1) and pair B (segments 2/3) are exact mirror
    // images: every frame of pair B hits the shared bridge at the same
    // nanosecond as pair A's twin. Ties like these are where a naive
    // parallel schedule diverges first — the (time, tier, sequence)
    // order must pin them.
    let cfg = CountingConfig {
        target: 96,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    };
    // Last re-recorded when requests stopped being flooded: 8 request
    // transits instead of 16 (the device forwards 198 frames, not 206),
    // and the run ends 2 ms sooner.
    let serial = assert_golden(
        "4×2 mirror pairs",
        || build_segmented_counting_pairs(4, 2, &cfg),
        limits,
        0x30cb_e6aa_e053_6023,
    );
    assert!(serial.contains("finished=true"));
    // The number in `Workers(n)` asks for the per-segment cut and says
    // nothing else: past 2 it moves neither the outcome nor anything
    // the engine counted on the way.
    let counted = |n: usize| {
        let mut sim = build_segmented_counting_pairs(4, 2, &cfg);
        sim.set_parallel_mode(ParallelMode::Workers(n));
        let outcome = sim.run(limits);
        let m = sim.metrics("det", outcome.finished, 1);
        (
            fingerprint(&sim, &m, outcome),
            sim.event_stats(),
            sim.lane_event_counts().to_vec(),
        )
    };
    assert_eq!(counted(2), counted(16), "Workers(2) vs Workers(16)");
}

#[test]
fn segmented_solver_identical_under_serial_and_workers() {
    let cfg = SolverConfig {
        iterations: 6,
        work_per_iteration: SimDuration::from_millis(20),
    };
    // Last re-recorded when requests stopped being flooded: each halo
    // request crosses to its holder's segment alone, so 3 and 8 fewer
    // request transits (6 → 3 and 12 → 4 forwarded), 12 and 32 fewer
    // events, and the 4-rank run ends 2 ms sooner. Re-recorded again
    // when replies went back along pending requests only: 2 fewer
    // forwarded data frames in both runs (41 → 39 and 54 → 52 data
    // transmissions), 8 fewer events, end times unchanged.
    for (ranks, digest) in [(3, 0x8c99_6dd0_65a9_5e25_u64), (4, 0xd098_0600_876f_d502)] {
        let serial = assert_golden(
            &format!("{ranks}-rank solver"),
            || build_segmented_solver(ranks, 2, cfg),
            RunLimits::default(),
            digest,
        );
        assert!(serial.contains("finished=true"));
    }
}

#[test]
fn lossy_segmented_solver_identical_under_serial_and_workers() {
    // The solver's data-driven halo waits re-request after a loss, so a
    // lossy ether exercises every per-lane RNG draw without wedging.
    let cfg = SolverConfig {
        iterations: 6,
        work_per_iteration: SimDuration::from_millis(20),
    };
    const RANKS: usize = 3;
    let build = |seed: u64| {
        let mut sim_cfg = SimConfig::paper(RANKS);
        sim_cfg.ether = sim_cfg.ether.with_loss(0.01, seed);
        sim_cfg.topology = Topology::segmented(RANKS);
        let mut sim = Simulation::new(sim_cfg);
        for rank in 0..RANKS {
            sim.create_owned(rank, PageId::new(rank as u32));
            sim.add_process(rank, Box::new(SolverWorker::new(cfg, rank, RANKS)));
        }
        sim
    };
    // Re-recorded when requests stopped being flooded: 3 fewer
    // request transits at every seed (6 forwarded → 3), 9 fewer
    // events; end times unchanged. Seeds 1 and 7 re-recorded again when
    // replies went back along pending requests only: 2 fewer forwarded
    // data frames and 6 fewer events each, end times unchanged (seed 7
    // still ends at its limit, as before); seed 42's schedule did not
    // move.
    for (seed, digest) in [
        (1, 0x7431_e9f6_9e0f_703f_u64),
        (7, 0x2429_2580_fe8c_8562),
        (42, 0xc4a2_1022_19b8_8ed9),
    ] {
        assert_golden(
            &format!("lossy solver seed {seed}"),
            || build(seed),
            RunLimits::default(),
            digest,
        );
    }
}

#[test]
fn ring_failover_identical_under_serial_and_workers() {
    // The hard case: live election hellos on every segment, an injected
    // root death mid-run, fault retries, holder-directed routing.
    // Re-recorded when the workload went on request coalescing: each
    // reader fetches its own data since replies go back along pending
    // requests only, and without coalescing the writer's server queued
    // the reads a publication already satisfied, so its purges waited
    // behind them and the run ended at the 10 s limit (11.49 s under
    // the default limits). With coalescing it finishes at 1.654 s, inside
    // the limit again. Re-recorded again when the same NIC started
    // dropping frames about pages a host does not track: the hosts that
    // run no process track no page and stop snooping page 0's traffic,
    // so events go 23 059 → 18 075, and the run still ends at 1.654 s.
    // Re-recorded again when that NIC started dropping the requests of
    // a page the host does not hold, unless a grant of it is on its way
    // in: the writer's server stops snooping the readers' requests
    // while a reader holds, its server time goes 1.264 → 1.054 s,
    // events 18 075 → 16 062, and the run ends at 1.461 s. Re-recorded
    // again when the sparse hello became the only one: each hello
    // carries its four views tagged with 2-byte device ids, so wire
    // bytes go +8 per hello (1 191 293 → 1 263 021), the run ends
    // 12.8 µs later (1.461 397 → 1.461 410 s), and events stay 16 062.
    // Re-recorded again when waking a reader stopped counting as a read
    // of its copy: 19 of the writer's page-0 frames reach a reader host
    // (8, 16 or 24) after the previous frame woke its reader and before
    // the reader re-read, and are dropped at the NIC, the first at
    // 103 ms, just after the root dies. Each saves that server an
    // install; the run ends at 1.285 s, reader rounds go 44/44/50 →
    // 41/41/43, requests 375 → 324, data frames 289 → 248 and events
    // 16 062 → 14 172. Every reader still reads the final value.
    let cfg = FailoverConfig::ring_4x8();
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(10),
        ..RunLimits::default()
    };
    let serial = assert_golden(
        "ring failover",
        || build_ring_failover(&cfg),
        limits,
        0xfa65_cea7_f4b4_be75,
    );
    assert!(
        serial.contains("finished=true"),
        "ring failover hit its 10 s limit:\n{serial}"
    );
}

#[test]
fn open_loop_tree_identical_under_serial_and_workers() {
    // Open-loop arrivals on the 4×8 tree, every host's retransmission
    // timer measuring its own round trips: the estimators are per-host
    // state touched only in that host's handlers, so what they count
    // must not depend on how hosts are dealt to lanes. Field by field,
    // so a divergence names what moved.
    let mut cfg = OpenLoopConfig::seeded(5);
    cfg.accesses_per_host = 60;
    let scenario = OpenLoopScenario::tree_4x8(cfg).with_piggyback();
    let serial = scenario.run(None);
    assert!(serial.outcome.finished);
    assert!(serial.retransmits > 0, "no timer ever fired:\n{serial}");
    for workers in [2, 4] {
        let par = scenario.run(Some(workers));
        macro_rules! same {
            ($($field:ident),+) => {$(
                assert_eq!(
                    serial.$field, par.$field,
                    "Workers({workers}): {}", stringify!($field)
                );
            )+};
        }
        same!(
            outcome,
            accesses,
            hits,
            faults,
            piggybacked,
            forwarded,
            filtered,
            retransmits,
            spurious
        );
        same!(busiest_timer, p50, p99, p999, max, queue_high_water, digest);
    }
}

#[test]
fn uncuttable_deployments_run_as_one_lane() {
    // Flat topology: nothing to cut along, so `Workers(n)` runs the one
    // lane `Serial` does.
    let cfg = CountingConfig {
        target: 64,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut sim_cfg = SimConfig::paper(2);
    sim_cfg.ether = sim_cfg.ether.with_loss(0.02, 7);
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    };
    let build = || build_counting(Protocol::P1, &cfg, sim_cfg.clone());
    assert_golden("flat P1, lossy", build, limits, 0x7231_6d93_ad46_9e9a);
}

#[test]
fn cut_and_resumed_run_equals_uninterrupted() {
    // A run cut by `max_sim_time` keeps the event that tripped the limit
    // queued, so running again continues the same schedule: however
    // often it is cut, and whichever way each leg is cut into lanes
    // (switching exercises dealing the pending events out to lanes and
    // collecting them again), the end state is the uninterrupted run's.
    let leg = |ms: u64| RunLimits {
        max_sim_time: SimDuration::from_millis(ms),
        ..RunLimits::default()
    };
    use ParallelMode::{Serial, Workers};
    for protocol in [Protocol::P1, Protocol::P5] {
        let uninterrupted = run_and_print(counting_pair(protocol, 48), Serial, leg(120_000));
        assert!(uninterrupted.contains("finished=true"));
        for cuts in [&[50][..], &[20, 70, 200], &[333]] {
            for modes in [
                [Serial, Serial],
                [Workers(2), Workers(2)],
                [Serial, Workers(2)],
                [Workers(2), Serial],
            ] {
                let mut sim = counting_pair(protocol, 48);
                let mut events = 0;
                for (i, &cut) in cuts.iter().enumerate() {
                    sim.set_parallel_mode(modes[i % 2]);
                    let outcome = sim.run(leg(cut));
                    assert!(!outcome.finished, "{protocol:?} finished by {cut} ms");
                    events += outcome.events;
                }
                sim.set_parallel_mode(modes[cuts.len() % 2]);
                let last = sim.run(leg(120_000));
                let outcome = RunOutcome {
                    events: events + last.events,
                    ..last
                };
                let m = sim.metrics("det", outcome.finished, 1);
                assert_eq!(
                    fingerprint(&sim, &m, outcome),
                    uninterrupted,
                    "{protocol:?} cut at {cuts:?} ms under {modes:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_run_completes_a_page_migration() {
    // Belt-and-braces liveness check independent of the fingerprints: a
    // two-segment pair actually moves the page and finishes.
    let mut sim = counting_pair(Protocol::P1, 48);
    sim.set_parallel_mode(ParallelMode::Workers(2));
    let outcome = sim.run(RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    });
    assert!(outcome.finished, "P1 pair must finish under Workers(2)");
    let page = PageId::new(0);
    assert!(
        (0..2).any(|h| sim.host(h).table.is_consistent_holder(page)),
        "someone must hold the counted page"
    );
}

// ---------------------------------------------------------------------
// The stop rule on several hosts: a lane asks "is everyone done?" of
// one host at a time, so the order hosts finish in must not matter and
// nothing added between two `run`s may be missed.
// ---------------------------------------------------------------------

/// One publisher per host, each on a page of its own, with *fewer*
/// cycles the higher the host: the last host finishes first and host 0
/// last — the reverse of the order a lane learns completion in.
fn reverse_finishers(sim_cfg: SimConfig) -> Simulation {
    use mether_workloads::Publisher;
    let hosts = sim_cfg.hosts;
    let mut sim = Simulation::new(sim_cfg);
    for h in 0..hosts {
        let page = PageId::new(h as u32);
        sim.create_owned(h, page);
        let cycles = 3 * (hosts - h) as u32;
        sim.add_process(h, Box::new(Publisher::new(page, cycles)));
    }
    sim
}

#[test]
fn hosts_finishing_out_of_index_order_stop_the_run_at_the_same_event() {
    // Goldens taken at the last commit that re-scanned every host after
    // every event: the same instant, the same event count.
    let limits = RunLimits::default();
    assert_golden(
        "flat, host 0 last",
        || reverse_finishers(SimConfig::paper(6)),
        limits,
        0x5d08_2085_cf98_cb78,
    );
    assert_golden(
        "4x2 star, host 0 last",
        || reverse_finishers(SimConfig::paper_segmented(4, 2)),
        limits,
        0x6ae0_07d4_7c13_c64f,
    );
}

#[test]
fn a_run_sees_what_was_added_since_the_last_one() {
    use mether_core::{MapMode, View};
    use mether_sim::{ArrivalStream, OpenAccess};
    use mether_workloads::Publisher;

    /// One cold read of `page` at `at`.
    struct OneAccess(Option<OpenAccess>);
    impl ArrivalStream for OneAccess {
        fn next_access(&mut self) -> Option<OpenAccess> {
            self.0.take()
        }
    }

    for mode in [ParallelMode::Serial, ParallelMode::Workers(2)] {
        let mut sim = Simulation::new(SimConfig::paper_segmented(2, 2));
        sim.set_parallel_mode(mode);
        let (first, second) = (PageId::new(1), PageId::new(0));
        sim.create_owned(3, first);
        sim.create_owned(0, second);
        // Only the last host has work: the run ends when it does, with
        // every host known to be done.
        sim.add_process(3, Box::new(Publisher::new(first, 4)));
        let one = sim.run(RunLimits::default());
        assert!(one.finished && one.events > 0, "{mode:?}: {one:?}");
        // A process on the *first* host, added after that: the next run
        // must look again, not remember that host 0 was done.
        sim.add_process(0, Box::new(Publisher::new(second, 4)));
        let two = sim.run(RunLimits::default());
        assert!(two.finished && two.events > 0, "{mode:?}: {two:?}");
        assert!(two.wall > one.wall, "{mode:?}: the second run took time");
        assert!(
            sim.host(0).all_done(),
            "{mode:?}: and ran the publisher out"
        );
        // Likewise an open-loop stream: whatever the run makes of one
        // attached this late, it is not "finished, nothing to do".
        let access = OpenAccess {
            at: sim.now() + SimDuration::from_millis(1),
            page: first,
            view: View::short_demand(),
            mode: MapMode::ReadOnly,
            cold: true,
        };
        sim.attach_open_loop(1, Box::new(OneAccess(Some(access))));
        let three = sim.run(RunLimits::default());
        assert!(
            !(three.finished && three.events == 0),
            "{mode:?}: an undrained stream is not completion: {three:?}"
        );
    }
}
