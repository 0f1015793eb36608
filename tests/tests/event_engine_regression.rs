//! Deterministic-seed regression tests pinning the per-transit event
//! engine to the per-host schedule it replaced.
//!
//! The overhaul collapsed the N−1 per-host arrival events of a broadcast
//! into one `Deliver` event that fans out at pop time. For the paper's
//! workloads, at fixed seeds (including lossy-network seeds), the two
//! schedules produced **identical final page states and identical
//! metrics** — same page bytes, generations and holders on every host,
//! same virtual wall clock, CPU split, context switches, fault
//! latencies, and traffic counters. The per-host schedule is gone; the
//! fingerprints it agreed on stay here as golden FNV literals, recorded
//! in the last commit that could still run both. Any change in
//! same-tick delivery order, wake order, or loss-injection alignment
//! shows up as a digest mismatch.
//!
//! The heap-shrink acceptance criterion rides along: on a 16-host
//! broadcast-heavy run the heap carries one delivery event per
//! broadcast, where the per-host schedule carried hosts−1.

use mether_core::PageId;
use mether_net::{SimDuration, SimTime};
use mether_sim::{
    EventKind, ProtocolMetrics, RunLimits, RunOutcome, SimConfig, Simulation, Step, StepCtx,
    Topology, Workload,
};
use mether_workloads::{
    build_counting, build_publisher_sim, CountingConfig, Protocol, SolverConfig, SolverWorker,
};
use std::sync::{Arc, Mutex};

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

/// Everything observable about a finished simulation, flattened to a
/// comparable string: per-host page-table state first, then the full
/// metrics row (floats compared bit-exactly via `to_bits`, which also
/// makes NaN-valued per-addition ratios comparable).
fn fingerprint(sim: &Simulation, hosts: usize, m: &ProtocolMetrics) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for h in 0..hosts {
        let host = sim.host(h);
        writeln!(
            out,
            "host{h}: ctx={} server_ns={} latencies={} heard={} max_q={}",
            host.ctx_switches,
            host.server_time.as_nanos(),
            host.fault_latencies.len(),
            host.frames_heard,
            host.max_server_queue,
        )
        .unwrap();
        writeln!(out, "  table_stats={:?}", host.table.stats()).unwrap();
        for page in host.table.tracked_pages() {
            let buf = host.table.page_buf(page);
            writeln!(
                out,
                "  page{}: gen={:?} holder={} locked={} purge_pending={} valid={:?} digest={:016x}",
                page.index(),
                host.table.generation(page),
                host.table.is_consistent_holder(page),
                host.table.is_locked(page),
                host.table.purge_pending(page),
                buf.map(|b| b.valid_len()),
                buf.map_or(0, |b| fnv(b.as_slice())),
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "metrics: finished={} wall={} user={} sys={} net={:?} load={:016x} bpa={:016x} ctx={} cpa={:016x} lat={} losses={} wins={} additions={} space={} max_q={}",
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
        m.losses,
        m.wins,
        m.additions,
        m.space_pages,
        m.max_server_queue,
    )
    .unwrap();
    out
}

/// Runs `protocol` at `seed` (lossy 10 Mbit Ethernet) on `topology`:
/// the finished simulation, its outcome and its full fingerprint.
fn counting_run(
    protocol: Protocol,
    seed: u64,
    topology: Topology,
) -> (Simulation, RunOutcome, String) {
    let cfg = CountingConfig {
        target: 192,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    let mut sim_cfg = SimConfig::paper(2);
    sim_cfg.ether = sim_cfg.ether.with_loss(0.02, seed);
    sim_cfg.topology = topology;
    let mut sim = build_counting(protocol, &cfg, sim_cfg);
    let limits = RunLimits {
        max_sim_time: SimDuration::from_secs(120),
        ..RunLimits::default()
    };
    let outcome = sim.run(limits);
    let m = sim.metrics(&protocol.label(), outcome.finished, protocol.space_pages());
    let print = fingerprint(&sim, 2, &m);
    (sim, outcome, print)
}

fn counting_fingerprint_on(protocol: Protocol, seed: u64, topology: Topology) -> String {
    counting_run(protocol, seed, topology).2
}

fn counting_fingerprint(protocol: Protocol, seed: u64) -> String {
    counting_fingerprint_on(protocol, seed, Topology::Flat)
}

/// Runs the distributed solver at `seed` on `topology`.
fn solver_fingerprint_on(seed: u64, topology: Topology) -> String {
    const WORKERS: usize = 3;
    let cfg = SolverConfig {
        iterations: 6,
        work_per_iteration: SimDuration::from_millis(20),
    };
    let mut sim_cfg = SimConfig::paper(WORKERS);
    sim_cfg.ether = sim_cfg.ether.with_loss(0.01, seed);
    sim_cfg.topology = topology;
    let mut sim = Simulation::new(sim_cfg);
    for rank in 0..WORKERS {
        sim.create_owned(rank, PageId::new(rank as u32));
        sim.add_process(rank, Box::new(SolverWorker::new(cfg, rank, WORKERS)));
    }
    let outcome = sim.run(RunLimits::default());
    let m = sim.metrics("solver", outcome.finished, WORKERS as u32);
    fingerprint(&sim, WORKERS, &m)
}

/// Asserts `fingerprint` hashes to `golden`: the FNV of the fingerprint
/// the per-transit schedule produced at the last commit where the
/// per-host schedule was still there to agree with it. The literal
/// keeps that agreement alive as data.
fn assert_golden(label: &str, fingerprint: &str, golden: u64) {
    assert_eq!(
        fnv(fingerprint.as_bytes()),
        golden,
        "{label}: schedule moved off its golden digest (now {:#018x})",
        fnv(fingerprint.as_bytes())
    );
}

#[test]
fn counting_workloads_identical_across_delivery_modes_at_fixed_seeds() {
    // P1 ping-pongs the consistent copy (request/transfer broadcasts);
    // P5 is the paper's final protocol (purge broadcasts + data-driven
    // waits) — together they cover every packet kind and wake path.
    let golden = [
        (Protocol::P1, 1, 0xd11f_4367_6f2e_3f8d_u64),
        (Protocol::P1, 7, 0x283a_81ea_d336_7089),
        (Protocol::P1, 42, 0x8731_e6a6_c209_d51f),
        (Protocol::P5, 1, 0xe8c8_7cb3_2186_c83c),
        (Protocol::P5, 7, 0x5f77_5196_accf_21e5),
        (Protocol::P5, 42, 0xe1d3_507e_48fa_8bf7),
    ];
    for (protocol, seed, digest) in golden {
        let transit = counting_fingerprint(protocol, seed);
        assert_golden(&format!("{protocol:?} seed {seed}"), &transit, digest);
    }
}

#[test]
fn counting_runs_are_reproducible_at_a_fixed_seed() {
    // Belt and braces for the digests above: the same run twice at the
    // same seed is bit-identical.
    let a = counting_fingerprint(Protocol::P5, SEEDS[0]);
    let b = counting_fingerprint(Protocol::P5, SEEDS[0]);
    assert_eq!(a, b);
}

#[test]
fn solver_workload_identical_across_delivery_modes_at_fixed_seeds() {
    // One digest for all three seeds: at 1 % loss a run this short
    // happens to lose no frame, and the fingerprint does not name the
    // seed.
    for seed in SEEDS {
        let transit = solver_fingerprint_on(seed, Topology::Flat);
        assert_golden(
            &format!("solver seed {seed}"),
            &transit,
            0x9ad1_132c_c980_7727,
        );
    }
}

// ---------------------------------------------------------------------
// Topology equivalence: a 1-segment *bridged* deployment runs the
// masked `Recipients::Subset` delivery path with a live (never-
// forwarding) bridge, where the flat deployment runs `AllExcept` with
// no bridge at all. For any workload and seed the two must produce
// byte-identical page states and metrics — the masked path is the flat
// path, just spelled as a bitmask.
// ---------------------------------------------------------------------

#[test]
fn one_segment_bridged_topology_identical_to_flat_counting_at_fixed_seeds() {
    for protocol in [Protocol::P1, Protocol::P5] {
        for seed in SEEDS {
            let flat = counting_fingerprint(protocol, seed);
            let bridged = counting_fingerprint_on(protocol, seed, Topology::segmented(1));
            assert_eq!(
                flat, bridged,
                "{protocol:?} seed {seed}: 1-segment bridged topology diverged from flat"
            );
        }
    }
}

#[test]
fn one_segment_bridged_topology_identical_to_flat_solver_at_fixed_seeds() {
    for seed in SEEDS {
        let flat = solver_fingerprint_on(seed, Topology::Flat);
        let bridged = solver_fingerprint_on(seed, Topology::segmented(1));
        assert_eq!(
            flat, bridged,
            "solver seed {seed}: 1-segment bridged topology diverged from flat"
        );
    }
}

// ---------------------------------------------------------------------
// Heap-shrink acceptance: one writer broadcasting to 15 snooping hosts.
// The workload is `mether_workloads::Publisher` — shared with the
// `event_queue/broadcast_heap_16` microbench so the baseline numbers
// measure exactly what this test pins.
// ---------------------------------------------------------------------

#[test]
fn per_transit_delivery_shrinks_heap_pushes_at_least_4x_on_16_hosts() {
    let mut sim = build_publisher_sim(16, 64);
    let outcome = sim.run(RunLimits::default());
    assert!(outcome.finished, "publisher must complete its 64 cycles");
    let m = sim.metrics("broadcast-heavy", outcome.finished, 1);
    let stats = sim.event_stats();

    // One delivery event per broadcast, where the per-host schedule
    // pushed one per recipient: hosts−1 = 15× as many.
    assert!(stats.transits >= 64, "every purge cycle broadcast");
    assert_eq!(stats.delivery_pushes, stats.transits);

    // And the outcome is still the one both schedules produced.
    let print = fingerprint(&sim, 16, &m);
    assert_golden("16-host publisher", &print, 0xb768_6fe7_a1d5_6e47);
}

/// Every popped event is counted once, by kind: the kinds sum to the
/// run's events, and a flat publisher pops only bursts and
/// deliveries.
#[test]
fn event_pops_by_kind_sum_to_the_events_run() {
    let mut sim = build_publisher_sim(16, 64);
    let outcome = sim.run(RunLimits::default());
    let pops = sim.event_stats().pops;
    let total: u64 = EventKind::ALL.into_iter().map(|kind| pops.get(kind)).sum();
    assert_eq!(total, outcome.events);
    let popped: Vec<&str> = EventKind::ALL
        .into_iter()
        .filter(|&kind| pops.get(kind) > 0)
        .map(EventKind::label)
        .collect();
    assert_eq!(popped, ["burst", "deliver"]);
    assert!(pops.get(EventKind::Deliver) >= 64, "one per broadcast");
}

// ---------------------------------------------------------------------
// Burst run-ahead. Under P4 each host's one process spins on the short
// page, so most of the run's events are CPU bursts that end with
// nothing else due before them. Such a burst is still one event, in
// `outcome.events` and in `pops`, but it need not go through the heap.
// The digest, the event count and every kind's pops were recorded
// before the engine learned to run bursts ahead.
// ---------------------------------------------------------------------

#[test]
fn spinning_bursts_run_ahead_of_the_heap_on_the_same_schedule() {
    let golden = [
        (
            1,
            0xc47b_345a_c751_7102_u64,
            4_799_185_u64,
            [4_799_087_u64, 98, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            7,
            0x3888_144f_da3b_e0a7,
            4_799_333,
            [4_799_332, 1, 0, 0, 0, 0, 0, 0, 0],
        ),
    ];
    for (seed, digest, events, pops) in golden {
        let (sim, outcome, print) = counting_run(Protocol::P4, seed, Topology::Flat);
        let stats = sim.event_stats();
        let by_kind = EventKind::ALL.map(|kind| stats.pops.get(kind));
        assert_golden(&format!("P4 seed {seed}"), &print, digest);
        assert_eq!(outcome.events, events, "P4 seed {seed}: events");
        assert_eq!(by_kind, pops, "P4 seed {seed}: pops by kind");
        assert!(
            stats.heap_pushes <= outcome.events / 2,
            "P4 seed {seed}: {} heap pushes for {} events",
            stats.heap_pushes,
            outcome.events
        );
    }
}

/// Logs `(id, now)` at each of its steps, then does the next of its
/// `steps`, then exits.
struct Logged {
    id: usize,
    steps: Vec<Step>,
    log: Arc<Mutex<Vec<(usize, SimTime)>>>,
}

impl Workload for Logged {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        self.log
            .lock()
            .expect("no step panicked")
            .push((self.id, ctx.now));
        if self.steps.is_empty() {
            Step::Done
        } else {
            self.steps.remove(0)
        }
    }
}

/// Runs one [`Logged`] process per `(host, steps)` entry on a
/// 2-host paper deployment, the entry's index its id, and returns the
/// shared log.
fn logged_run(programs: Vec<(usize, Vec<Step>)>) -> Vec<(usize, SimTime)> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(SimConfig::paper(2));
    for (id, (host, steps)) in programs.into_iter().enumerate() {
        let log = Arc::clone(&log);
        sim.add_process(host, Box::new(Logged { id, steps, log }));
    }
    assert!(sim.run(RunLimits::default()).finished);
    let log = log.lock().expect("no step panicked");
    log.clone()
}

/// A burst that ends at the same instant as a queued event is not run
/// ahead of it: host 0's second 10 µs burst ends at 20 µs, where host
/// 1's sleep timer, queued first, is due too. The timer pops first, so
/// host 1 steps before host 0 does.
#[test]
fn a_burst_tied_with_a_queued_timer_pops_after_it() {
    let us = SimDuration::from_micros;
    let log = logged_run(vec![
        (0, vec![Step::Compute(us(10)), Step::Compute(us(10))]),
        (1, vec![Step::Sleep(us(20))]),
    ]);
    let at = |micros| SimTime::ZERO + us(micros);
    assert_eq!(
        log,
        [
            (0, at(0)),
            (1, at(0)),
            (0, at(10)),
            (1, at(20)),
            (0, at(20))
        ]
    );
}

/// A burst end dispatched together with a timer due at the same
/// instant is queued before it, as it always was. On host 0, process 0
/// computes, then sleeps for exactly one context switch; the CPU
/// switches to process 1, so the switch and the sleep end together. The
/// switch pops first and process 1 runs; had the timer popped first,
/// the woken process 0 would have taken the CPU back.
#[test]
fn a_burst_tied_with_its_own_hosts_new_timer_pops_before_it() {
    let ctx = SimConfig::paper(2).calib.ctx_switch;
    let log = logged_run(vec![
        (
            0,
            vec![
                Step::Compute(SimDuration::from_micros(10)),
                Step::Sleep(ctx),
            ],
        ),
        (0, vec![]),
    ]);
    let (ctx, at) = (ctx.as_nanos(), |ns| {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    });
    assert_eq!(
        log,
        [
            (0, at(0)),
            (0, at(10_000)),
            (1, at(10_000 + ctx)),
            (0, at(10_000 + 2 * ctx))
        ]
    );
}
