//! The simulator workloads: the paper's counting protocols and the
//! open-loop deployments. Two time bases throughout — **sim** (what the
//! modelled Sun-3/Ethernet DSM would take; a pure function of the seed,
//! checked to repeat exactly) and **host** (what this implementation
//! costs to run, in reference seconds — see `speed.rs`; median over
//! repetitions).

use crate::report::{Outcome, RunArgs};
use crate::speed::{self, Kernel};
use crate::stats::{hist_quantile_ns, median, quantile};
use crate::sys;
use crate::trace::Tracer;
use mether_net::{BridgeStats, EtherConfig, NetStats, SimDuration};
use mether_sim::{
    EventStats, LatencyHistogram, ParallelMode, ProtocolMetrics, RunLimits, RunOutcome, SimConfig,
    Simulation,
};
use mether_workloads::{
    build_counting, ArrivalProcess, CountingConfig, OpenLoopConfig, OpenLoopScenario, Protocol,
};
use std::time::{Duration, Instant};

/// Every open-loop run is capped here: past the capacity knee a rung
/// never drains (50 % writes at a 300 ms gap: 50 M events, 7.7 GB), and
/// a cut rung is a failed rung, not a hung benchmark.
const MAX_EVENTS: u64 = 8_000_000;
/// Resident set past which a ladder rung takes the process down.
const RSS_LIMIT_MB: f64 = 2048.0;
/// The fault-latency limit the SLO rate is quoted against (on p99).
const SLO_P99_MS: f64 = 500.0;
/// Seeds pooled behind each ladder rung's p99.
const LADDER_SEEDS: u64 = 3;
/// Fewest repetitions behind a host-time median.
const MIN_REPS: usize = 3;

/// Host time spent in each stage of one simulation's life, in
/// reference seconds, and the stages after the build as the clock read
/// them.
#[derive(Debug, Default, Clone, Copy)]
struct HostTimes {
    build_s: f64,
    run_s: f64,
    sweep_s: f64,
    report_s: f64,
    raw_work_s: f64,
    raw_build_s: f64,
}

impl HostTimes {
    fn add(&mut self, o: HostTimes) {
        self.build_s += o.build_s;
        self.run_s += o.run_s;
        self.sweep_s += o.sweep_s;
        self.report_s += o.report_s;
        self.raw_work_s += o.raw_work_s;
        self.raw_build_s += o.raw_build_s;
    }

    /// The repetition's fixed work: everything after the build.
    fn work_s(&self) -> f64 {
        self.run_s + self.sweep_s + self.report_s
    }
}

/// One simulation built, run to its limits, swept and reported, with a
/// span around each call.
struct SimRun {
    sim: Simulation,
    outcome: RunOutcome,
    metrics: ProtocolMetrics,
    host: HostTimes,
}

fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    secs: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let span = tr.begin(name, op);
    let t = Instant::now();
    let v = f();
    *secs = t.elapsed().as_secs_f64();
    tr.end(span);
    v
}

fn drive(
    tr: &mut Tracer,
    op: u64,
    label: &str,
    limits: RunLimits,
    workers: Option<usize>,
    build: impl FnOnce() -> Simulation,
) -> SimRun {
    let mut host = HostTimes::default();
    // The machine's speed before the build, between build and run, and
    // after the report: each stage is scaled by the samples around it.
    let before = speed::sample(Kernel::Compute, tr);
    let whole = tr.begin("sim", op);
    let mut sim = timed(tr, "sim.build", op, &mut host.build_s, build);
    if let Some(w) = workers {
        sim.set_parallel_mode(ParallelMode::Workers(w));
    }
    let between = speed::sample(Kernel::Compute, tr);
    let outcome = timed(tr, "sim.run", op, &mut host.run_s, || sim.run(limits));
    // Panics, naming the violated invariant, if the deployment ended
    // incoherent — the correctness gate every sim run passes through.
    timed(tr, "sim.check_invariants", op, &mut host.sweep_s, || {
        sim.check_invariants()
    });
    let metrics = timed(tr, "sim.metrics", op, &mut host.report_s, || {
        sim.metrics(label, outcome.finished, 0)
    });
    tr.end(whole);
    let after = speed::sample(Kernel::Compute, tr);
    host.raw_work_s = host.work_s();
    host.raw_build_s = host.build_s;
    host.build_s *= speed::scale(before, between);
    let work = speed::scale(between, after);
    host.run_s *= work;
    host.sweep_s *= work;
    host.report_s *= work;
    SimRun {
        sim,
        outcome,
        metrics,
        host,
    }
}

/// Public counters read off finished simulations, summed (or maxed)
/// over the simulations of one repetition.
#[derive(Debug, Default, Clone)]
struct Layers {
    events: u64,
    sim_wall_ns: u64,
    net: NetStats,
    seg_bytes_max: u64,
    seg_util_max: f64,
    bridge: BridgeStats,
    dev_forwarded_max: u64,
    cpu_ns: u64,
    ctx: u64,
    server_queue_max: u64,
    server_busy_share_max: f64,
    coalesced: u64,
    piggybacked: u64,
    frames_heard: u64,
    frames_heard_max: u64,
    hosts: u64,
    /// Demand faults taken: blocked processes plus open-loop misses.
    faults: u64,
    ev: EventStats,
    /// Open-loop digests of the member simulations, folded.
    digest: u64,
}

impl Layers {
    fn absorb(&mut self, run: &SimRun) {
        let sim = &run.sim;
        let wall_ns = run.outcome.wall.as_nanos();
        self.events += run.outcome.events;
        self.sim_wall_ns += wall_ns;
        self.net = NetStats::sum([&self.net, &sim.net_stats()]);
        let bandwidth = EtherConfig::ten_megabit().bandwidth_bps as f64;
        for seg in 0..sim.segment_count() {
            let bytes = sim.segment_stats(seg).bytes;
            self.seg_bytes_max = self.seg_bytes_max.max(bytes);
            let util = bytes as f64 * 8.0 / (bandwidth * wall_ns.max(1) as f64 / 1e9);
            self.seg_util_max = self.seg_util_max.max(util);
        }
        self.bridge = BridgeStats::sum([self.bridge, sim.bridge_stats().unwrap_or_default()]);
        for d in sim.bridge_device_stats() {
            self.dev_forwarded_max = self.dev_forwarded_max.max(d.forwarded);
        }
        for h in 0..sim.host_count() {
            let host = sim.host(h);
            let mut cpu = host.server_time;
            for p in 0..host.proc_count() {
                let t = host.times(p);
                cpu += t.user + t.sys;
            }
            self.cpu_ns += cpu.as_nanos();
            self.ctx += host.ctx_switches;
            self.server_queue_max = self.server_queue_max.max(host.max_server_queue as u64);
            let busy = host.server_time.as_nanos() as f64 / wall_ns.max(1) as f64;
            self.server_busy_share_max = self.server_busy_share_max.max(busy);
            self.coalesced += host.requests_coalesced;
            self.piggybacked += host.requests_piggybacked;
            self.frames_heard += host.frames_heard;
            self.frames_heard_max = self.frames_heard_max.max(host.frames_heard);
            self.faults += host.fault_latencies.len() as u64 + host.open_counts().2;
        }
        self.hosts += sim.host_count() as u64;
        let ev = sim.event_stats();
        self.ev.heap_pushes += ev.heap_pushes;
        self.ev.delivery_pushes += ev.delivery_pushes;
        self.ev.bridge_pushes += ev.bridge_pushes;
        self.ev.control_pushes += ev.control_pushes;
        self.ev.timer_ring_pushes += ev.timer_ring_pushes;
        self.ev.task_handoffs += ev.task_handoffs;
        self.ev.transits += ev.transits;
        self.ev.max_heap_depth = self.ev.max_heap_depth.max(ev.max_heap_depth);
        self.digest = self.digest.rotate_left(7) ^ sim.open_loop_digest();
    }

    /// Everything sim-time about the repetition in one word: two
    /// repetitions of a seed must agree on it exactly.
    fn fingerprint(&self) -> u64 {
        [
            self.events,
            self.sim_wall_ns,
            self.net.packets,
            self.net.bytes,
            self.cpu_ns,
            self.ctx,
            self.ev.heap_pushes,
            self.digest,
        ]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The per-layer counters, by the layer that owns each.
    fn publish(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let n = &self.net;
        out.set("net.wire.packets", n.packets as f64);
        out.set("net.wire.requests", n.requests as f64);
        out.set("net.wire.data_packets", n.data_packets as f64);
        out.set("net.wire.control_packets", n.control_packets as f64);
        out.set("net.wire.lost", n.lost as f64);
        out.set("net.wire.decode_errors", n.decode_errors as f64);
        out.set(
            "net.wire.requests_per_fault",
            ratio(n.requests, self.faults),
        );
        out.set("net.seg.bytes_max", self.seg_bytes_max as f64);
        out.set("net.seg.util_max", self.seg_util_max);
        let b = &self.bridge;
        out.set("net.bridge.heard", b.heard as f64);
        out.set("net.bridge.forwarded", b.forwarded as f64);
        out.set("net.bridge.req_forwarded", b.req_forwarded as f64);
        out.set("net.bridge.filtered", b.filtered as f64);
        out.set("net.bridge.dropped", b.dropped as f64);
        out.set("net.bridge.queue_drops", b.queue_drops as f64);
        out.set("net.bridge.belief_hits", b.belief_hits as f64);
        out.set(
            "net.bridge.belief_fallback_floods",
            b.belief_fallback_floods as f64,
        );
        out.set("net.bridge.belief_repairs", b.belief_repairs as f64);
        out.set("net.bridge.forward_ratio", ratio(b.forwarded, b.heard));
        out.set(
            "net.bridge.belief_hit_ratio",
            ratio(b.belief_hits, b.belief_hits + b.belief_fallback_floods),
        );
        out.set(
            "net.bridge.dev_forwarded_max",
            self.dev_forwarded_max as f64,
        );
        let e = &self.ev;
        out.set("sim.engine.heap_pushes", e.heap_pushes as f64);
        out.set("sim.engine.delivery_pushes", e.delivery_pushes as f64);
        out.set("sim.engine.bridge_pushes", e.bridge_pushes as f64);
        out.set("sim.engine.control_pushes", e.control_pushes as f64);
        out.set("sim.engine.timer_ring_pushes", e.timer_ring_pushes as f64);
        out.set("sim.engine.transits", e.transits as f64);
        out.set("sim.engine.max_heap_depth", e.max_heap_depth as f64);
        out.set(
            "sim.engine.events_per_transit",
            ratio(self.events, e.transits),
        );
        out.set("sim.host.server_queue_max", self.server_queue_max as f64);
        out.set("sim.host.server_busy_share_max", self.server_busy_share_max);
        out.set("sim.host.requests_coalesced", self.coalesced as f64);
        out.set("sim.host.requests_piggybacked", self.piggybacked as f64);
        out.set(
            "sim.host.dup_suppressed_ratio",
            ratio(self.coalesced + self.piggybacked, n.requests),
        );
        out.set(
            "sim.host.frames_heard_mean",
            ratio(self.frames_heard, self.hosts),
        );
        out.set("sim.host.frames_heard_max", self.frames_heard_max as f64);
        out.set("sim.host.ctx_switches", self.ctx as f64);
    }
}

/// Host-time samples of the repetitions of one workload run, and the
/// sim-time fingerprint they must all share.
#[derive(Default)]
struct Reps {
    setup_s: Vec<f64>,
    work_s: Vec<f64>,
    raw_work_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    events_per_s: Vec<f64>,
    stages: Vec<HostTimes>,
    /// Work seconds of the repetitions that ran with spans on / off
    /// (a traced run alternates, to price the tracing).
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    fingerprint: Option<u64>,
    repeatable: bool,
}

impl Reps {
    fn new() -> Reps {
        Reps {
            repeatable: true,
            ..Reps::default()
        }
    }

    /// One repetition: its stage times, the events its `run` calls
    /// processed, and its sim-time fingerprint.
    fn push(&mut self, host: HostTimes, events: u64, fp: u64, spans_on: bool) {
        self.setup_s.push(host.build_s);
        self.work_s.push(host.work_s());
        self.raw_work_s.push(host.raw_work_s);
        self.raw_setup_s.push(host.raw_build_s);
        self.events_per_s.push(events as f64 / host.run_s);
        self.stages.push(host);
        if spans_on {
            self.traced_s.push(host.work_s());
        } else {
            self.untraced_s.push(host.work_s());
        }
        self.repeatable &= *self.fingerprint.get_or_insert(fp) == fp;
    }

    /// Times `build` (everything a repetition builds) `n` more times:
    /// a sub-millisecond build needs more samples than there are
    /// repetitions before its median holds still. Called after every
    /// repetition, so the samples see the same stretches of the run —
    /// and the same speeds of the box — as the work does.
    fn extra_setups<T>(&mut self, tr: &mut Tracer, n: usize, mut build: impl FnMut() -> T) {
        let before = speed::sample(Kernel::Compute, tr);
        let mut raw = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            let built = build();
            raw.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        let scale = speed::scale(before, speed::sample(Kernel::Compute, tr));
        self.setup_s.extend(raw.iter().map(|s| s * scale));
        self.raw_setup_s.extend(raw);
    }

    /// The host-time end-to-end metrics and the engine's stage times.
    fn publish(&self, out: &mut Outcome, traced: bool) {
        out.set("setup_s", median(&self.setup_s));
        out.set("run_wall_s", median(&self.work_s));
        out.set("sim_events_per_s", median(&self.events_per_s));
        out.set("peak_rss_mb", sys::peak_rss_mb());
        let stage =
            |f: fn(&HostTimes) -> f64| median(&self.stages.iter().map(f).collect::<Vec<_>>());
        out.set("sim.engine.build_s", stage(|h| h.build_s));
        out.set("sim.engine.run_s", stage(|h| h.run_s));
        out.set("sim.engine.report_s", stage(|h| h.report_s));
        out.set("sim.observer.sweep_s", stage(|h| h.sweep_s));
        if traced && !self.untraced_s.is_empty() {
            out.set(
                "bench.trace.overhead_share",
                median(&self.traced_s) / median(&self.untraced_s) - 1.0,
            );
        }
        out.check(
            "every repetition of the seed gives identical sim-time results",
            self.repeatable,
        );
        out.note(format!(
            "{} repetitions; run_wall_s quartiles {:.4} / {:.4} / {:.4} reference s (as the clock read them: {:.4} / {:.4} / {:.4} s)",
            self.work_s.len(),
            quantile(&self.work_s, 0.25),
            median(&self.work_s),
            quantile(&self.work_s, 0.75),
            quantile(&self.raw_work_s, 0.25),
            median(&self.raw_work_s),
            quantile(&self.raw_work_s, 0.75)
        ));
        out.note(format!(
            "setup_s: median of {} timed set-ups, {:.3e} reference s (as the clock read them: {:.3e} s)",
            self.setup_s.len(),
            median(&self.setup_s),
            median(&self.raw_setup_s)
        ));
        out.set("bench.speed.raw_run_wall_s", median(&self.raw_work_s));
    }
}

/// Repeats `rep` (which gets the repetition number) until the measuring
/// time is spent, at least [`MIN_REPS`] times. In a traced run odd
/// repetitions run with spans off.
fn repeat(
    args: &RunArgs,
    started: Instant,
    tr: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer, u64),
) {
    let deadline = started + Duration::from_secs(args.seconds);
    let mut n = 0u64;
    while n < MIN_REPS as u64 || Instant::now() < deadline {
        tr.set_on(args.trace && n.is_multiple_of(2));
        rep(tr, n);
        n += 1;
    }
    tr.set_on(args.trace);
}

/// SplitMix64: the benchmark's own seed expander.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ───────────────────────── paper-counting ─────────────────────────

/// The §4 protocols in figure order, with the row prefix each reports
/// under (`None`: protocol 3, which only reports that it did not finish).
const PAPER: [(Protocol, Option<&str>); 6] = [
    (Protocol::P1, Some("p1")),
    (Protocol::P2, Some("p2")),
    (Protocol::P3, None),
    (Protocol::P3Hysteresis(10_000), Some("p3h")),
    (Protocol::P4, Some("p4")),
    (Protocol::P5, Some("p5")),
];

/// `run_paper_protocol`'s limits: protocol 3 is cut off at 150 simulated
/// seconds, by which time every other protocol has finished.
fn paper_limits(p: Protocol) -> RunLimits {
    match p {
        Protocol::P3 => RunLimits {
            max_sim_time: SimDuration::from_secs(150),
            ..RunLimits::default()
        },
        _ => RunLimits::default(),
    }
}

/// The paper's two-host count to 1 024. The seed moves the one input the
/// paper gives only roughly — the ~50 µs check loop — within ±1 µs of
/// the calibrated 48 µs, so every seed is the paper's experiment and no
/// two seeds are the same input.
fn counting_config(seed: u64) -> CountingConfig {
    CountingConfig {
        spin: SimDuration::from_nanos(47_000 + mix(seed) % 2_001),
        ..CountingConfig::paper()
    }
}

pub fn paper_counting(args: &RunArgs, tr: &mut Tracer, out: &mut Outcome) {
    let started = Instant::now();
    let cfg = counting_config(args.seed);
    out.note(format!(
        "closed loop, 2 hosts × 1 process, {} additions per protocol, spin {} ns",
        cfg.target,
        cfg.spin.as_nanos()
    ));
    let mut reps = Reps::new();
    let mut first: Option<(Layers, Vec<ProtocolMetrics>, Vec<f64>)> = None;
    repeat(args, started, tr, |tr, n| {
        let mut host = HostTimes::default();
        let mut events = 0;
        let mut layers = Layers::default();
        let mut rows = Vec::new();
        let mut lat_ns = Vec::new();
        for (i, &(p, prefix)) in PAPER.iter().enumerate() {
            let run = drive(
                tr,
                n * 8 + i as u64,
                &p.label(),
                paper_limits(p),
                None,
                || build_counting(p, &cfg, SimConfig::paper(2)),
            );
            host.add(run.host);
            events += run.outcome.events;
            // Protocol 3 completes no defined amount of work: it is run
            // for its check and its host cost, and kept out of the
            // per-operation numbers.
            if prefix.is_some() {
                layers.absorb(&run);
                for h in 0..run.sim.host_count() {
                    lat_ns.extend(
                        run.sim
                            .host(h)
                            .fault_latencies
                            .iter()
                            .map(|l| l.as_nanos() as f64),
                    );
                }
            }
            rows.push(run.metrics);
        }
        reps.push(host, events, layers.fingerprint(), tr.on());
        first.get_or_insert((layers, rows, lat_ns));
        reps.extra_setups(tr, 20, || {
            PAPER.map(|(p, _)| build_counting(p, &cfg, SimConfig::paper(2)))
        });
    });
    let (layers, rows, lat_ns) = first.expect("at least one repetition");

    // Correctness: the paper's qualitative results, on every run.
    let row = |p: Protocol| &rows[PAPER.iter().position(|&(q, _)| q == p).expect("listed")];
    let mut attempted = 0;
    let mut completed = 0;
    for &(p, prefix) in &PAPER {
        let m = row(p);
        if prefix.is_some() {
            attempted += cfg.target as u64;
            completed += m.additions.min(cfg.target as u64);
            out.check(format!("{} finishes its count", m.label), m.finished);
        } else {
            out.check("protocol 3 does not finish (Figure 6)", !m.finished);
            out.set("workloads.paper.p3.finished", m.finished as u64 as f64);
        }
    }
    out.attempted = attempted;
    out.failed = attempted - completed;
    let (p1, p2, p4, p5) = (
        row(Protocol::P1),
        row(Protocol::P2),
        row(Protocol::P4),
        row(Protocol::P5),
    );
    let order_ok = p1.wall > p2.wall
        && p2.wall > p5.wall
        && p1.avg_latency > p2.avg_latency
        && p2.avg_latency > p5.avg_latency
        && p5.bytes_per_addition < p2.bytes_per_addition
        && p2.bytes_per_addition < p1.bytes_per_addition
        && p4.ctx_per_addition > p2.ctx_per_addition;
    out.check(
        "Figure 4–9 orderings (wall, latency, bytes, context switches)",
        order_ok,
    );
    out.set("workloads.paper.order_ok", order_ok as u64 as f64);

    // End to end: the five finishing protocols as one suite (sim time),
    // and the whole six-protocol repetition's host cost.
    let ops = completed.max(1) as f64;
    out.set("fault_p50_ms", quantile(&lat_ns, 0.50) / 1e6);
    out.set("fault_p99_ms", quantile(&lat_ns, 0.99) / 1e6);
    out.set("slo_rate_per_s", ops / (layers.sim_wall_ns as f64 / 1e9));
    out.set("wire_bytes_per_op", layers.net.bytes as f64 / ops);
    out.set("host_cpu_ms_per_op", layers.cpu_ns as f64 / 1e6 / ops);
    out.set("events_per_op", layers.events as f64 / ops);
    out.note(format!(
        "fault percentiles: {} faults of the five finishing protocols, exact (sim time); rate = additions per simulated second",
        lat_ns.len()
    ));
    reps.publish(out, args.trace);

    // Per layer: the Figure 4–9 rows, and the repetition's counters.
    for &(p, prefix) in &PAPER {
        let (Some(prefix), m) = (prefix, row(p)) else {
            continue;
        };
        let key = |col: &str| format!("workloads.paper.{prefix}.{col}");
        out.set(&key("wall_s"), m.wall.as_secs_f64());
        out.set(&key("cpu_s"), (m.user + m.sys).as_secs_f64());
        out.set(&key("net_kBps"), m.net_load_bps / 1000.0);
        out.set(&key("ctx_per_add"), m.ctx_per_addition);
        out.set(&key("avg_latency_ms"), m.avg_latency.as_millis_f64());
        out.set(&key("loss_win"), m.loss_win_ratio().min(1e9));
    }
    layers.publish(out);
    out.set("workloads.gen.lateness_max_ms", 0.0);
}

// ─────────────────────────── open loop ───────────────────────────

/// One open-loop workload: deployment, traffic mix, nominal rate and
/// (on the tree) the rate ladder.
pub struct OpenLoop {
    pub mesh: bool,
    pub write_fraction: f64,
    /// Accesses each driver injects.
    pub accesses_per_host: u64,
    /// Mean Poisson gap per driver at the nominal rate, ms.
    pub nominal_gap_ms: u64,
    /// Mean gaps of the rate ladder, slowest first; empty = one rate.
    pub ladder_gap_ms: &'static [u64],
    /// Seeds `s..s+pooled` share one latency distribution.
    pub pooled: u64,
}

impl OpenLoop {
    fn drivers(&self) -> u64 {
        if self.mesh {
            256
        } else {
            32
        }
    }

    fn scenario(&self, seed: u64, gap_ms: u64) -> OpenLoopScenario {
        let mut cfg = OpenLoopConfig::seeded(seed);
        cfg.write_fraction = self.write_fraction;
        cfg.accesses_per_host = self.accesses_per_host;
        let mut sc = if self.mesh {
            OpenLoopScenario::mesh_16x16(cfg)
        } else {
            OpenLoopScenario::tree_4x8(cfg)
        };
        sc.cfg.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(gap_ms));
        sc.with_piggyback()
    }

    fn limits(sc: &OpenLoopScenario) -> RunLimits {
        RunLimits {
            max_events: MAX_EVENTS,
            ..sc.limits()
        }
    }
}

/// What the open-loop drivers of one repetition did.
struct Traffic {
    hist: LatencyHistogram,
    issued: u64,
    hits: u64,
    faults: u64,
    finished: bool,
}

impl Traffic {
    fn new() -> Traffic {
        Traffic {
            hist: LatencyHistogram::new(),
            issued: 0,
            hits: 0,
            faults: 0,
            finished: true,
        }
    }

    fn absorb(&mut self, run: &SimRun) {
        self.hist.merge(&run.sim.open_loop_hist());
        for h in 0..run.sim.host_count() {
            let (issued, hits, faults) = run.sim.host(h).open_counts();
            self.issued += issued;
            self.hits += hits;
            self.faults += faults;
        }
        self.finished &= run.outcome.finished;
    }

    /// Accesses that completed: local hits plus satisfied faults.
    fn completed(&self) -> u64 {
        self.hits + self.hist.count()
    }

    fn p_ms(&self, q: f64) -> f64 {
        hist_quantile_ns(&self.hist, q) / 1e6
    }
}

pub fn open_loop(spec: &OpenLoop, args: &RunArgs, tr: &mut Tracer, out: &mut Outcome) {
    let started = Instant::now();
    let offered = |gap_ms: u64| spec.drivers() as f64 * 1000.0 / gap_ms as f64;
    out.note(format!(
        "open loop, {} Poisson drivers × {} accesses, Zipf 1.1, {:.0} % writes, nominal {:.1} acc/s offered, seeds {}..{} pooled",
        spec.drivers(),
        spec.accesses_per_host,
        spec.write_fraction * 100.0,
        offered(spec.nominal_gap_ms),
        args.seed,
        args.seed + spec.pooled - 1
    ));

    // The rate ladder, once: p99 at each fixed rate over the first
    // LADDER_SEEDS seeds, every rung under the event cap and the memory
    // watchdog.
    let mut rungs: Vec<(f64, f64, bool)> = Vec::new();
    for (i, &gap) in spec.ladder_gap_ms.iter().enumerate() {
        let label = format!("{} rung {} ({gap} ms gap)", args.workload, i + 1);
        let mut t = Traffic::new();
        for k in 0..LADDER_SEEDS {
            let sc = spec.scenario(args.seed + k, gap);
            let op = 1000 + i as u64 * LADDER_SEEDS + k;
            t.absorb(&sys::with_rss_guard(RSS_LIMIT_MB, &label, || {
                drive(tr, op, &label, OpenLoop::limits(&sc), None, || sc.build())
            }));
        }
        let ok = t.finished && t.hist.count() == t.faults;
        let p99 = t.p_ms(0.99);
        out.note(format!(
            "rung {}: {:>6.1} acc/s offered → p99 {:>9.2} ms ({} faults){}",
            i + 1,
            offered(gap),
            p99,
            t.hist.count(),
            if ok {
                ""
            } else {
                "  CUT by limits: misses the SLO"
            }
        ));
        out.set(&format!("sim.open.rung{}_p99_ms", i + 1), p99);
        rungs.push((offered(gap), p99, ok));
    }
    out.set(
        "sim.open.rungs_finished",
        rungs.iter().filter(|r| r.2).count() as f64,
    );

    // The nominal rate, repeated for host time.
    let mut reps = Reps::new();
    let mut first: Option<(Layers, Traffic)> = None;
    repeat(args, started, tr, |tr, n| {
        let mut host = HostTimes::default();
        let mut layers = Layers::default();
        let mut traffic = Traffic::new();
        for k in 0..spec.pooled {
            let sc = spec.scenario(args.seed + k, spec.nominal_gap_ms);
            let run = drive(
                tr,
                n * 8 + k,
                &sc.label(),
                OpenLoop::limits(&sc),
                None,
                || sc.build(),
            );
            host.add(run.host);
            layers.absorb(&run);
            traffic.absorb(&run);
        }
        reps.push(host, layers.events, layers.fingerprint(), tr.on());
        first.get_or_insert((layers, traffic));
        if !spec.mesh {
            // The tree builds in half a millisecond: time it often
            // enough for a steady median (the mesh's second-long build
            // is timed once per repetition).
            reps.extra_setups(tr, 5, || {
                (0..spec.pooled)
                    .map(|k| spec.scenario(args.seed + k, spec.nominal_gap_ms).build())
                    .collect::<Vec<_>>()
            });
        }
    });
    let (layers, traffic) = first.expect("at least one repetition");

    let scheduled = spec.pooled * spec.drivers() * spec.accesses_per_host;
    let completed = traffic.completed();
    out.attempted = scheduled;
    out.failed = scheduled.saturating_sub(completed);
    out.check(
        "the nominal rate finishes inside its limits",
        traffic.finished,
    );
    out.check(
        "every scheduled access was issued and completed",
        completed == scheduled,
    );

    let ops = completed.max(1) as f64;
    let achieved = ops / (layers.sim_wall_ns as f64 / 1e9);
    let beyond_p99 = traffic.hist.count() / 100;
    out.set("fault_p50_ms", traffic.p_ms(0.50));
    out.set("fault_p99_ms", traffic.p_ms(0.99));
    if rungs.is_empty() {
        // One tested rate: the nominal one is the whole ladder.
        let ok = traffic.finished && completed == scheduled;
        rungs.push((offered(spec.nominal_gap_ms), traffic.p_ms(0.99), ok));
    }
    let slo = slo_rate(&rungs, out);
    out.set("slo_rate_per_s", slo);
    out.set("wire_bytes_per_op", layers.net.bytes as f64 / ops);
    out.set("host_cpu_ms_per_op", layers.cpu_ns as f64 / 1e6 / ops);
    out.set("events_per_op", layers.events as f64 / ops);
    out.note(format!(
        "fault percentiles: {} faults pooled ({} beyond p99), rank-interpolated in ≤ 3 % histogram buckets (sim time); {:.1} acc/s achieved",
        traffic.hist.count(),
        beyond_p99,
        achieved
    ));
    reps.publish(out, args.trace);

    layers.publish(out);
    out.set("sim.open.accesses", traffic.issued as f64);
    out.set("sim.open.faults", traffic.faults as f64);
    out.set(
        "sim.open.hit_ratio",
        traffic.hits as f64 / traffic.issued.max(1) as f64,
    );
    out.set("sim.open.fault_p999_ms", traffic.p_ms(0.999));
    out.set("sim.open.fault_max_ms", traffic.hist.max() as f64 / 1e6);
    // Arrivals are simulator events at their due time: the generator is
    // never late. Printed so the claim is checked, not assumed.
    out.set("workloads.gen.lateness_max_ms", 0.0);

    if args.trace {
        // The first seed again under two workers: same digest, and what
        // the lane engine costs or saves on this box.
        let sc = spec.scenario(args.seed, spec.nominal_gap_ms);
        let serial = drive(tr, 2000, "serial", OpenLoop::limits(&sc), None, || {
            sc.build()
        });
        let par = drive(tr, 2001, "workers2", OpenLoop::limits(&sc), Some(2), || {
            sc.build()
        });
        out.check(
            "serial ≡ Workers(2) open-loop digest at the nominal rate",
            serial.sim.open_loop_digest() == par.sim.open_loop_digest(),
        );
        out.set(
            "sim.par.workers2_wall_ratio",
            par.host.run_s / serial.host.run_s,
        );
        out.set(
            "sim.par.task_handoffs",
            par.sim.event_stats().task_handoffs as f64,
        );
        let lanes = par.sim.lane_event_counts();
        out.set(
            "sim.par.busiest_lane_share",
            lanes.iter().copied().max().unwrap_or(0) as f64
                / lanes.iter().sum::<u64>().max(1) as f64,
        );
    }
}

/// The offered rate at which p99 crosses the SLO limit, interpolated
/// (log p99 against rate) between the last rung inside the limit and the
/// first one beyond it, so that it moves when the knee moves by less
/// than a rung. A rung cut by its limits counts as beyond. Also notes
/// the plain highest passing rung.
fn slo_rate(rungs: &[(f64, f64, bool)], out: &mut Outcome) -> f64 {
    let passes = |r: &(f64, f64, bool)| r.2 && r.1 <= SLO_P99_MS;
    let first_miss = rungs.iter().position(|r| !passes(r)).unwrap_or(rungs.len());
    let Some(last_ok) = first_miss.checked_sub(1).map(|i| rungs[i]) else {
        out.check("the slowest rung of the ladder meets the SLO", false);
        return 0.0;
    };
    out.note(format!(
        "SLO p99 ≤ {SLO_P99_MS} ms: highest passing rung {:.1} acc/s",
        last_ok.0
    ));
    match rungs.get(first_miss) {
        Some(&(rate, p99, true)) => {
            let t = (SLO_P99_MS / last_ok.1).ln() / (p99 / last_ok.1).ln();
            last_ok.0 + (rate - last_ok.0) * t
        }
        // Cut by its limits (no trustworthy p99), or the ladder ended
        // inside the SLO: the last passing rung is all that is known.
        _ => last_ok.0,
    }
}
