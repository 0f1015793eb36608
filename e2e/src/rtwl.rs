//! The threaded-runtime workload, `rt-flat`: one client thread doing
//! `purge` + `read_u32` demand round trips against a page homed on the
//! other node of a two-node cluster on one in-process LAN. Everything
//! here is **host** time, in reference seconds (see `speed.rs`): the
//! "modelled system" and the implementation are the same threads.
//!
//! The same round trip across one bridge thread is measured beside it
//! in the traced run, as the `runtime.bridge.*` layer metrics. It is not
//! a workload of its own yet: its end-to-end numbers are a lottery (see
//! README, "The bridged round trip").

use crate::report::{Outcome, RunArgs};
use crate::speed::{self, Kernel};
use crate::stats::{median, quantile, rank_ns};
use crate::sys;
use crate::trace::Tracer;
use mether_core::{MapMode, PageId, PageLength, VAddr, View};
use mether_lib::{channel_pair, MAX_PAYLOAD};
use mether_runtime::{Cluster, ClusterConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips per round: 40 ms between two speed samples, short
/// enough to sit inside one of the box's speeds, long enough for 50
/// samples beyond its p99.
const ROUND_OPS: usize = 5_000;
/// Rounds in one cluster's life.
const CLUSTER_ROUNDS: usize = 5;
/// Fewest clusters behind a median.
const MIN_CLUSTERS: u64 = 3;
/// Clusters of a traced run whose rounds record a span per round trip
/// (the rest run untraced, which prices the tracing and bounds the span
/// file).
const TRACED_CLUSTERS: u64 = 2;
/// A demand read that takes this long has lost its reply: a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A cluster brought up to its first completed remote read: node 0
/// homes `page` holding `value`, node 1 has fetched it once.
struct Ready {
    cluster: Cluster,
    page: PageId,
    addr: VAddr,
    setup_s: f64,
}

fn bring_up(cfg: ClusterConfig, value: u32) -> Ready {
    let t = Instant::now();
    let cluster = Cluster::new(cfg).expect("cluster comes up");
    let page = PageId::new(0);
    cluster.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).expect("offset 0 is in the short view");
    cluster
        .node(0)
        .write_u32(addr, value)
        .expect("home writes its own page");
    let first = cluster
        .node(1)
        .read_u32_timeout(addr, MapMode::ReadOnly, READ_TIMEOUT);
    let setup_s = t.elapsed().as_secs_f64();
    assert_eq!(
        first.ok(),
        Some(value),
        "first remote read returns the written value"
    );
    Ready {
        cluster,
        page,
        addr,
        setup_s,
    }
}

/// What one round measured.
struct Round {
    /// What turned the clock's readings into the reference seconds the
    /// times below are in (1 until [`Round::scaled`]).
    scale: f64,
    p50_ns: f64,
    p99_ns: f64,
    wall_s: f64,
    cpu_s: f64,
    ctx_voluntary: u64,
    packets: u64,
    bytes: u64,
    wrong: u64,
    threads: u64,
    coalesced: u64,
}

impl Round {
    /// The round's host times in reference seconds.
    fn scaled(self, scale: f64) -> Round {
        Round {
            scale: self.scale * scale,
            p50_ns: self.p50_ns * scale,
            p99_ns: self.p99_ns * scale,
            wall_s: self.wall_s * scale,
            cpu_s: self.cpu_s * scale,
            ..self
        }
    }
}

/// `ops` timed round trips by node 1, after `warmup_ops` untimed ones.
fn round(ready: &Ready, value: u32, warmup_ops: usize, ops: usize, tr: &mut Tracer) -> Round {
    let Ready {
        cluster,
        page,
        addr,
        ..
    } = ready;
    let client = cluster.node(1);
    let mut lat_ns = Vec::with_capacity(ops);
    let mut wrong = 0;
    for _ in 0..warmup_ops {
        let purged = client.purge(*page, MapMode::ReadOnly, PageLength::Short);
        let got = client.read_u32_timeout(*addr, MapMode::ReadOnly, READ_TIMEOUT);
        wrong += u64::from(purged.is_err() || got.ok() != Some(value));
    }
    let net0 = cluster.net_stats();
    // CPU time is read innermost, so the cost of reading the (larger)
    // context-switch files stays out of it.
    let ctx0 = sys::ctx_switches();
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    for op in 0..ops as u64 {
        let trip = tr.begin("rt.round_trip", op);
        let start = Instant::now();
        let s = tr.begin("runtime.node.purge", op);
        let purged = client.purge(*page, MapMode::ReadOnly, PageLength::Short);
        tr.end(s);
        let s = tr.begin("runtime.node.read_u32", op);
        let got = client.read_u32_timeout(*addr, MapMode::ReadOnly, READ_TIMEOUT);
        tr.end(s);
        lat_ns.push(start.elapsed().as_nanos() as u64);
        tr.end(trip);
        wrong += u64::from(purged.is_err() || got.ok() != Some(value));
    }
    let wall_s = t.elapsed().as_secs_f64();
    let cpu1 = sys::cpu_seconds();
    let ctx1 = sys::ctx_switches();
    let net = cluster.net_stats().delta(&net0);
    lat_ns.sort_unstable();
    Round {
        scale: 1.0,
        p50_ns: rank_ns(&lat_ns, 0.50) as f64,
        p99_ns: rank_ns(&lat_ns, 0.99) as f64,
        wall_s,
        cpu_s: cpu1 - cpu0,
        ctx_voluntary: ctx1.0 - ctx0.0,
        packets: net.packets,
        bytes: net.bytes,
        wrong,
        threads: sys::threads(),
        coalesced: cluster.requests_coalesced(),
    }
}

pub fn rt_flat(args: &RunArgs, tr: &mut Tracer, out: &mut Outcome) {
    let started = Instant::now();
    // Unpinned, this round trip is bimodal run to run (p50 8 µs or
    // 118 µs: a wake-up that crosses CPUs takes an idle vCPU out of
    // halt); on one CPU it is steady. Which mode an unpinned run lands
    // in is luck, so it reports no numbers at all.
    out.pinned = sys::pin_to_last_cpu();
    out.check(
        "pinned to one CPU (unpinned host times are bimodal: every metric is unresolved)",
        out.pinned.is_some(),
    );
    if out.pinned.is_none() {
        return;
    }
    let ops = ROUND_OPS;
    out.note(format!(
        "closed loop, 1 client thread, rounds of {ops} purge+read_u32 round trips, a fresh cluster every {CLUSTER_ROUNDS} rounds",
    ));
    // The value every read must return: from the seed, new each cluster.
    let value = |n: u64| {
        (args.seed as u32)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(n as u32)
            | 1
    };

    let mut setups = Vec::new();
    let deadline = started + Duration::from_secs(args.seconds);
    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    let mut n = 0u64;
    while n < MIN_CLUSTERS || Instant::now() < deadline {
        let spans_on = args.trace && n.is_multiple_of(2) && n / 2 < TRACED_CLUSTERS;
        tr.set_on(spans_on);
        // The machine's speed before the cluster comes up, after its
        // set-up, and after every round.
        let before = speed::sample(Kernel::Syscall, tr);
        let mut ready = bring_up(ClusterConfig::fast(2), value(n));
        let mut last = speed::sample(Kernel::Syscall, tr);
        setups.push(ready.setup_s * speed::scale(before, last));
        for _ in 0..CLUSTER_ROUNDS {
            let r = round(&ready, value(n), 0, ops, tr);
            let after = speed::sample(Kernel::Syscall, tr);
            rounds.push(r.scaled(speed::scale(last, after)));
            traced.push(spans_on);
            last = after;
        }
        ready.cluster.shutdown();
        n += 1;
    }
    tr.set_on(args.trace);

    // Host times are the median over the rounds of each round's scaled
    // reading. As the clock reads them a quarter to a half of any run's
    // rounds sit in a slow mode (per-round p50 10–12 µs against 8.3 µs:
    // the box's shared cores, see `speed.rs`), and their median hops
    // between the modes from run to run (up to 32 % over ten runs);
    // scaled, the rounds of both modes read within a tenth of each
    // other (2–6 % over the same runs).
    // Counters are the same every round.
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let per_op = |f: &dyn Fn(&Round) -> f64| median(&per_round(&|r| f(r) / ops as f64));
    let p50_ns = per_round(&|r| r.p50_ns);
    let p99_ns = per_round(&|r| r.p99_ns);
    let rate = per_round(&|r| ops as f64 / r.wall_s);

    out.attempted = (rounds.len() * ops) as u64;
    out.failed = rounds.iter().map(|r| r.wrong).sum();
    out.check("every read returns the written value", out.failed == 0);

    out.set("fault_p50_ms", median(&p50_ns) / 1e6);
    out.set("fault_p99_ms", median(&p99_ns) / 1e6);
    out.set("slo_rate_per_s", median(&rate));
    out.set("wire_bytes_per_op", per_op(&|r| r.bytes as f64));
    out.set("host_cpu_ms_per_op", per_op(&|r| r.cpu_s * 1e3));
    // The runtime's unit of work is a LAN packet, as an event is the
    // simulator's.
    out.set("events_per_op", per_op(&|r| r.packets as f64));
    out.set(
        "sim_events_per_s",
        median(&per_round(&|r| r.packets as f64 / r.wall_s)),
    );
    out.set("run_wall_s", median(&per_round(&|r| r.wall_s)));
    out.set("peak_rss_mb", sys::peak_rss_mb());
    out.set("setup_s", median(&setups));
    let raw_p50_ns = per_round(&|r| r.p50_ns / r.scale);
    out.set(
        "bench.speed.raw_run_wall_s",
        median(&per_round(&|r| r.wall_s / r.scale)),
    );
    out.note(format!(
        "{} rounds ({} samples each); rtt_p50_us {:.3} (median of the per-round p50s; quartiles {:.3} / {:.3}; as the clock read them {:.3} / {:.3} / {:.3}); fault percentiles are host time",
        rounds.len(),
        ops,
        median(&p50_ns) / 1e3,
        quantile(&p50_ns, 0.25) / 1e3,
        quantile(&p50_ns, 0.75) / 1e3,
        quantile(&raw_p50_ns, 0.25) / 1e3,
        median(&raw_p50_ns) / 1e3,
        quantile(&raw_p50_ns, 0.75) / 1e3
    ));
    out.note(format!(
        "setup_s: median of {} build-to-first-read cycles",
        setups.len()
    ));

    out.set("runtime.node.rtt_p99_us", median(&p99_ns) / 1e3);
    out.set("runtime.node.ops_per_s", median(&rate));
    out.set("runtime.node.packets_per_op", per_op(&|r| r.packets as f64));
    out.set(
        "runtime.node.requests_coalesced",
        rounds.iter().map(|r| r.coalesced).sum::<u64>() as f64,
    );
    out.set("runtime.proc.cpu_us_per_op", per_op(&|r| r.cpu_s * 1e6));
    out.set(
        "runtime.proc.ctx_voluntary_per_op",
        per_op(&|r| r.ctx_voluntary as f64),
    );
    out.set(
        "runtime.proc.threads",
        rounds.iter().map(|r| r.threads).max().unwrap_or(0) as f64,
    );
    out.set(
        "net.wire.packets",
        rounds.iter().map(|r| r.packets).sum::<u64>() as f64,
    );
    out.set("workloads.gen.lateness_max_ms", 0.0);

    if !args.trace {
        return;
    }
    let wall_per_op = |on: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .zip(&traced)
            .filter(|(_, &t)| t == on)
            .map(|(r, _)| r.wall_s / ops as f64)
            .collect();
        median(&v)
    };
    if traced.contains(&false) {
        out.set(
            "bench.trace.overhead_share",
            wall_per_op(true) / wall_per_op(false) - 1.0,
        );
    }
    // A mean over the traced rounds' spans: scaled at the run's median speed.
    out.set(
        "runtime.node.purge_ns",
        tr.mean_ns("runtime.node.purge") * speed::typical_scale(Kernel::Syscall),
    );
    out.set("runtime.node.local_hit_ns", local_hit_ns(tr));
    out.set("lib.channel.echo16_p50_us", channel_echo_p50_us(tr, 16));
    out.set("lib.channel.echo4k_p50_us", channel_echo_p50_us(tr, 4096));
    bridge_crossing(value(0), median(&raw_p50_ns), tr, out);
}

/// The same round trip with client and home on different segments, one
/// bridge thread between them: `runtime::cluster`'s device loop.
///
/// A crossing takes ~0.03, ~5.2 or ~10.3 ms by where the device
/// thread's 5 ms port rotation stands when the frame arrives. A fresh
/// cluster hops between the three for its first dozen round trips, then
/// mostly holds the slowest, so each round warms up first and is short
/// enough to stay in one phase; up to half the rounds still land in a
/// faster one, so the layer reports its upper-quartile round. The
/// crossing sleeps in timeouts, which no machine speed stretches: these
/// times are as the clock read them.
fn bridge_crossing(value: u32, flat_p50_ns: f64, tr: &mut Tracer, out: &mut Outcome) {
    const ROUNDS: usize = 8;
    const WARMUP_OPS: usize = 15;
    const OPS: usize = 25;
    let mut p50_ns = Vec::with_capacity(ROUNDS);
    let (mut heard, mut forwarded, mut wrong) = (0, 0, 0);
    for n in 0..ROUNDS {
        let span = tr.begin("runtime.bridge.round", n as u64);
        let mut ready = bring_up(ClusterConfig::segmented(2, 2), value);
        let r = round(&ready, value, WARMUP_OPS, OPS, &mut Tracer::new(false));
        let stats = ready.cluster.bridge_stats(0);
        ready.cluster.shutdown();
        tr.end(span);
        p50_ns.push(r.p50_ns);
        heard += stats.heard;
        forwarded += stats.forwarded;
        wrong += r.wrong;
    }
    out.check("every bridged read returns the written value", wrong == 0);
    let slow_p50_ns = quantile(&p50_ns, 0.75);
    out.set("runtime.bridge.heard", heard as f64);
    out.set("runtime.bridge.forwarded", forwarded as f64);
    // One crossing: what the bridged round trip takes over the flat one,
    // halved (request out, reply back).
    out.set(
        "runtime.bridge.hop_us",
        (slow_p50_ns - flat_p50_ns) / 2.0 / 1e3,
    );
    out.note(format!(
        "bridged round trip: {ROUNDS} rounds of {OPS} (after {WARMUP_OPS} untimed), per-round p50 quartiles {:.3} / {:.3} / {:.3} ms",
        quantile(&p50_ns, 0.25) / 1e6,
        median(&p50_ns) / 1e6,
        slow_p50_ns / 1e6
    ));
}

/// A read that hits the local consistent copy: the runtime's floor.
fn local_hit_ns(tr: &mut Tracer) -> f64 {
    const ITERS: u32 = 200_000;
    let mut cluster = Cluster::new(ClusterConfig::fast(1)).expect("cluster comes up");
    let page = PageId::new(0);
    cluster.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).expect("offset 0");
    cluster.node(0).write_u32(addr, 7).expect("local write");
    let before = speed::sample(Kernel::Compute, tr);
    let span = tr.begin("kernel.runtime.node.local_hit", 0);
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(
            cluster
                .node(0)
                .read_u32(addr, MapMode::Writeable)
                .expect("local hit"),
        );
    }
    let ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
    tr.end(span);
    let scale = speed::scale(before, speed::sample(Kernel::Compute, tr));
    cluster.shutdown();
    ns * scale
}

/// Median echo round trip of `size`-byte messages over a `mether-lib`
/// channel pair (csend → echo thread → crecv), 20 000 echoes.
fn channel_echo_p50_us(tr: &mut Tracer, size: usize) -> f64 {
    const ECHOES: usize = 20_000;
    let cluster = Arc::new(Cluster::new(ClusterConfig::fast(2)).expect("cluster comes up"));
    let (a, e) = channel_pair(
        cluster.node(0),
        cluster.node(1),
        PageId::new(0),
        PageId::new(1),
    )
    .expect("channel pair");
    let server = Arc::clone(&cluster);
    let echo = std::thread::spawn(move || {
        let node = server.node(1);
        let mut buf = vec![0u8; MAX_PAYLOAD];
        while let Ok(n) = e.crecv(node, &mut buf) {
            if n == 0 || e.csend(node, &buf[..n]).is_err() {
                return;
            }
        }
    });
    let msg = vec![0xa5u8; size];
    let mut buf = vec![0u8; MAX_PAYLOAD];
    let mut lat_ns = Vec::with_capacity(ECHOES);
    let before = speed::sample(Kernel::Syscall, tr);
    let span = tr.begin("kernel.lib.channel.echo", size as u64);
    for _ in 0..ECHOES {
        let t = Instant::now();
        a.csend(cluster.node(0), &msg).expect("send");
        let n = a.crecv(cluster.node(0), &mut buf).expect("echo");
        lat_ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(n, size, "echo returns the whole message");
    }
    tr.end(span);
    let scale = speed::scale(before, speed::sample(Kernel::Syscall, tr));
    a.csend(cluster.node(0), b"").expect("stop message");
    echo.join().expect("echo thread exits cleanly");
    lat_ns.sort_unstable();
    rank_ns(&lat_ns, 0.50) as f64 / 1e3 * scale
}
