//! Open-loop traffic engine regressions: determinism of the seeded
//! arrival schedule (same seed ≡ same digest; serial ≡ worker lanes),
//! the measured serve-time reply-piggyback win on the hot home
//! segment, and the CI fault-latency SLO ceilings per topology class.
//!
//! The SLO ceilings are deliberately loose multiples of the measured
//! tails (they catch a mechanism regression — a lost optimization, a
//! serving path that stopped coalescing — not run-to-run noise; the
//! engine is deterministic, so any drift at all means the schedule
//! changed).
//!
//! The digest literals are golden: both the one-lane schedule and
//! `Workers(n)` must keep reproducing them. All of them were last
//! re-recorded when waking a waiter stopped counting as a read of the
//! copy the waking frame installed: only a read hit keeps a copy in
//! its page's data group (`PageTable::wants_refresh`). An open-loop
//! waiter is done once woken and its next read of the page is cold, so
//! the one free refresh each fault's copy took is gone. At seed 1 the
//! tree went 79 479 → 74 127 events, hottest queue 6 → 5, p99 49.3 →
//! 48.2 ms, p999 59.8 → 58.7 ms, refresh installs 0.96 → 0.08 per
//! access and their server time 7.80 → 0.67 ms per access; the mesh
//! went 655 412 → 651 297 events, p99 40.9 → 39.8 ms and refresh time
//! 6.02 → 1.54 ms per access, with p50 and p999 unmoved. Before that,
//! all of them moved when the hardened NIC (`Calib::nic_filter`, on in
//! every open-loop scenario) started dropping the data frames that
//! would refresh a copy nobody on the host had read since its last
//! refresh, beyond the first. Open-loop reads are cold, so nobody
//! reads a refreshed copy, and every host that ever touched a page
//! used to install every frame for it that reached its segment, for
//! 8 ms or more each. At seed 1 the tree went 136 367 → 79 479 events,
//! hottest queue 9 → 6, p99 59.8 → 49.3 ms, p999 83.9 → 59.8 ms,
//! refresh installs 10.28 → 0.96 per access and their server time
//! 83.6 → 7.8 ms per access; the mesh went 703 049 → 655 412 events,
//! hottest queue 3 → 2, p99 41.9 → 40.9 ms, p999 67.1 → 60.8 ms and
//! refresh time 56.3 → 6.0 ms per access, with p50 unmoved. Before
//! that, all of them moved when the same NIC started dropping the
//! `ReadOnly` and `Consistent` requests of a page it tracks but does
//! not hold, unless a grant of
//! the page to it is queued or being installed. Only the holder answers
//! those; every other server snooped each one for 2 ms. At seed 1 the
//! tree went 225 101 → 136 367 events, hottest queue 17 → 9, p99
//! 73.4 → 59.8 ms, p999 94.4 → 83.9 ms and `retransmits − spurious`
//! 25 → 12; the mesh went 774 173 → 703 049 events and hottest queue
//! 5 → 3, with p50, p99 and p999 unmoved. Before that,
//! all of them moved when the same NIC started dropping frames about
//! pages a host does not track, where its server used to snoop each
//! one for 2 ms: the CPU time that frees moves every later burst. At
//! seed 1 the tree went
//! 255 088 → 225 101 events and p999 104.9 → 94.4 ms, p99 73.4 ms
//! unmoved; the mesh went 1 245 283 → 774 173 events, hottest queue
//! 11 → 5, with p50, p99 and p999 unmoved. Before that, the piggybacked
//! ones (seed 23's second, and both seed 1 SLO runs) moved when a
//! holder's serve-time pass started re-sending the consistent requests
//! a grant strands in its queue, instead of snooping them and leaving
//! their requesters to a timeout. At seed 1 the tree went p99 92.3 →
//! 73.4 ms, p999 260.0 → 104.9 ms, max 1.053 s → 145 ms; the mesh went
//! p999 92.3 → 67.1 ms, max 559.7 → 161.5 ms. Seed 11 and seed 23
//! without piggybacking run without that pass and did not move. Before
//! that, all of them moved when a demand reply stopped following the
//! page's learned interest and went back along the pending requests
//! only (tree seed 1: 329 881 → 256 385 events, p99 127.9 → 92.3 ms;
//! mesh: 5 787 219 → 1 244 122 events), the tree's when it stopped
//! flooding requests, the mesh's when a request with no holder belief
//! started walking toward its page's home, and all of them when the
//! fault retransmission timer went from a fixed 20 ms to each host's
//! measured round trip.

use mether_net::SimDuration;
use mether_sim::ServerKind;
use mether_workloads::{OpenLoopConfig, OpenLoopScenario};

#[test]
fn open_loop_same_seed_same_digest() {
    let a = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(11)).run(None);
    let b = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(11)).run(None);
    assert!(a.outcome.finished, "open-loop tree run hit its limits");
    assert_eq!(a, b, "one seed, two different runs");
    assert_eq!(
        a.digest, 0xb306_57e7_fb36_8b49,
        "tree seed 11 golden digest"
    );
    let c = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(12)).run(None);
    assert_ne!(a.digest, c.digest, "digest insensitive to the seed");
}

#[test]
fn open_loop_serial_matches_worker_lanes() {
    // The whole report — digest, percentiles, queue high-water — must
    // be identical under per-segment lanes, piggybacking on or off.
    for (piggyback, golden) in [
        (false, 0x74df_c1de_c33e_2f5c_u64),
        (true, 0x4cf4_48fe_8387_e617),
    ] {
        let mut scenario = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(23));
        if piggyback {
            scenario = scenario.with_piggyback();
        }
        let serial = scenario.run(None);
        let parallel = scenario.run(Some(2));
        assert!(serial.outcome.finished);
        assert_eq!(serial, parallel, "piggyback={piggyback}");
        assert_eq!(serial.digest, golden, "piggyback={piggyback} golden digest");
    }
}

#[test]
fn serve_time_piggyback_improves_hot_segment_tail() {
    // The measured optimization: on the skewed tree workload the hot
    // home's serve bursts accumulate identical queued requests, and
    // answering them with the in-flight reply must both fire (the
    // counter) and shorten the fault-latency tail.
    let base = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(3)).run(None);
    let opt = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(3))
        .with_piggyback()
        .run(None);
    assert!(base.outcome.finished && opt.outcome.finished);
    assert_eq!(base.piggybacked, 0, "piggybacking fired while disabled");
    assert!(
        opt.piggybacked > 0,
        "hot-segment serve bursts produced no piggybacked replies:\n{opt}"
    );
    assert!(
        opt.p999 < base.p999,
        "piggybacking did not improve the p999 tail:\nbase {base}\nopt  {opt}"
    );
    println!("base: {base}");
    println!("opt:  {opt}");
}

#[test]
fn openloop_slo_ci_tree() {
    let report = OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(1))
        .with_piggyback()
        .run(None);
    println!("{report}");
    assert!(report.outcome.finished, "tree SLO run hit its limits");
    assert_eq!(
        report.digest, 0x93d6_bb04_b5dc_0d1e,
        "tree seed 1 golden digest"
    );
    assert!(report.faults > 0, "no demand faults measured");
    // Measured p999 at this seed: 58.7 ms, queue-dominated at the hot
    // home.
    assert!(
        report.p999 <= SimDuration::from_millis(250),
        "tree p999 SLO breached: {report}"
    );
    // Timeouts that were not spurious: 6 at this seed. A holder that
    // grants the page re-sends the consistent requests queued behind
    // the grant; without that re-send they are snooped, nobody answers
    // them, and this count is 110.
    assert!(
        report.retransmits - report.spurious <= 60,
        "tree requests left to the retransmission timer: {report}"
    );
    // Server time on installs that woke nobody: 0.67 ms per access at
    // this seed, 7.8 ms when the frame that woke a fault bought its
    // copy one free refresh, and 83.6 ms when every copy took every
    // refresh.
    let refresh = report.server_time_per_access(ServerKind::Refresh);
    assert!(
        refresh <= SimDuration::from_millis(1),
        "tree servers install refreshes nobody reads: {refresh} per access\n{report}"
    );
    // 74 127 events at this seed. Only a page's holder, or the host a
    // grant of it is on its way into, hears a `ReadOnly` or
    // `Consistent` request for it; with every tracking host's server
    // snooping those requests, the run took 225 101. And a copy nobody
    // reads takes no refresh; with one free refresh per fault it took
    // 79 479, with every copy taking every frame for its page 136 367.
    assert!(
        report.outcome.events <= 85_000,
        "tree servers snoop requests they cannot answer, or install refreshes nobody reads, again: {report}"
    );
}

#[test]
#[ignore = "~10M events; seconds in release, minutes in debug — CI runs it release via --include-ignored"]
fn openloop_slo_ci_mesh() {
    let scenario = OpenLoopScenario::mesh_16x16(OpenLoopConfig::seeded(1)).with_piggyback();
    let report = scenario.run(None);
    println!("{report}");
    assert!(report.outcome.finished, "mesh SLO run hit its limits");
    assert_eq!(
        report.digest, 0xa0e4_4bf8_a49c_62c9,
        "mesh seed 1 golden digest"
    );
    assert_eq!(scenario.run(Some(2)), report, "mesh under Workers(2)");
    assert!(report.faults > 0, "no demand faults measured");
    // A bridge device keeps a page filter only for the pages it has
    // heard of. Measured at this seed: 37 113 filters over the 480
    // devices, where a table grown densely up to each device's highest
    // page id held 117 516.
    let mut sim = scenario.build();
    assert!(sim.run(scenario.limits()).finished);
    let fabric = sim.fabric_mut_for_test().expect("a mesh fabric");
    let filters: usize = (0..fabric.device_count())
        .map(|d| fabric.device(d).policy().tracked_pages().count())
        .sum();
    assert!(filters <= 40_000, "{filters} bridge page filters");
    // Likewise a host keeps page-table state only for the pages it has
    // touched. Measured at this seed: 4 980 entries over the 256 hosts,
    // where tables grown densely up to each host's highest page id held
    // 85 116.
    let pages: usize = (0..sim.host_count())
        .map(|h| sim.host(h).table.tracked_pages().count())
        .sum();
    assert!(pages <= 5_500, "{pages} page-table entries");
    // Measured p999 at this seed: 60.8 ms (transit-dominated; the
    // loaded-but-stable pace keeps the hot home far from saturation).
    // A consistent request queued behind a grant is re-sent toward the
    // new holder, so the tail past p99 is no longer a timeout: what is
    // left of it are requests that reach an ex-holder after its queue
    // drained.
    assert!(
        report.p999 <= SimDuration::from_millis(150),
        "mesh p999 SLO breached: {report}"
    );
}
