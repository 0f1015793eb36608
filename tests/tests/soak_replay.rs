//! Soak-harness replay coverage: the randomized scenarios are pure
//! functions of their seed, so every failure is a one-line reproducer.
//! This file pins that property — same seed, same report, one lane or
//! one per segment — plus a regression test for each latent bug the
//! first soak batches flushed out:
//!
//! * **Data-wait retry escalation** (`crates/sim/src/host.rs`): a
//!   data-driven read blocked over a stale copy transmits nothing, so a
//!   lost waking broadcast stranded it forever; the fault-retry timer
//!   now drops the stale copy and escalates one re-execution to demand
//!   drive.
//! * **Sleeper boost on timer wakeups** (`crates/sim/src/host.rs`): a
//!   process returning from a kernel sleep never took the one-shot
//!   boost, so a saturated server queue starved it indefinitely.
//! * **NIC request coalescing** (`crates/sim/src/host.rs`): identical
//!   queued page requests each cost the server a full reply, letting
//!   retrying clients backlog the home server without bound. The
//!   mitigation is part of the hardened profile (`Calib::hardened`,
//!   which every soak deployment runs), not the paper's: the paper's
//!   servers processed each datagram individually, and its measured
//!   protocol rankings — notably P3's divergence — include that
//!   duplicated load.
//! * **Partition-aware observer grouping**
//!   (`crates/sim/src/sim/observe.rs`): two devices with byte-identical
//!   views in *different* connected components legitimately elect
//!   different trees; the old invariant (d) flagged that as a bug.
//!
//! The CI entry point is `ci_soak_batch`: `METHER_SOAK_SCENARIOS` and
//! `METHER_SOAK_SEED` size and place the batch, and every seed is
//! printed before its run so a CI failure names its reproducer.

use mether_core::{BridgeTopology, PageId};
use mether_net::{AgeHorizon, FabricConfig, FabricEvent, SimDuration};
use mether_sim::{Calib, RunLimits, RunOutcome, SimConfig, Simulation, Topology};
use mether_workloads::{
    base_seed_from_env, run_cross_engine_soak, run_large_faulted_soak, run_large_soak, run_soak,
    scenario_count_from_env, CountingConfig, DisjointPageCounter, PollingReader, Publisher,
    SoakMix, SoakScenario, SoakShape,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scenarios that flushed real bugs in the first soak batches; each
/// must still run to completion (all are fault-free, so
/// [`SoakScenario::run`] asserts completion itself). They are pinned as
/// the explicit scenarios their seeds *originally* drew — the generator
/// has since grown the random-graph shape, paired `LinkUp`s, and
/// sub-round-trip aging horizons, which redraws every seed.
///
/// * old seed 2 — star(3)x2 mixed, Transits aging: pinned the data-wait
///   retry arming and the paper-pace run budgets;
/// * old seed 21 — ring(6)x4 mixed, static election, SimTime aging:
///   pinned the static subscriptions for data-driven P5 readers, which
///   transmit nothing a bridge could learn interest from;
/// * old seed 24 — ring(6)x2 mixed, live election, SimTime aging:
///   pinned the sleeper boost on timer wakeups and NIC request
///   coalescing (the publisher starved behind a server queue of
///   retried reads).
#[test]
fn pinned_scenarios_that_flushed_bugs_stay_fixed() {
    let pins = [
        SoakScenario {
            seed: 2,
            shape: SoakShape::Star(3),
            hosts_per_segment: 2,
            election_live: false,
            aging: AgeHorizon::Transits(115),
            loss: 0.0,
            faults: vec![],
            mix: SoakMix::Mixed,
            target: 10,
        },
        SoakScenario {
            seed: 21,
            shape: SoakShape::Ring(6),
            hosts_per_segment: 4,
            election_live: false,
            aging: AgeHorizon::SimTime(SimDuration::from_millis(33)),
            loss: 0.0,
            faults: vec![],
            mix: SoakMix::Mixed,
            target: 9,
        },
        SoakScenario {
            seed: 24,
            shape: SoakShape::Ring(6),
            hosts_per_segment: 2,
            election_live: true,
            aging: AgeHorizon::SimTime(SimDuration::from_millis(36)),
            loss: 0.0,
            faults: vec![],
            mix: SoakMix::Mixed,
            target: 14,
        },
    ];
    for sc in pins {
        assert!(sc.must_finish(), "pin {} is no longer clean", sc.seed);
        sc.run(None);
    }
}

/// Same seed, same report: a faulty, lossy scenario (nothing about it
/// is required to finish) replays byte-identically — the property that
/// turns a soak failure into a regression test.
#[test]
fn soak_seed_replays_identically() {
    let seed = (0..)
        .find(|&s| {
            let sc = SoakScenario::from_seed(s);
            !sc.faults.is_empty() && sc.loss > 0.0
        })
        .unwrap();
    let sc = SoakScenario::from_seed(seed);
    let a = sc.run(None);
    let b = sc.run(None);
    assert_eq!(a, b, "seed {seed}");
}

/// Per-segment lanes must produce the serial schedule exactly:
/// identical digests over the first eight seeds, faults and all.
#[test]
fn serial_and_workers_schedules_agree() {
    for seed in 0..8 {
        let sc = SoakScenario::from_seed(seed);
        let serial = sc.run(None);
        let workers = sc.run(Some(2));
        assert_eq!(serial, workers, "seed {seed} diverged under Workers(2)");
    }
}

/// The CI soak batch: bounded, seeded, every seed printed before its
/// run. Locally this runs a handful of scenarios; CI sets
/// `METHER_SOAK_SCENARIOS=50` (and optionally `METHER_SOAK_SEED` to
/// move the window).
#[test]
fn ci_soak_batch() {
    let count = scenario_count_from_env(6);
    let base = base_seed_from_env(0);
    let reports = run_soak(base, count, None);
    assert_eq!(reports.len(), count);
}

/// The ratchet on clean soak seeds: scans `from_seed(base..base + N)`
/// — `N` is `METHER_SOAK_SCENARIOS`, 200 by default, 10 000 in CI's
/// release step; `base` is `METHER_SOAK_SEED`, 0 by default — and
/// asserts that every scenario [`SoakScenario::must_finish`] finishes
/// inside its limits. No overrun is recorded, so any seed this reports
/// is new.
#[test]
fn every_clean_seed_finishes() {
    let n = scenario_count_from_env(200) as u64;
    let base = base_seed_from_env(0);
    let overruns: Vec<u64> = (base..base + n)
        .filter(|&seed| {
            let sc = SoakScenario::from_seed(seed);
            sc.must_finish() && !sc.build().run(sc.limits()).finished
        })
        .collect();
    assert!(
        overruns.is_empty(),
        "clean seeds hit their limits: {overruns:?}"
    );
}

/// Soak seed 122 (28 hosts on 7 segments, lossy) used to overrun.
/// Holders then re-broadcast every page every 25 ms, and every host on
/// every segment a re-broadcast crossed paid a `server_snoop` to
/// discard it, whether or not it tracked the page, until the busiest
/// servers left their processes no CPU. At its 4.8 s budget the busiest
/// server read 0.964 busy, and the run had still not finished after
/// 200 s of sim time (0.999 busy). The hardened NIC drops frames about
/// pages a host does not track before they cost the server anything,
/// so the run must finish inside its own budget with its busiest server
/// well short of saturated. With re-broadcast and the NIC filter it
/// finished at 0.475 s, busiest server 0.636 busy; with read leases in
/// re-broadcast's place, at 0.299 s and 0.371 busy.
#[test]
fn untracked_frames_do_not_saturate_the_servers() {
    let sc = SoakScenario::from_seed(122);
    assert!(sc.must_finish() && sc.loss > 0.0, "seed 122 redrew: [{sc}]");
    let mut sim = sc.build();
    let outcome = sim.run(sc.limits());
    assert!(outcome.finished, "seed 122 hit its limits: {outcome:?}");
    let busiest = (0..sim.host_count())
        .map(|h| sim.host(h).server_time.as_nanos() as f64 / outcome.wall.as_nanos() as f64)
        .fold(0.0, f64::max);
    let filtered: u64 = (0..sim.host_count())
        .flat_map(|h| sim.host(h).frames_filtered)
        .sum();
    println!(
        "seed 122: finished at {}, busiest server {busiest:.3} busy, {filtered} frames filtered",
        outcome.wall
    );
    assert!(busiest < 0.75, "busiest server {busiest:.3} busy");
}

/// One lossy P5 pair across a two-segment star, on the hardened
/// profile: the shared minimized deployment behind the
/// loss-resilience regressions below. `ether_seed` picks the loss
/// pattern.
fn lossy_p5_pair(ether_seed: u64) -> RunOutcome {
    let fabric = FabricConfig::new(BridgeTopology::star(2));
    let mut cfg = SimConfig::paper(4);
    cfg.ether.loss = 0.10;
    cfg.ether.seed = ether_seed;
    cfg.calib = Calib::hardened();
    cfg.topology = Topology::fabric(fabric);
    let mut sim = Simulation::new(cfg);
    let counting = CountingConfig {
        target: 10,
        processes: 2,
        spin: SimDuration::from_micros(48),
    };
    // Striped homes: page 2 → segment 0, page 3 → segment 1.
    let (page_a, page_b) = (PageId::new(2), PageId::new(3));
    sim.create_owned(1, page_a);
    sim.create_owned(3, page_b);
    sim.add_process(
        1,
        Box::new(DisjointPageCounter::protocol5(counting, 0, page_a, page_b)),
    );
    sim.add_process(
        3,
        Box::new(DisjointPageCounter::protocol5(counting, 1, page_b, page_a)),
    );
    let outcome = sim.run(RunLimits {
        max_sim_time: SimDuration::from_millis(5_000),
        max_events: 2_000_000,
    });
    sim.check_invariants();
    outcome
}

/// Minimized data-wait liveness (ether seed 5 of the pair above). The
/// pair's data-driven reads block without transmitting; whenever the
/// partner's single waking broadcast is lost, only the fault-retry
/// escalation (drop the stale copy, re-issue as a demand fetch) can
/// recover a *blocked* waiter. Without it this exact run livelocks at
/// its limits; with it, it must finish.
#[test]
fn lossy_data_wait_recovers_via_retry_escalation() {
    let outcome = lossy_p5_pair(5);
    assert!(outcome.finished, "lossy P5 pair livelocked: {outcome:?}");
}

/// Minimized hot-spin loss livelock (ether seed 15 of the pair above).
/// The fault-retry escalation only reaches *blocked* waiters, but this
/// loss pattern leaves a P5 waiter spinning on a present stale copy:
/// its checks hit locally, it transmits nothing, and the partner's
/// single waking broadcast is gone. The read lease breaks exactly
/// this. Once the spinner has read the same generation for one
/// retransmission timeout, it drops the copy and demand-fetches the
/// holder's current one. Without the lease the run is stranded at its
/// limits, with the retry timer armed.
#[test]
fn hot_spin_loss_livelock_recovers_via_read_lease() {
    let outcome = lossy_p5_pair(15);
    assert!(
        outcome.finished,
        "the hot-spinning waiter was not recovered: {outcome:?}"
    );
}

/// A paced publisher on segment 0 with one polling reader on segment 1,
/// under a **sub-round-trip** interest-aging horizon: 4 ms, against a
/// ~13 ms paper-pace request → reply round trip. Sub-round-trip horizons
/// used to be a deterministic livelock. The reader's request stamped
/// interest that expired before its reply arrived, the reply was
/// filtered, and every retransmission re-ran the same doomed exchange,
/// so the fabric needed a reply-grace floor. A reply now returns on the
/// request's pending mark, which no horizon expires, so the deployment
/// completes with no floor at all — pinned because the soak generator
/// draws horizons down to 2 ms.
#[test]
fn sub_round_trip_aging_finishes_without_a_floor() {
    let fabric = FabricConfig::new(BridgeTopology::star(2))
        .with_aging(AgeHorizon::SimTime(SimDuration::from_millis(4)));
    let mut cfg = SimConfig::paper(4);
    cfg.calib = Calib::hardened();
    cfg.topology = Topology::fabric(fabric);
    let mut sim = Simulation::new(cfg);
    let page = PageId::new(0);
    sim.create_owned(0, page);
    sim.add_process(
        0,
        Box::new(Publisher::paced(page, 8, SimDuration::from_millis(1))),
    );
    sim.add_process(
        2,
        Box::new(PollingReader::new(
            page,
            8,
            SimDuration::from_millis(4),
            SimDuration::ZERO,
        )),
    );
    let outcome = sim.run(RunLimits {
        max_sim_time: SimDuration::from_millis(3_000),
        max_events: 2_000_000,
    });
    sim.check_invariants();
    assert!(
        outcome.finished,
        "a 4 ms horizon must not strand the reader: its reply rides the pending mark"
    );
}

/// The cross-engine batch: every fault-free scenario (clean and lossy)
/// runs on the discrete-event simulator *and* the threaded runtime,
/// and [`run_cross_engine_soak`] asserts both engines complete and
/// agree on every workload page's final word. `METHER_SOAK_SCENARIOS`
/// sizes the batch (CI pins it), `METHER_SOAK_SEED` moves the window;
/// every seed is printed before its run.
#[test]
fn cross_engine_soak_batch() {
    let count = scenario_count_from_env(25);
    let base = base_seed_from_env(0);
    let reports = run_cross_engine_soak(base, count, None);
    assert_eq!(reports.len(), count);
    assert!(
        reports
            .iter()
            .any(|(_, r)| r.runtime.metrics.net.lost > 0 || r.sim.outcome.finished),
        "the batch must include real runs"
    );
}

/// The CI large-fabric batch: 100+ device shapes (the 16×16 mesh,
/// rings, balanced trees, and random graphs past 100 devices) from the
/// dedicated generator ([`SoakScenario::large_from_seed`]), simulator
/// only, every run asserted to complete inside
/// [`SoakScenario::run`] (large scenarios are fault-free by
/// construction). `METHER_SOAK_SCENARIOS` sizes the batch — CI runs a
/// bounded one with `METHER_OBSERVE=1` — and `METHER_SOAK_SEED` moves
/// the window; every seed prints before its run.
#[test]
fn ci_large_fabric_soak() {
    let count = scenario_count_from_env(2);
    let base = base_seed_from_env(0);
    let reports = run_large_soak(base, count, None);
    assert_eq!(reports.len(), count);
    for (seed, r) in &reports {
        assert!(r.outcome.finished, "large seed {seed} hit its limits");
    }
}

/// The faulted large-fabric CI batch: the same 100+ device shapes as
/// [`ci_large_fabric_soak`], with mid-run `BridgeDown`/`LinkDown`
/// events and paired recoveries layered on top
/// ([`SoakScenario::large_faulted_from_seed`]). Completion is *not*
/// asserted — a large fabric's reconvergence can legitimately outlast
/// the budget — but every run must replay to the same digest, and the
/// invariant observer sweeps throughout (CI runs this with
/// `METHER_OBSERVE=1`).
#[test]
fn ci_large_faulted_soak() {
    let count = scenario_count_from_env(2);
    let base = base_seed_from_env(0);
    let reports = run_large_faulted_soak(base, count, None);
    assert_eq!(reports.len(), count);
    let replay = run_large_faulted_soak(base, count, None);
    for ((seed, a), (_, b)) in reports.iter().zip(replay.iter()) {
        assert_eq!(
            a, b,
            "faulted large seed {seed} did not replay to the same digest"
        );
    }
}

/// True when the invariant observer is active in this process — the
/// gate [`mether_sim`] itself applies: on under `debug_assertions`
/// unless `METHER_OBSERVE` disables it, opt-in via `METHER_OBSERVE=1`
/// in release.
fn observer_active() -> bool {
    match std::env::var("METHER_OBSERVE") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off"),
        Err(_) => cfg!(debug_assertions),
    }
}

/// Corruption-injection differential: over ≥8 printed seeds, run a
/// scenario partway, plant exactly one corruption — a second consistent
/// holder on a host table, a holder belief pointing off-port, or a
/// learned-interest entry for a segment the device has no port on — and
/// assert the **incremental** observer ([`Simulation::sweep_dirty`])
/// flags it on its very next sweep, the same sweep the **full oracle**
/// ([`Simulation::check_invariants`]) flags it on. The oracle runs on an
/// identically-prepared twin (the build is a pure function of the seed),
/// because a sweep panic poisons the first simulation's observer state.
///
/// This is the test that keeps the dirty-set fast path honest: every
/// corruption goes through the entities' ordinary mutation paths, so if
/// a future change forgets to mark some state transition dirty, the
/// incremental half here goes quiet while the oracle still fires.
#[test]
fn corruption_is_flagged_by_incremental_and_full_alike() {
    if !observer_active() {
        eprintln!("corruption-diff: observer off in this build; skipping");
        return;
    }
    let warmup = RunLimits {
        max_sim_time: SimDuration::from_millis(40),
        max_events: 1_000_000,
    };
    let mut flagged = 0u32;
    let mut seed = 0u64;
    while flagged < 8 {
        let sc = SoakScenario::from_seed(seed);
        // Fault-free fabrics only: the observer's liveness gate skips
        // downed devices, which is its own (already-tested) behaviour,
        // not the differential under test here.
        if !sc.faults.is_empty() || sc.devices() < 2 {
            seed += 1;
            continue;
        }
        let kind = flagged % 3;
        println!("corruption-diff[{flagged}/8] seed={seed} kind={kind}: {sc}");
        let prepare = || {
            let mut sim = sc.build();
            sim.run(warmup);
            // Clean so far — and settles the incremental holder map, so
            // the panic below is attributable to the planted corruption.
            sim.check_invariants();
            sim
        };
        let corrupt = |sim: &mut Simulation| -> bool {
            match kind {
                0 => {
                    // A page with exactly one consistent holder gains a
                    // second one on another host (mid-transit pages can
                    // transiently have none — find a settled one).
                    let found = (0..sim.host_count()).find_map(|h| {
                        sim.host(h)
                            .table
                            .tracked_pages()
                            .find(|&p| sim.host(h).table.is_consistent_holder(p))
                            .map(|p| (h, p))
                    });
                    let Some((holder, page)) = found else {
                        return false;
                    };
                    let twin = (holder + 1) % sim.host_count();
                    sim.create_owned(twin, page);
                    true
                }
                _ => {
                    // Device 0 gets state naming a segment it has no
                    // port on (falling back to an out-of-range segment
                    // id on shapes like ring(2) where device 0 spans
                    // every segment).
                    let segments = sim.segment_count();
                    let ports = sc.topology().ports(0).to_vec();
                    let bad = (0..segments)
                        .find(|s| !ports.contains(s))
                        .unwrap_or(segments);
                    let fabric = sim.fabric_mut_for_test().expect("fabric topology");
                    let policy = fabric.device_mut(0).policy_mut();
                    let page = PageId::new(0);
                    if kind == 1 {
                        policy.corrupt_holder_belief_for_test(page, Some(bad));
                    } else {
                        policy.corrupt_learned_for_test(page, bad);
                    }
                    true
                }
            }
        };
        let mut incremental = prepare();
        if !corrupt(&mut incremental) {
            seed += 1;
            continue;
        }
        let inc = catch_unwind(AssertUnwindSafe(|| incremental.sweep_dirty()));
        assert!(
            inc.is_err(),
            "seed {seed} kind {kind}: the incremental observer missed the corruption"
        );
        let mut oracle = prepare();
        assert!(corrupt(&mut oracle), "seed {seed}: twin prep diverged");
        let full = catch_unwind(AssertUnwindSafe(|| oracle.check_invariants()));
        assert!(
            full.is_err(),
            "seed {seed} kind {kind}: the full oracle missed the corruption"
        );
        flagged += 1;
        seed += 1;
    }
}

/// Observer invariant (f), the probable-owner trail, flags a device
/// that has lost the belief its silence depends on. Chain 0-1-2 with
/// one host per segment: page 2 is homed on segment 2 but created on
/// host 0, so creating it points devices 0 ({0,1}) and 1 ({1,2}) toward
/// segment 0. With its belief erased, device 1 would send page 2's
/// requests out its home port, away from the holder, and both observer
/// modes must say so. Device 0 bridges the holder's own segment, so an
/// erased belief there is harmless and must pass.
#[test]
fn an_erased_belief_between_home_and_holder_breaks_the_trail() {
    let page = PageId::new(2);
    let build = |erase: usize| {
        let mut sim = Simulation::new(SimConfig {
            topology: Topology::fabric(FabricConfig::chain(3)),
            ..SimConfig::paper(3)
        });
        sim.create_owned(0, page);
        sim.check_invariants();
        let fabric = sim.fabric_mut_for_test().expect("fabric topology");
        let policy = fabric.device_mut(erase).policy_mut();
        policy.corrupt_holder_belief_for_test(page, None);
        sim
    };
    let mut harmless = build(0);
    harmless.sweep_dirty();
    harmless.check_invariants();
    let message = |r: std::thread::Result<()>| -> String {
        let e = r.expect_err("the observer missed the broken trail");
        e.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let mut incremental = build(1);
    let inc = message(catch_unwind(AssertUnwindSafe(|| incremental.sweep_dirty())));
    assert!(
        inc.contains("invariant (f): device 1"),
        "incremental: {inc}"
    );
    let mut oracle = build(1);
    let full = message(catch_unwind(AssertUnwindSafe(|| oracle.check_invariants())));
    assert!(full.contains("invariant (f): device 1"), "full: {full}");
}

/// Regression for observer invariant (d): the exact scenario soak seed
/// 11 originally drew (before the generator's aging floor changed what
/// that seed produces). Its fault schedule partitions the ring so that
/// device 1 is isolated while devices 2 and 3 stay connected; during
/// reconvergence both sides transiently hold byte-identical views yet
/// elect their own islands' trees. The election is component-relative
/// by design — the observer must group by (views, component), not by
/// views alone, or this run panics at 67.7 ms.
#[test]
fn observer_tolerates_identical_views_across_partitions() {
    let sc = SoakScenario {
        seed: 11,
        shape: SoakShape::Ring(4),
        hosts_per_segment: 2,
        election_live: true,
        aging: AgeHorizon::SimTime(SimDuration::from_millis(27)),
        loss: 0.0,
        faults: vec![
            (
                SimDuration::from_millis(44),
                FabricEvent::LinkDown {
                    device: 1,
                    segment: 2,
                },
            ),
            (SimDuration::from_millis(51), FabricEvent::BridgeDown(0)),
            (SimDuration::from_millis(96), FabricEvent::BridgeUp(0)),
        ],
        mix: SoakMix::Mixed,
        target: 12,
    };
    // Faults are scheduled, so completion is not asserted — the run
    // only has to survive the always-on invariant sweeps.
    sc.run(None);
}
