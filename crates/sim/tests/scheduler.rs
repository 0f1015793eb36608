//! Scheduler-behaviour tests for the simulated host: quantum rotation,
//! server patience, the sleeper boost, and CPU accounting — the
//! mechanisms behind every number in the paper's figures.

use mether_core::{MapMode, PageId, View};
use mether_net::SimDuration;
use mether_sim::{Calib, DsmOp, RunLimits, SimConfig, Simulation, Step, StepCtx, Workload};

/// Spins for `n` compute slices of `slice`, then exits.
struct Spinner {
    n: u32,
    slice: SimDuration,
}

impl Workload for Spinner {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.n == 0 {
            return Step::Done;
        }
        self.n -= 1;
        Step::Compute(self.slice)
    }

    fn label(&self) -> &str {
        "spinner"
    }
}

/// Sleeps once for `d`, then exits.
struct Sleeper {
    d: SimDuration,
    slept: bool,
}

impl Workload for Sleeper {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.slept {
            Step::Done
        } else {
            self.slept = true;
            Step::Sleep(self.d)
        }
    }

    fn label(&self) -> &str {
        "sleeper"
    }
}

/// Reads one remote page once (demand, read-only), then exits.
struct OneRead {
    page: PageId,
    done: bool,
}

impl Workload for OneRead {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done {
            assert!(matches!(ctx.last, mether_sim::OpResult::Value(_)));
            return Step::Done;
        }
        self.done = true;
        Step::Op(DsmOp::Read {
            page: self.page,
            view: View::short_demand(),
            mode: MapMode::ReadOnly,
            offset: 0,
        })
    }

    fn label(&self) -> &str {
        "one-read"
    }
}

#[test]
fn single_spinner_accumulates_pure_user_time() {
    let mut sim = Simulation::new(SimConfig::paper(1));
    sim.add_process(
        0,
        Box::new(Spinner {
            n: 1000,
            slice: SimDuration::from_micros(50),
        }),
    );
    let out = sim.run(RunLimits::default());
    assert!(out.finished);
    assert_eq!(out.wall, SimDuration::from_micros(50_000));
    let t = sim.host(0).times(0);
    assert_eq!(t.user, SimDuration::from_micros(50_000));
    assert_eq!(t.sys, SimDuration::ZERO);
    assert_eq!(sim.host(0).ctx_switches, 0, "no one to switch to");
}

#[test]
fn two_spinners_share_the_cpu_via_quantum() {
    let mut sim = Simulation::new(SimConfig::paper(1));
    // Each needs 1 s of CPU; the quantum is 72 ms, so expect ~2 s of
    // combined wall plus ~28 rotations of context switching.
    sim.add_process(
        0,
        Box::new(Spinner {
            n: 20_000,
            slice: SimDuration::from_micros(50),
        }),
    );
    sim.add_process(
        0,
        Box::new(Spinner {
            n: 20_000,
            slice: SimDuration::from_micros(50),
        }),
    );
    let out = sim.run(RunLimits::default());
    assert!(out.finished);
    let wall = out.wall.as_secs_f64();
    assert!((2.0..2.3).contains(&wall), "{wall}");
    let switches = sim.host(0).ctx_switches;
    assert!((20..40).contains(&switches), "{switches} switches");
    // Fair split.
    let a = sim.host(0).times(0).user;
    let b = sim.host(0).times(1).user;
    assert_eq!(a, b);
}

#[test]
fn sleeping_frees_the_cpu() {
    let mut sim = Simulation::new(SimConfig::paper(1));
    sim.add_process(
        0,
        Box::new(Sleeper {
            d: SimDuration::from_secs(1),
            slept: false,
        }),
    );
    sim.add_process(
        0,
        Box::new(Spinner {
            n: 1000,
            slice: SimDuration::from_micros(50),
        }),
    );
    let out = sim.run(RunLimits::default());
    assert!(out.finished);
    // The spinner's 50 ms happen during the sleeper's 1 s, not after
    // (plus one context switch when the sleeper wakes).
    let wall = out.wall.as_secs_f64();
    assert!((1.0..1.01).contains(&wall), "{wall}");
}

#[test]
fn remote_fault_round_trip_latency_is_tens_of_ms() {
    // One reader on host 1 faults a page owned by an otherwise idle
    // host 0. Cost: trap + ctx + send + wire + handle + reply-copy +
    // wire + install + ctx. With an idle holder (no patience penalty)
    // this is ~35-55 ms on the Sun-3 calibration.
    let mut sim = Simulation::new(SimConfig::paper(2));
    sim.create_owned(0, PageId::new(0));
    sim.add_process(
        1,
        Box::new(OneRead {
            page: PageId::new(0),
            done: false,
        }),
    );
    let out = sim.run(RunLimits::default());
    assert!(out.finished);
    let lat = &sim.host(1).fault_latencies;
    assert_eq!(lat.len(), 1);
    let ms = lat[0].as_millis_f64();
    assert!((20.0..70.0).contains(&ms), "{ms} ms");
    // Exactly one request and one reply crossed the wire.
    assert_eq!(sim.net_stats().requests, 1);
    assert_eq!(sim.net_stats().data_packets, 1);
}

#[test]
fn idle_fault_with_the_retry_timer_armed_sends_one_request() {
    // The same uncontended fault with the retransmission timer on at a
    // 20 ms floor — below the ~30 ms an idle round trip takes. The
    // timeout is measured (three idle round trips before any sample),
    // so the request is not re-sent and nothing about the run differs
    // from the paper calibration's, which has no timer at all.
    let run = |calib: Calib| {
        let mut cfg = SimConfig::paper(2);
        cfg.calib = calib;
        let mut sim = Simulation::new(cfg);
        sim.create_owned(0, PageId::new(0));
        sim.add_process(
            1,
            Box::new(OneRead {
                page: PageId::new(0),
                done: false,
            }),
        );
        let out = sim.run(RunLimits::default());
        assert!(out.finished);
        (out.wall, sim)
    };
    let (plain_wall, plain) = run(Calib::sun3_sunos4());
    let (wall, sim) = run(Calib::sun3_sunos4().with_fault_retry(SimDuration::from_millis(20)));
    assert_eq!(wall, plain_wall);
    assert_eq!(sim.net_stats(), plain.net_stats());
    assert_eq!(sim.net_stats().requests, 1, "re-sent on an idle network");
    let reader = sim.host(1);
    assert_eq!(reader.fault_retransmits, 0);
    assert_eq!(reader.fault_latencies, plain.host(1).fault_latencies);
    let rto = reader.fault_rto().expect("timer armed");
    assert_eq!(rto.srtt_ns(), Some(reader.fault_latencies[0].as_nanos()));
}

#[test]
fn server_patience_delays_service_under_a_spinning_client() {
    // Same fault, but the holder's CPU is busy with a spinner: the
    // request waits out the 22 ms patience before the server runs.
    let mut idle = Simulation::new(SimConfig::paper(2));
    idle.create_owned(0, PageId::new(0));
    idle.add_process(
        1,
        Box::new(OneRead {
            page: PageId::new(0),
            done: false,
        }),
    );
    idle.run(RunLimits::default());
    let idle_lat = idle.host(1).fault_latencies[0];

    let mut busy = Simulation::new(SimConfig::paper(2));
    busy.create_owned(0, PageId::new(0));
    busy.add_process(
        0,
        Box::new(Spinner {
            n: 1_000_000,
            slice: SimDuration::from_micros(50),
        }),
    );
    busy.add_process(
        1,
        Box::new(OneRead {
            page: PageId::new(0),
            done: false,
        }),
    );
    let out = busy.run(RunLimits {
        max_sim_time: SimDuration::from_secs(90),
        max_events: 100_000_000,
    });
    assert!(out.finished);
    let busy_lat = busy.host(1).fault_latencies[0];

    let delta = busy_lat.as_millis_f64() - idle_lat.as_millis_f64();
    assert!(
        (10.0..40.0).contains(&delta),
        "patience should add roughly 22 ms: idle {idle_lat}, busy {busy_lat}"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = Simulation::new(SimConfig::paper(2));
        sim.create_owned(0, PageId::new(0));
        sim.add_process(
            0,
            Box::new(Spinner {
                n: 5000,
                slice: SimDuration::from_micros(50),
            }),
        );
        sim.add_process(
            1,
            Box::new(OneRead {
                page: PageId::new(0),
                done: false,
            }),
        );
        let out = sim.run(RunLimits::default());
        (out.wall, out.events, sim.net_stats())
    };
    assert_eq!(run(), run(), "the DES must be bit-for-bit deterministic");
}

#[test]
fn run_limits_cap_infinite_workloads() {
    let mut sim = Simulation::new(SimConfig::paper(1));
    sim.add_process(
        0,
        Box::new(Spinner {
            n: u32::MAX,
            slice: SimDuration::from_micros(50),
        }),
    );
    let out = sim.run(RunLimits {
        max_sim_time: SimDuration::from_millis(100),
        max_events: 1_000_000,
    });
    assert!(!out.finished);
    assert!(out.wall >= SimDuration::from_millis(100));
}
