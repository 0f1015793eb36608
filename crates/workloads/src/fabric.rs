//! Fabric-resilience and interest-aging scenarios: the workloads that
//! exercise the spanning-tree election, failure reconvergence, and the
//! [`AgeHorizon`] knob.
//!
//! * [`run_ring_failover`] — the headline failover experiment: a 4-way
//!   **ring** fabric (one redundant link) under live election, a paced
//!   writer on segment 0, demand-polling readers on every other
//!   segment, and the **elected root bridge killed mid-run**. The
//!   fabric hello-timeouts the corpse, gossips the obituary, re-elects
//!   over the redundant link, and the readers — riding the demand-fault
//!   retry path — finish having observed the writer's final value. The
//!   report carries the measured **reconvergence stall** (sim time from
//!   the `BridgeDown` to the first cross-fabric page copy forwarded by
//!   a re-elected device).
//! * [`sweep_age_horizons`] — the aging-policy ablation: a
//!   **returning reader** polls, goes idle for a configurable gap, then
//!   returns and measures how stale its still-mapped copy went
//!   ([`AgePoint::return_lag`], in generations) against how many frames
//!   its segment had to snoop ([`AgePoint::idle_frames`]). Sweeping gap
//!   × [`AgeHorizon`] locates the refetch-vs-filter knee: horizons
//!   longer than the gap keep the copy fresh but feed the idle segment
//!   forever; shorter ones go quiet (cheap) and pay one catch-up fetch
//!   on return.
//!
//! The failover runs the hardened profile
//! ([`mether_sim::Calib::hardened`]): its readers recover through the
//! retransmission timer. The sweep runs the paper's, so what an idle
//! segment snoops is every frame it hears.

use crate::publisher::Publisher;
use mether_core::{MapMode, PageId, PageLength, View};
use mether_net::{AgeHorizon, ElectionMode, FabricConfig, FabricEvent, SimDuration};
use mether_sim::{
    Calib, DsmOp, ProtocolMetrics, RunLimits, RunOutcome, SimConfig, Simulation, Step, StepCtx,
    Topology, Workload,
};

/// A demand-polling reader that runs **until it observes a target
/// value**: each round waits out `spacing`, purges its inconsistent
/// copy, demand-reads the page, and exits once the read returns
/// `target` (recording one win). Bounded by `max_rounds` as a livelock
/// backstop — hitting it records nothing, so a report can tell "saw the
/// final value" from "gave up".
///
/// This is the failover acceptance workload: completion *is* the
/// assertion that every reader observed the writer's final generation,
/// however long the fabric was partitioned in between.
pub struct PollUntilReader {
    page: PageId,
    target: u32,
    spacing: SimDuration,
    offset: SimDuration,
    max_rounds: u32,
    state: PollState,
}

enum PollState {
    Pace,
    Purge,
    Read,
    Check,
}

impl PollUntilReader {
    /// A reader polling `page` every `spacing` (after an initial
    /// `offset`) until it reads `target`, for at most `max_rounds`
    /// rounds.
    pub fn new(
        page: PageId,
        target: u32,
        spacing: SimDuration,
        offset: SimDuration,
        max_rounds: u32,
    ) -> Self {
        PollUntilReader {
            page,
            target,
            spacing,
            offset,
            max_rounds,
            state: PollState::Pace,
        }
    }
}

impl Workload for PollUntilReader {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.state {
            PollState::Pace => {
                if self.max_rounds == 0 {
                    return Step::Done;
                }
                self.max_rounds -= 1;
                self.state = PollState::Purge;
                let pace = self.spacing + std::mem::take(&mut self.offset);
                Step::Compute(pace)
            }
            PollState::Purge => {
                self.state = PollState::Read;
                Step::Op(DsmOp::Purge {
                    page: self.page,
                    mode: MapMode::ReadOnly,
                    length: PageLength::Short,
                })
            }
            PollState::Read => {
                self.state = PollState::Check;
                ctx.counters.operations += 1;
                Step::Op(DsmOp::Read {
                    page: self.page,
                    view: View::short_demand(),
                    mode: MapMode::ReadOnly,
                    offset: 0,
                })
            }
            PollState::Check => {
                if ctx.value() >= self.target {
                    ctx.win();
                    return Step::Done;
                }
                ctx.lose();
                self.state = PollState::Pace;
                self.step(ctx)
            }
        }
    }

    fn label(&self) -> &str {
        "poll-until-reader"
    }
}

/// What request routing did after a run's last fabric event — the
/// flooding the probable-owner trail still leaves once a fault has
/// changed device trees: a device whose tree changed, or that was
/// revived, floods every request it holds no belief for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PostRecovery {
    /// When the last fabric event fired (run time).
    pub since: SimDuration,
    /// Belief-less requests flooded after it
    /// ([`mether_net::BridgeStats::belief_fallback_floods`]).
    pub fallback_floods: u64,
    /// Belief-less requests sent toward home after it
    /// ([`mether_net::BridgeStats::home_routed`]).
    pub home_routed: u64,
    /// Requests routed on a belief after it.
    pub belief_hits: u64,
}

impl std::fmt::Display for PostRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "after the last fabric event at {}: {} fallback floods, {} routed home, \
             {} belief hits",
            self.since, self.fallback_floods, self.home_routed, self.belief_hits
        )
    }
}

/// Runs `sim` to `limits` in two legs split at `last_event`, the time of
/// its last scheduled fabric event, reading the fabric's belief counters
/// at the split. A run continued after a limit replays the uninterrupted
/// schedule exactly, so the outcome (its events summed over both legs)
/// is the one a single `run` returns.
///
/// # Panics
///
/// Panics on a flat topology (there are no bridges to count).
pub fn run_past_last_event(
    sim: &mut Simulation,
    last_event: SimDuration,
    limits: RunLimits,
) -> (RunOutcome, PostRecovery) {
    let counters = |sim: &Simulation| sim.bridge_stats().expect("segmented topology");
    let first = sim.run(RunLimits {
        max_sim_time: last_event.min(limits.max_sim_time),
        ..limits
    });
    let before = counters(sim);
    let outcome = if first.finished {
        first
    } else {
        let rest = sim.run(RunLimits {
            max_events: limits.max_events.saturating_sub(first.events),
            ..limits
        });
        RunOutcome {
            events: first.events + rest.events,
            ..rest
        }
    };
    let after = counters(sim);
    let post = PostRecovery {
        since: last_event,
        fallback_floods: after.belief_fallback_floods - before.belief_fallback_floods,
        home_routed: after.home_routed - before.home_routed,
        belief_hits: after.belief_hits - before.belief_hits,
    };
    (outcome, post)
}

/// Configuration of the ring-failover experiment.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Hosts per segment (4 segments; the acceptance runs 4×8).
    pub hosts_per_segment: usize,
    /// Writer broadcast cycles; the final written value is `writes`.
    pub writes: u32,
    /// Writer sleep between cycles — keeps it publishing across the
    /// failure window.
    pub write_pace: SimDuration,
    /// When (from run start) the elected root bridge dies.
    pub kill_at: SimDuration,
    /// Optionally, when the dead bridge restarts.
    pub revive_at: Option<SimDuration>,
    /// Reader polling cadence.
    pub reader_spacing: SimDuration,
}

impl FailoverConfig {
    /// The acceptance configuration: 4×8 ring, 24 paced writes, root
    /// killed 100 ms in.
    pub fn ring_4x8() -> Self {
        FailoverConfig {
            hosts_per_segment: 8,
            writes: 24,
            write_pace: SimDuration::from_millis(10),
            kill_at: SimDuration::from_millis(100),
            revive_at: None,
            reader_spacing: SimDuration::from_millis(8),
        }
    }
}

/// What the failover run measured.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// How the run ended (finished ⇔ every reader saw the final value
    /// within its round budget and the writer completed).
    pub outcome: RunOutcome,
    /// The paper-shaped metrics table, fabric events and stall included.
    pub metrics: ProtocolMetrics,
    /// The measured reconvergence stall: `BridgeDown` → first
    /// cross-fabric page copy forwarded by a re-elected device.
    pub stall: Option<SimDuration>,
    /// Spanning-tree reconvergences across all devices.
    pub reconvergences: u64,
    /// True iff every reader terminated by observing the final value
    /// *and* ended holding the writer's final page generation.
    pub readers_saw_final: bool,
    /// What request routing did after the last fabric event (the kill,
    /// or the revival when there is one).
    pub post_recovery: PostRecovery,
}

/// Builds the ring-failover deployment: a 4-segment ring fabric (one
/// redundant link) under live election, priorities pinned so **device 0
/// is the elected root**, a paced writer of page 0 on host 0, one
/// [`PollUntilReader`] on the first host of every other segment, and
/// the root's death (plus optional revival) scheduled into the event
/// heap. Every host runs the hardened profile
/// ([`mether_sim::Calib::hardened`]). Its retransmission timer re-sends
/// the requests the dead fabric swallowed, each host timing its
/// re-sends by its measured round trip and doubling them per
/// unanswered attempt while the fabric is down. Its NIC coalesces
/// identical queued requests and drops frames about pages the host
/// does not track: the readers each fetch their own data, so without
/// coalescing the writer's server would serve reads a publication
/// already satisfied and its purges would wait behind them.
pub fn build_ring_failover(cfg: &FailoverConfig) -> Simulation {
    let segments = 4;
    let fabric = FabricConfig::ring(segments)
        .with_election(ElectionMode::live())
        .with_priorities(vec![0, 1, 2, 3]);
    let mut sim_cfg = SimConfig::paper(segments * cfg.hosts_per_segment);
    sim_cfg.calib = Calib::hardened();
    sim_cfg.topology = Topology::fabric(fabric);
    let mut sim = Simulation::new(sim_cfg);
    let page = PageId::new(0);
    sim.create_owned(0, page);
    sim.add_process(
        0,
        Box::new(Publisher::paced(page, cfg.writes, cfg.write_pace)),
    );
    for seg in 1..segments {
        // Stagger the readers so their faults don't piggyback on one
        // another's replies; bound the rounds far above the expected
        // (writer wall + outage) / spacing.
        let offset = SimDuration::from_nanos(cfg.reader_spacing.as_nanos() * (seg as u64 - 1) / 3);
        sim.add_process(
            seg * cfg.hosts_per_segment,
            Box::new(PollUntilReader::new(
                page,
                cfg.writes,
                cfg.reader_spacing,
                offset,
                4000,
            )),
        );
    }
    sim.schedule_fabric_event(cfg.kill_at, FabricEvent::BridgeDown(0));
    if let Some(at) = cfg.revive_at {
        sim.schedule_fabric_event(at, FabricEvent::BridgeUp(0));
    }
    sim
}

/// Runs the ring-failover experiment end to end and assembles the
/// report. See [`FailoverConfig::ring_4x8`] for the acceptance shape.
pub fn run_ring_failover(cfg: &FailoverConfig, limits: RunLimits) -> (Simulation, FailoverReport) {
    let mut sim = build_ring_failover(cfg);
    let last_event = cfg.revive_at.unwrap_or(cfg.kill_at);
    let (outcome, post_recovery) = run_past_last_event(&mut sim, last_event, limits);
    let metrics = sim.metrics("ring failover", outcome.finished, 1);
    let page = PageId::new(0);
    let mut readers_saw_final = true;
    for seg in 1..4 {
        let h = seg * cfg.hosts_per_segment;
        let host = sim.host(h);
        // One win = the reader's terminating read returned the final
        // value, demand-fetched fresh after its purge; its installed
        // copy must carry it. (The holder's *generation* keeps
        // advancing as it serves straggler polls after the last write,
        // so content — not generation — is the equality that matters.)
        let observed = host
            .table
            .page_buf(page)
            .and_then(|b| b.read_u32(0).ok())
            .unwrap_or(0);
        if host.counters(0).wins != 1 || observed < cfg.writes {
            readers_saw_final = false;
        }
    }
    let report = FailoverReport {
        outcome,
        stall: metrics.reconvergence_stall,
        reconvergences: metrics.fabric_reconvergences,
        readers_saw_final,
        metrics,
        post_recovery,
    };
    (sim, report)
}

/// A reader that polls, goes idle, and **returns**: `rounds` paced
/// purge+read polls, a `gap` of silence, then the return probe — one
/// read of the still-mapped copy (how stale did it go?) followed by a
/// purge + demand read (the catch-up fetch) — then `rounds` more polls.
///
/// The probe writes its findings into the workload counters:
/// `losses` = the **return lag** in generations (fresh value − stale
/// value: 0 when snooped refreshes kept the idle copy current, large
/// when interest aged out and the refreshes stopped), `wins` = 1 when
/// the lag was ≤ 1 (a fresh return).
pub struct ReturningReader {
    page: PageId,
    rounds: u32,
    gap: SimDuration,
    spacing: SimDuration,
    state: ReturnState,
    left: u32,
    stale_value: u32,
    scored: bool,
}

enum ReturnState {
    PollPace,
    PollPurge,
    PollRead,
    Gap,
    ProbeStale,
    ProbePurge,
    ProbeFresh,
    ReturnPace,
    ReturnPurge,
    ReturnRead,
    Finished,
}

impl ReturningReader {
    /// A reader of `page` polling `rounds` times `spacing` apart on
    /// each side of an idle `gap`.
    pub fn new(page: PageId, rounds: u32, spacing: SimDuration, gap: SimDuration) -> Self {
        ReturningReader {
            page,
            rounds,
            gap,
            spacing,
            state: ReturnState::PollPace,
            left: rounds,
            stale_value: 0,
            scored: false,
        }
    }
}

impl Workload for ReturningReader {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        let purge = |page| {
            Step::Op(DsmOp::Purge {
                page,
                mode: MapMode::ReadOnly,
                length: PageLength::Short,
            })
        };
        let read = |page| {
            Step::Op(DsmOp::Read {
                page,
                view: View::short_demand(),
                mode: MapMode::ReadOnly,
                offset: 0,
            })
        };
        match self.state {
            ReturnState::PollPace => {
                if self.left == 0 {
                    self.state = ReturnState::Gap;
                    return self.step(ctx);
                }
                self.left -= 1;
                self.state = ReturnState::PollPurge;
                Step::Compute(self.spacing)
            }
            ReturnState::PollPurge => {
                self.state = ReturnState::PollRead;
                purge(self.page)
            }
            ReturnState::PollRead => {
                self.state = ReturnState::PollPace;
                ctx.counters.operations += 1;
                read(self.page)
            }
            ReturnState::Gap => {
                self.state = ReturnState::ProbeStale;
                Step::Sleep(self.gap)
            }
            ReturnState::ProbeStale => {
                // The copy was never purged during the gap: this read
                // hits locally, at whatever value the last snooped
                // refresh left behind.
                self.state = ReturnState::ProbePurge;
                read(self.page)
            }
            ReturnState::ProbePurge => {
                self.stale_value = ctx.value();
                self.state = ReturnState::ProbeFresh;
                purge(self.page)
            }
            ReturnState::ProbeFresh => {
                self.state = ReturnState::ReturnPace;
                self.left = self.rounds;
                ctx.counters.operations += 1;
                read(self.page)
            }
            ReturnState::ReturnPace => {
                // First entry after ProbeFresh: score the probe once.
                if !self.scored {
                    self.scored = true;
                    let fresh = ctx.value();
                    let lag = u64::from(fresh.saturating_sub(self.stale_value));
                    ctx.counters.losses += lag;
                    if lag <= 1 {
                        ctx.win();
                    }
                }
                if self.left == 0 {
                    self.state = ReturnState::Finished;
                    return Step::Done;
                }
                self.left -= 1;
                self.state = ReturnState::ReturnPurge;
                Step::Compute(self.spacing)
            }
            ReturnState::ReturnPurge => {
                self.state = ReturnState::ReturnRead;
                purge(self.page)
            }
            ReturnState::ReturnRead => {
                self.state = ReturnState::ReturnPace;
                ctx.counters.operations += 1;
                read(self.page)
            }
            ReturnState::Finished => Step::Done,
        }
    }

    fn label(&self) -> &str {
        "returning-reader"
    }
}

/// One point of the gap × horizon aging sweep.
#[derive(Debug, Clone)]
pub struct AgePoint {
    /// Human-readable point label, e.g. `"gap 600ms, Transits(2)"`.
    pub label: String,
    /// The reader's idle gap.
    pub gap: SimDuration,
    /// The aging horizon swept.
    pub horizon: AgeHorizon,
    /// Frames the returning reader's host snooped across the whole run
    /// — the **filter cost**: sticky interest feeds the idle segment
    /// for the entire gap, aged-out interest goes quiet.
    pub idle_frames: u64,
    /// Generations the still-mapped copy was behind at the return probe
    /// — the **refetch cost**: 0–1 when refreshes kept flowing, ≈ the
    /// writes since eviction when they stopped.
    pub return_lag: u64,
    /// `return_lag ≤ 1`.
    pub fresh_return: bool,
    /// `PageRequest` frames the fabric carried (the catch-up fetch and
    /// every poll-round fault).
    pub requests_crossed: u64,
}

/// Sweeps the returning-reader workload over `gaps` × `horizons` to
/// locate the refetch-vs-filter knee of [`AgeHorizon`] (ROADMAP "Aging
/// policy sweep"): a paced writer of page 0 on segment 0, a
/// [`ReturningReader`] alone on segment 1 (2-segment star: requests
/// walk toward the holder, so the only traffic reaching the reader's
/// segment is interest-driven), one run per point.
///
/// Horizons longer than the gap keep the idle copy fresh
/// (`return_lag ≤ 1`) at the price of snooping every broadcast of the
/// gap; shorter ones go quiet early (small `idle_frames`) and pay the
/// lag back as one catch-up fetch on return.
pub fn sweep_age_horizons(
    gaps: &[SimDuration],
    horizons: &[AgeHorizon],
    limits: RunLimits,
) -> Vec<AgePoint> {
    let mut points = Vec::new();
    let rounds = 4;
    let spacing = SimDuration::from_millis(10);
    let pace = SimDuration::from_millis(20);
    for &gap in gaps {
        for &horizon in horizons {
            // Keep the writer publishing through the reader's whole
            // life: both poll phases, the gap, and generous slack for
            // fault service times.
            let life = gap + SimDuration::from_millis(u64::from(rounds) * 2 * 60 + 500);
            let cycles = (life.as_nanos() / pace.as_nanos()).max(8) as u32;
            let fabric = FabricConfig::star(2).with_aging(horizon);
            let mut sim = Simulation::new(SimConfig {
                topology: Topology::fabric(fabric),
                ..SimConfig::paper(4)
            });
            let page = PageId::new(0);
            sim.create_owned(0, page);
            sim.add_process(0, Box::new(Publisher::paced(page, cycles, pace)));
            sim.add_process(
                2,
                Box::new(ReturningReader::new(page, rounds, spacing, gap)),
            );
            let outcome = sim.run(limits);
            assert!(outcome.finished, "sweep point did not finish: {outcome:?}");
            let reader = sim.host(2);
            let c = reader.counters(0);
            points.push(AgePoint {
                label: format!("gap {gap}, {horizon:?}"),
                gap,
                horizon,
                idle_frames: reader.frames_heard,
                return_lag: c.losses,
                fresh_return: c.wins == 1,
                requests_crossed: sim
                    .bridge_stats()
                    .expect("segmented topology")
                    .req_forwarded,
            });
        }
    }
    points
}
