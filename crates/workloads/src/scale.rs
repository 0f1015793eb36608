//! Past-the-wall deployments: the workloads that need more than 128
//! hosts, and the belief-churn storm that stresses the fabric's holder
//! tables at scale.
//!
//! Two builders live here:
//!
//! * [`build_scaled_fabric`] — the 1024-host headline deployment
//!   (16 segments × 64 hosts on a fanout-4 bridge tree, see
//!   [`ScaleConfig::fabric_16x64`]). Every segment runs its own set of
//!   §4 P5 counting pairs on pages homed to itself, so the traffic is
//!   segment-local by construction: the per-segment event lanes of
//!   [`mether_sim::ParallelMode::Workers`] cut it into 16 balanced
//!   lanes that never talk to each other. It is the workload behind
//!   the `scale/16x64` bench.
//! * [`build_migration_storm`] — the adversarial opposite: P1 counting
//!   pairs *straddling* segment boundaries on a chain fabric, so every
//!   pair's shared page ping-pongs between holders on different
//!   segments for the whole run. Each migration invalidates the holder
//!   beliefs every bridge device keeps (see
//!   [`mether_net::BridgeStats`]), so the belief tables are never at
//!   rest: requests route on a belief when it is fresh
//!   (`belief_hits`), walk toward the page's home when there is none
//!   (`home_routed`; flooded instead, `belief_fallback_floods`, on a
//!   device whose tree changed), and every reply or snooped
//!   `transfer_to` repoints them (`belief_repairs`).
//!   [`run_migration_storm`] samples those counters over a ladder of
//!   time horizons — the reconvergence-under-churn experiment.

use crate::counting::{CountingConfig, DisjointPageCounter, SharedPageCounter};
use crate::segments::WriteGraph;
use mether_core::{PageId, SegmentLayout};
use mether_net::{FabricConfig, SimDuration};
use mether_sim::{RunLimits, SimConfig, Simulation, Topology};

/// Shape of a scaled segment-local deployment.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Bridged segments in the fabric.
    pub segments: usize,
    /// Hosts on every segment.
    pub hosts_per_segment: usize,
    /// P5 counting pairs per segment (each pair occupies two hosts).
    pub pairs_per_segment: usize,
    /// Per-pair counting parameters.
    pub counting: CountingConfig,
}

impl ScaleConfig {
    /// The headline 1024-host deployment: 16 segments × 64 hosts on a
    /// fanout-4 tree, fully occupied — every host runs a counting
    /// party, 32 pairs per segment. Far past the 128-host wall the
    /// u128 recipient mask imposed.
    pub fn fabric_16x64() -> Self {
        ScaleConfig {
            segments: 16,
            hosts_per_segment: 64,
            pairs_per_segment: 32,
            counting: CountingConfig {
                target: 24,
                processes: 2,
                spin: SimDuration::from_micros(48),
            },
        }
    }

    /// A small same-shape deployment for tests and smoke runs.
    pub fn smoke() -> Self {
        ScaleConfig {
            segments: 4,
            hosts_per_segment: 4,
            pairs_per_segment: 2,
            counting: CountingConfig {
                target: 16,
                processes: 2,
                spin: SimDuration::from_micros(48),
            },
        }
    }

    /// Total hosts in the deployment.
    pub fn hosts(&self) -> usize {
        self.segments * self.hosts_per_segment
    }
}

/// The scaled segment-local deployment: on every segment of a fanout-4
/// bridge tree, `pairs_per_segment` P5 counting pairs run on their own
/// disjoint page pairs, homed (via the write graph) to the segment that
/// uses them. No page is ever wanted off its own segment, so beyond the
/// cold-start request floods (the first demand fault per page floods
/// the fabric before any interest is learned) the bridge filter keeps
/// every data frame local and the segments advance independently — the
/// deployment that cuts most evenly into per-segment event lanes.
///
/// Pair `k` of segment `s` occupies hosts `s·hps + 2k` and
/// `s·hps + 2k + 1`; its pages are globally unique
/// (`2·(s·pairs + k)` and the successor).
///
/// # Panics
///
/// Panics if a segment cannot seat its pairs
/// (`2 · pairs_per_segment > hosts_per_segment`) or the layout is
/// zero-sized.
pub fn build_scaled_fabric(cfg: &ScaleConfig) -> Simulation {
    assert!(
        2 * cfg.pairs_per_segment <= cfg.hosts_per_segment,
        "pairs need two hosts each"
    );
    let layout = SegmentLayout::new(cfg.hosts(), cfg.segments).expect("valid scale layout");
    let mut graph = WriteGraph::new();
    let mut placements = Vec::new();
    for seg in 0..cfg.segments {
        for k in 0..cfg.pairs_per_segment {
            let host_a = seg * cfg.hosts_per_segment + 2 * k;
            let host_b = host_a + 1;
            let pair = (seg * cfg.pairs_per_segment + k) as u32;
            let (page_a, page_b) = (PageId::new(2 * pair), PageId::new(2 * pair + 1));
            graph.record(page_a, host_a, u64::from(cfg.counting.target));
            graph.record(page_b, host_b, u64::from(cfg.counting.target));
            placements.push((host_a, host_b, page_a, page_b));
        }
    }
    let fabric = FabricConfig::tree(cfg.segments, 4).with_homes(graph.homes(&layout));
    let mut sim = Simulation::new(SimConfig {
        topology: Topology::fabric(fabric),
        ..SimConfig::paper(cfg.hosts())
    });
    for (host_a, host_b, page_a, page_b) in placements {
        sim.create_owned(host_a, page_a);
        sim.create_owned(host_b, page_b);
        sim.add_process(
            host_a,
            Box::new(DisjointPageCounter::protocol5(
                cfg.counting,
                0,
                page_a,
                page_b,
            )),
        );
        sim.add_process(
            host_b,
            Box::new(DisjointPageCounter::protocol5(
                cfg.counting,
                1,
                page_b,
                page_a,
            )),
        );
    }
    sim
}

/// Shape of the migration storm.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Bridged segments on the chain (one straddling pair per two).
    pub segments: usize,
    /// Hosts on every segment.
    pub hosts_per_segment: usize,
    /// Per-pair counting parameters (P1: both parties write the shared
    /// page, so it migrates on every win).
    pub counting: CountingConfig,
}

impl StormConfig {
    /// The scaled storm: 8 chained segments × 16 hosts, four straddling
    /// P1 pairs ping-ponging their pages across the chain.
    pub fn chain_8x16() -> Self {
        StormConfig {
            segments: 8,
            hosts_per_segment: 16,
            counting: CountingConfig {
                target: 64,
                processes: 2,
                spin: SimDuration::from_micros(48),
            },
        }
    }
}

/// The belief-churn storm: pair `p` puts one P1 party on the first host
/// of segment `2p` and the other on the first host of segment `2p + 1`
/// of a *chain* fabric, sharing writeable page `p` homed to segment
/// `2p`. Every win migrates the page to the other side of a bridge, so
/// the holder beliefs along the chain chase a target that never stops
/// moving — the worst case for holder-directed request routing, and the
/// workload [`run_migration_storm`] measures belief quality under.
///
/// Lossless on purpose: a lost cross-bridge transfer wedges the
/// counting protocols under any engine (the transfer has no
/// retransmission), and a wedged pair stops generating churn.
///
/// # Panics
///
/// Panics if `segments < 2` or the layout is zero-sized.
pub fn build_migration_storm(cfg: &StormConfig) -> Simulation {
    assert!(cfg.segments >= 2, "a storm pair needs two segments");
    let layout =
        SegmentLayout::new(cfg.segments * cfg.hosts_per_segment, cfg.segments).expect("valid");
    let mut graph = WriteGraph::new();
    let mut placements = Vec::new();
    for p in 0..cfg.segments / 2 {
        let host_a = 2 * p * cfg.hosts_per_segment;
        let host_b = (2 * p + 1) * cfg.hosts_per_segment;
        let page = PageId::new(p as u32);
        // Both sides write the page equally; recording only the seeding
        // side homes it there (ties in the write graph would anyway).
        graph.record(page, host_a, u64::from(cfg.counting.target));
        placements.push((host_a, host_b, page));
    }
    let fabric = FabricConfig::chain(cfg.segments).with_homes(graph.homes(&layout));
    let mut sim = Simulation::new(SimConfig {
        topology: Topology::fabric(fabric),
        ..SimConfig::paper(cfg.segments * cfg.hosts_per_segment)
    });
    for (host_a, host_b, page) in placements {
        sim.create_owned(host_a, page);
        sim.add_process(
            host_a,
            Box::new(SharedPageCounter::protocol1(cfg.counting, 0, page)),
        );
        sim.add_process(
            host_b,
            Box::new(SharedPageCounter::protocol1(cfg.counting, 1, page)),
        );
    }
    sim
}

/// Belief quality at one time horizon of the storm (cumulative since
/// the start of the run; difference successive points for rates).
#[derive(Debug, Clone, Copy)]
pub struct StormPoint {
    /// The horizon this point was sampled at.
    pub horizon: SimDuration,
    /// Whether every pair had already finished by the horizon.
    pub finished: bool,
    /// Page migrations so far: cross-segment `transfer_to` frames the
    /// fabric forwarded.
    pub forwarded: u64,
    /// Requests routed on a live holder belief.
    pub belief_hits: u64,
    /// Requests that found no belief and were flooded (see
    /// [`mether_net::BridgeStats::belief_fallback_floods`]).
    pub belief_fallbacks: u64,
    /// Existing beliefs repointed by fresher evidence.
    pub belief_repairs: u64,
}

/// Runs the storm to each horizon (a fresh, deterministic run per
/// point — identical prefixes, so the points nest) and samples the
/// fabric-wide belief counters: how routing quality evolves while the
/// holders never sit still. Expect repairs to track migrations and the
/// hit rate to stay well below a holder-stable workload's — that gap
/// *is* the cost of churn.
pub fn run_migration_storm(cfg: &StormConfig, horizons: &[SimDuration]) -> Vec<StormPoint> {
    horizons
        .iter()
        .map(|&horizon| {
            let mut sim = build_migration_storm(cfg);
            let outcome = sim.run(RunLimits {
                max_sim_time: horizon,
                ..RunLimits::default()
            });
            let stats = sim.bridge_stats().expect("storm runs on a fabric");
            StormPoint {
                horizon,
                finished: outcome.finished,
                forwarded: stats.forwarded,
                belief_hits: stats.belief_hits,
                belief_fallbacks: stats.belief_fallback_floods,
                belief_repairs: stats.belief_repairs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_sim::ParallelMode;

    #[test]
    fn scaled_fabric_runs_segment_local() {
        let cfg = ScaleConfig::smoke();
        let mut sim = build_scaled_fabric(&cfg);
        let outcome = sim.run(RunLimits::default());
        assert!(outcome.finished, "{outcome:?}");
        let m = sim.metrics("scale smoke", outcome.finished, 16);
        let pairs = (cfg.segments * cfg.pairs_per_segment) as u64;
        assert_eq!(m.additions, pairs * u64::from(cfg.counting.target));
        // Pages are homed where they are used: only the cold-start
        // request floods crossed a bridge, never a data frame.
        let bridge = sim.bridge_stats().unwrap();
        assert_eq!(
            bridge.forwarded, bridge.req_forwarded,
            "no data frame leaves its segment"
        );
    }

    #[test]
    fn scaled_fabric_is_identical_under_workers() {
        let cfg = ScaleConfig::smoke();
        let serial_outcome;
        let serial_adds;
        {
            let mut sim = build_scaled_fabric(&cfg);
            serial_outcome = sim.run(RunLimits::default());
            serial_adds = sim.metrics("s", true, 16).additions;
        }
        let mut sim = build_scaled_fabric(&cfg);
        sim.set_parallel_mode(ParallelMode::Workers(4));
        let outcome = sim.run(RunLimits::default());
        assert!(outcome.finished);
        assert_eq!(outcome.wall, serial_outcome.wall);
        assert_eq!(outcome.events, serial_outcome.events);
        assert_eq!(sim.metrics("p", true, 16).additions, serial_adds);
    }

    #[test]
    fn migration_storm_churns_the_belief_tables() {
        let cfg = StormConfig {
            segments: 4,
            hosts_per_segment: 2,
            counting: CountingConfig {
                target: 24,
                processes: 2,
                spin: SimDuration::from_micros(48),
            },
        };
        let points = run_migration_storm(
            &cfg,
            &[
                SimDuration::from_millis(40),
                SimDuration::from_millis(160),
                SimDuration::from_secs(120),
            ],
        );
        assert_eq!(points.len(), 3);
        let last = points.last().unwrap();
        assert!(last.finished, "the storm counts out by the last horizon");
        // The page never stops moving, so beliefs were repaired over
        // and over — churn is the point.
        assert!(last.forwarded > 0);
        assert!(
            last.belief_repairs > u64::from(cfg.counting.target) / 2,
            "repairs {} should track migrations",
            last.belief_repairs
        );
        // Cumulative counters nest across horizons (deterministic
        // prefix runs).
        for w in points.windows(2) {
            assert!(w[0].belief_repairs <= w[1].belief_repairs);
            assert!(w[0].forwarded <= w[1].forwarded);
        }
    }
}
