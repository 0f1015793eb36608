//! The randomized soak harness: every scenario — topology, fault
//! schedule, workload mix, loss rate — is a pure function of one `u64`
//! seed, printed **before** the run so a panic deep in the event loop
//! still leaves the reproducer on the console. Re-running a seed
//! rebuilds the identical deployment and (the engine being
//! deterministic) the identical event schedule, serial or under
//! [`ParallelMode::Workers`] — which is what turns a soak failure into
//! a pinned regression test: copy the seed into
//! [`SoakScenario::from_seed`] and minimize from there.
//!
//! A scenario draws:
//!
//! * a connected bridge topology — star, chain, balanced tree, ring,
//!   2-D mesh, or a random connected graph (a parent-vector tree via
//!   [`BridgeTopology::from_parents`], the same family the election
//!   proptests explore, plus up to two redundant tie links) — with 2–4
//!   hosts per segment;
//! * an election mode ([`ElectionMode::live`] whenever faults are
//!   scheduled — a static tree cannot reconverge around them) and an
//!   interest-aging horizon;
//! * a fault schedule of up to three [`FabricEvent`]s (`BridgeDown`,
//!   sometimes with a later `BridgeUp`; `LinkDown` on a real port,
//!   sometimes with a later `LinkUp`);
//! * an ether loss rate (0, or 1–5%);
//! * a workload mix: cross-segment P5 counting pairs, a paced publisher
//!   with polling readers on every other segment, or both at once.
//!
//! Every run is bounded by [`SoakScenario::limits`], sweeps the
//! invariant observer (always on under `debug_assertions` /
//! `METHER_OBSERVE=1`, and forced once after the run via
//! [`Simulation::check_invariants`] so release soaks still verify), and
//! ends in a [`state_digest`] over host tables, page generations, page
//! bytes, and traffic counters — the equality the replay tests pin.
//!
//! Completion is asserted for every fault-free scenario, **lossy ones
//! included**: every deployment runs the hardened profile
//! ([`mether_sim::Calib::hardened`]), whose fault retransmission
//! timeout is also each process's read lease. The lease breaks the
//! hot-spin loss livelock: a waiter spinning on a present stale copy
//! transmits nothing, so a lost waking broadcast would strand it for
//! good; after one timeout on an unchanged copy it asks the holder
//! again. A reply
//! crosses the fabric on its request's pending marks, which
//! sub-round-trip aging horizons cannot expire. Only a faulted run may
//! legitimately end at the limits (a `LinkDown` can partition the
//! fabric for good).
//!
//! `SoakScenario::run_cross_engine` executes the same scenario on the
//! threaded runtime (`mether_runtime::Cluster`) as well — same fabric
//! config, same loss rate, same workload shape on real blocking threads
//! — and reports both engines' completion outcomes and final page
//! words, which [`run_cross_engine_soak`] asserts agree.

use crate::counting::{CountingConfig, DisjointPageCounter};
use crate::fabric::{run_past_last_event, PostRecovery};
use crate::publisher::Publisher;
use crate::segments::PollingReader;
use mether_core::{BridgeTopology, MapMode, MetherConfig, PageId, PageLength, VAddr, View};
use mether_net::rt::LanConfig;
use mether_net::{
    AgeHorizon, BridgeStats, ElectionMode, FabricConfig, FabricEvent, NetStats, SimDuration,
};
use mether_runtime::{Cluster, ClusterConfig, FaultPlan};
use mether_sim::{
    Calib, ObserverStats, ParallelMode, ProtocolMetrics, RunLimits, RunOutcome, SimConfig,
    Simulation, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The connected bridge-topology shapes a scenario can draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoakShape {
    /// One bridge over this many segments.
    Star(usize),
    /// A chain of two-port bridges.
    Chain(usize),
    /// A balanced tree: `(segments, fanout)`.
    Tree(usize, usize),
    /// A ring (chain plus one redundant link).
    Ring(usize),
    /// A 2-D mesh: `(rows, cols)` of segments.
    Mesh2d(usize, usize),
    /// A random connected graph: the parent-vector tree family the
    /// election proptests explore ([`BridgeTopology::from_parents`] —
    /// segment `k+1` attaches under `parents[k] % (k+1)`), plus
    /// redundant two-port tie bridges between distinct segments.
    Graph {
        /// Parent draw for each non-root segment.
        parents: Vec<usize>,
        /// Redundant `(a, b)` tie links, `a != b`.
        ties: Vec<(usize, usize)>,
    },
}

impl SoakShape {
    fn build(&self) -> BridgeTopology {
        match self {
            SoakShape::Star(s) => BridgeTopology::star(*s),
            SoakShape::Chain(s) => BridgeTopology::chain(*s),
            SoakShape::Tree(s, f) => BridgeTopology::balanced_tree(*s, *f),
            SoakShape::Ring(s) => BridgeTopology::ring(*s),
            SoakShape::Mesh2d(r, c) => BridgeTopology::mesh2d(*r, *c),
            SoakShape::Graph { parents, ties } => {
                let tree = BridgeTopology::from_parents(parents);
                if ties.is_empty() {
                    tree
                } else {
                    tree.add_redundant_links(ties.iter().map(|&(a, b)| vec![a, b]).collect())
                        .expect("ties name distinct real segments")
                }
            }
        }
    }
}

impl fmt::Display for SoakShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakShape::Star(s) => write!(f, "star({s})"),
            SoakShape::Chain(s) => write!(f, "chain({s})"),
            SoakShape::Tree(s, k) => write!(f, "tree({s},fanout {k})"),
            SoakShape::Ring(s) => write!(f, "ring({s})"),
            SoakShape::Mesh2d(r, c) => write!(f, "mesh2d({r}x{c})"),
            SoakShape::Graph { parents, ties } => {
                write!(f, "graph({}segs,{}ties)", parents.len() + 1, ties.len())
            }
        }
    }
}

/// Which application processes a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakMix {
    /// Cross-segment P5 counting pairs on disjoint page pairs.
    Pairs,
    /// One paced publisher plus a polling reader per remote segment.
    PublisherReaders,
    /// Both of the above at once, on disjoint pages and hosts.
    Mixed,
}

impl fmt::Display for SoakMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakMix::Pairs => write!(f, "pairs"),
            SoakMix::PublisherReaders => write!(f, "publisher+readers"),
            SoakMix::Mixed => write!(f, "mixed"),
        }
    }
}

/// One soak scenario, fully determined by its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakScenario {
    /// The seed every field below was derived from.
    pub seed: u64,
    /// The bridge topology shape.
    pub shape: SoakShape,
    /// Hosts on every segment (2–4).
    pub hosts_per_segment: usize,
    /// Live spanning-tree election (forced on when faults are
    /// scheduled; a static tree cannot route around them).
    pub election_live: bool,
    /// Learned-interest lifetime.
    pub aging: AgeHorizon,
    /// Ether frame-loss probability, identical on every segment.
    pub loss: f64,
    /// The fault schedule, in run order.
    pub faults: Vec<(SimDuration, FabricEvent)>,
    /// The application processes.
    pub mix: SoakMix,
    /// Counting target / publisher cycles / reader rounds.
    pub target: u32,
}

impl fmt::Display for SoakScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} {} election={} aging={:?} loss={:.2} target={}",
            self.shape,
            self.hosts_per_segment,
            self.mix,
            if self.election_live { "live" } else { "static" },
            self.aging,
            self.loss,
            self.target,
        )?;
        for (at, ev) in &self.faults {
            write!(f, " @{at}:{ev:?}")?;
        }
        Ok(())
    }
}

impl SoakScenario {
    /// Derives every scenario choice from `seed` — the same seed always
    /// yields the same scenario, on every platform (the generator is a
    /// fixed SplitMix64).
    pub fn from_seed(seed: u64) -> SoakScenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = match rng.gen_range(0..6) {
            0 => SoakShape::Star(rng.gen_range(2..7) as usize),
            1 => SoakShape::Chain(rng.gen_range(2..6) as usize),
            2 => SoakShape::Tree(rng.gen_range(4..10) as usize, rng.gen_range(2..4) as usize),
            3 => SoakShape::Ring(rng.gen_range(3..7) as usize),
            4 => SoakShape::Mesh2d(rng.gen_range(2..4) as usize, rng.gen_range(2..4) as usize),
            _ => {
                // The election proptests' parent-vector family: any draw
                // is a valid connected tree, plus up to two redundant
                // tie links between distinct segments.
                let parents: Vec<usize> = (0..rng.gen_range(1..8))
                    .map(|_| rng.gen_range(0..64) as usize)
                    .collect();
                let segs = (parents.len() + 1) as u64;
                let mut ties = Vec::new();
                for _ in 0..rng.gen_range(0..3) {
                    let (a, b) = (
                        rng.gen_range(0..segs) as usize,
                        rng.gen_range(0..segs) as usize,
                    );
                    if a != b {
                        ties.push((a, b));
                    }
                }
                SoakShape::Graph { parents, ties }
            }
        };
        let hosts_per_segment = rng.gen_range(2..5) as usize;
        // The draw that once chose flooded or holder-directed routing.
        // Every draw after it keeps its place in the stream, so each
        // seed keeps its shape, faults and mix, and the numbered seeds
        // recorded against this generator keep naming the same
        // scenarios.
        let _ = rng.gen_range(0..2);
        let aging = match rng.gen_range(0..3) {
            0 => AgeHorizon::Sticky,
            1 => AgeHorizon::Transits(rng.gen_range(64..512)),
            // Horizons down to 2 ms — *below* one request → reply round
            // trip (~13 ms of paper-pace server time). Aging governs
            // publications only: a reply returns on the pending marks
            // its request left, which no horizon expires.
            _ => AgeHorizon::SimTime(SimDuration::from_millis(rng.gen_range(2..50))),
        };
        let loss = if rng.gen_range(0..2) == 0 {
            0.0
        } else {
            rng.gen_range(1..6) as f64 * 0.01
        };
        let mix = match rng.gen_range(0..3) {
            0 => SoakMix::Pairs,
            1 => SoakMix::PublisherReaders,
            _ => SoakMix::Mixed,
        };
        let target = rng.gen_range(6..17) as u32;
        // The fault schedule needs the topology to name real devices
        // and ports.
        let topo = shape.build();
        let devices = topo.bridges();
        let mut faults: Vec<(SimDuration, FabricEvent)> = Vec::new();
        for _ in 0..rng.gen_range(0..4) {
            let at = SimDuration::from_millis(rng.gen_range(10..120));
            let d = rng.gen_range(0..devices as u64) as usize;
            if rng.gen_range(0..2) == 0 {
                faults.push((at, FabricEvent::BridgeDown(d)));
                if rng.gen_range(0..2) == 0 {
                    let back = at + SimDuration::from_millis(rng.gen_range(10..60));
                    faults.push((back, FabricEvent::BridgeUp(d)));
                }
            } else {
                let ports = topo.ports(d);
                let segment = ports[rng.gen_range(0..ports.len() as u64) as usize];
                faults.push((at, FabricEvent::LinkDown { device: d, segment }));
                if rng.gen_range(0..2) == 0 {
                    let back = at + SimDuration::from_millis(rng.gen_range(10..60));
                    faults.push((back, FabricEvent::LinkUp { device: d, segment }));
                }
            }
        }
        faults.sort_by_key(|(at, _)| *at);
        let election_live = !faults.is_empty() || rng.gen_range(0..2) == 0;
        SoakScenario {
            seed,
            shape,
            hosts_per_segment,
            election_live,
            aging,
            loss,
            faults,
            mix,
            target,
        }
    }

    /// Derives a **large-fabric** scenario: 100+ bridge devices — the
    /// 16×16 mesh (480 devices over 256 segments), rings and balanced
    /// trees past 100 devices, and random parent-vector graphs with
    /// 200+ segments. The observer's dirty-set sweeps and the hello
    /// timer ring are what make these shapes affordable to soak; the
    /// workload caps (`SoakScenario::pair_count`,
    /// `SoakScenario::reader_count`) keep the process population
    /// bounded while traffic still crosses the whole fabric.
    ///
    /// Large scenarios are fault-free by construction, so every one
    /// asserts completion ([`SoakScenario::must_finish`]); the fault
    /// schedule's reconvergence coverage stays with the regular-size
    /// generator. The seed stream is deliberately distinct from
    /// [`SoakScenario::from_seed`] (same seed, different scenario).
    pub fn large_from_seed(seed: u64) -> SoakScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4c41_5247_455f_3136);
        let shape = match rng.gen_range(0..4) {
            0 => SoakShape::Mesh2d(16, 16),
            1 => SoakShape::Ring(rng.gen_range(100..141) as usize),
            2 => SoakShape::Tree(rng.gen_range(220..301) as usize, 2),
            _ => {
                // The same parent-vector family as the regular draw,
                // scaled out: ~63% of parent draws are distinct, so
                // 200+ segments keep the device count past 100 (the
                // coverage test asserts it for every probed seed).
                let parents: Vec<usize> = (0..rng.gen_range(200..261))
                    .map(|_| rng.gen_range(0..1024) as usize)
                    .collect();
                let segs = (parents.len() + 1) as u64;
                let mut ties = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let (a, b) = (
                        rng.gen_range(0..segs) as usize,
                        rng.gen_range(0..segs) as usize,
                    );
                    if a != b {
                        ties.push((a, b));
                    }
                }
                SoakShape::Graph { parents, ties }
            }
        };
        // Sticky or slow-transit aging only: a sub-round-trip SimTime
        // horizon is aggressive even on a chain; across a 30-hop mesh
        // diameter it would age interest faster than a reply can cross,
        // and that livelock is the small generator's coverage, not this
        // one's.
        let aging = match rng.gen_range(0..2) {
            0 => AgeHorizon::Sticky,
            _ => AgeHorizon::Transits(rng.gen_range(256..2048)),
        };
        let election_live = rng.gen_range(0..2) == 1;
        // The retired routing draw, kept so that every later draw, and
        // so every seed's scenario, stays where it was.
        let _ = rng.gen_range(0..2);
        SoakScenario {
            seed,
            shape,
            hosts_per_segment: 2,
            election_live,
            aging,
            loss: if rng.gen_range(0..4) == 0 { 0.01 } else { 0.0 },
            faults: Vec::new(),
            mix: if rng.gen_range(0..2) == 0 {
                SoakMix::Pairs
            } else {
                SoakMix::PublisherReaders
            },
            target: rng.gen_range(3..7) as u32,
        }
    }

    /// Derives a **faulted large-fabric** scenario: the same 100+ device
    /// shapes as [`SoakScenario::large_from_seed`], with a mid-run fault
    /// schedule layered on top — one to three `BridgeDown`/`LinkDown`
    /// events, each paired with its recovery so the fabric reconverges
    /// and traffic can drain. The base scenario (shape, mix, aging,
    /// loss) is exactly the fault-free large draw for the same seed, so
    /// a faulted run that stalls is directly comparable against its
    /// known-good twin.
    ///
    /// Faults force live election (a downed root must be re-elected)
    /// and clear [`SoakScenario::must_finish`]: a large fabric's
    /// reconvergence can legitimately outlast the run budget, and the
    /// soak's assertion on these runs is determinism and
    /// no-stuck-invariants, not completion.
    pub fn large_faulted_from_seed(seed: u64) -> SoakScenario {
        let mut base = SoakScenario::large_from_seed(seed);
        // Distinct stream from both the regular and the large draw:
        // "FAULT" spelled in ASCII.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0046_4155_4c54);
        let topo = base.shape.build();
        let devices = topo.bridges();
        let mut faults: Vec<(SimDuration, FabricEvent)> = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let at = SimDuration::from_millis(rng.gen_range(20..200));
            let back = at + SimDuration::from_millis(rng.gen_range(30..120));
            let d = rng.gen_range(0..devices as u64) as usize;
            if rng.gen_range(0..2) == 0 {
                faults.push((at, FabricEvent::BridgeDown(d)));
                faults.push((back, FabricEvent::BridgeUp(d)));
            } else {
                let ports = topo.ports(d);
                let segment = ports[rng.gen_range(0..ports.len() as u64) as usize];
                faults.push((at, FabricEvent::LinkDown { device: d, segment }));
                faults.push((back, FabricEvent::LinkUp { device: d, segment }));
            }
        }
        faults.sort_by_key(|(at, _)| *at);
        base.faults = faults;
        base.election_live = true;
        base
    }

    /// Segments in the drawn topology.
    pub fn segments(&self) -> usize {
        self.shape.build().segments()
    }

    /// Bridge devices in the drawn topology.
    pub fn devices(&self) -> usize {
        self.shape.build().bridges()
    }

    /// The drawn topology itself (fault-injection tests inspect device
    /// port sets).
    pub fn topology(&self) -> BridgeTopology {
        self.shape.build()
    }

    /// Counting pairs the `Pairs`/`Mixed` mixes deploy: one per
    /// adjacent-segment pair, capped so a 256-segment fabric gets a
    /// bounded process population (every regular-size scenario is far
    /// below either cap — its digests are untouched).
    ///
    /// Large fabrics take the lower cap. It was sized for holder
    /// re-broadcast, whose load grew with the published-page count and
    /// which read leases have replaced; it stays because it fixes the
    /// page space and the deployed pairs, so changing it would redraw
    /// every large-fabric scenario and its digest.
    pub(crate) fn pair_count(&self) -> usize {
        let cap = if self.segments() >= 64 { 12 } else { 24 };
        (self.segments() / 2).min(cap)
    }

    /// Polling readers the `PublisherReaders`/`Mixed` mixes deploy,
    /// capped like `SoakScenario::pair_count`; readers land on the
    /// first remote segments, so on a mesh the publisher's page still
    /// crosses many devices.
    pub(crate) fn reader_count(&self) -> usize {
        self.segments().saturating_sub(1).min(24)
    }

    /// True when the run must complete within [`SoakScenario::limits`]:
    /// no faults, so nothing can legitimately stall it. Lossy runs
    /// *must* finish too — the hardened profile's retransmission timer
    /// re-sends a blocked waiter's request and is a spinning reader's
    /// lease, so no waiter is stranded by a lost frame.
    pub fn must_finish(&self) -> bool {
        self.faults.is_empty()
    }

    /// The bound on every soak run: far above any legitimate
    /// completion, low enough that a stranded faulted run costs CI
    /// nothing.
    ///
    /// The budget scales with `target` because the cost model runs at
    /// the paper's hardware pace — a context switch is milliseconds, a
    /// purge broadcast ~10ms, serving one request ~13ms — so a single
    /// P5 round trip across the fabric is ~35ms and a publisher cycle
    /// ~15ms plus serving its readers. Lossy runs get a 4× budget: a
    /// lost waking broadcast costs a retransmission timeout or a read
    /// lease (tens of milliseconds each; a write's timeout doubles per
    /// attempt) per round, and those waits serialize across a mixed
    /// workload. Events stay sparse (thousands, not millions),
    /// so a long sim-time bound is still cheap to run.
    pub fn limits(&self) -> RunLimits {
        // Large fabrics get a bigger budget per unit of work: a request
        // → reply round trip grows with tree depth (a 200-segment
        // random tree or the 16×16 mesh is 10–30 forwarding hops, not
        // 1–2), and live elections need tens of milliseconds to first
        // converge before request routing settles.
        let large = self.segments() >= 64;
        let (base, per_target) = match (self.loss > 0.0, large) {
            (false, false) => (300, 100),
            (true, false) => (1_200, 400),
            (false, true) => (2_000, 500),
            (true, true) => (4_000, 1_000),
        };
        // A live election also ticks every device each millisecond, so
        // the event budget must scale with the device count for the cap
        // to keep meaning "stuck", not "big". Every regular-size
        // scenario stays on the old 5M floor.
        let max_events = 5_000_000u64.max(self.devices() as u64 * 60_000);
        RunLimits {
            max_sim_time: SimDuration::from_millis(base + per_target * u64::from(self.target)),
            max_events,
        }
    }

    /// The fabric configuration both engines deploy: the drawn shape
    /// and aging, and live election when the scenario wants it.
    pub(crate) fn fabric_config(&self) -> FabricConfig {
        let mut fabric = FabricConfig::new(self.shape.build()).with_aging(self.aging);
        if self.election_live {
            // Sparse hellos keep each hello's wire cost O(1) in fabric
            // size; the device-scaled cadence keeps large fabrics from
            // spending their 10 Mbit/s segments on control traffic
            // (at ≤ 32 devices it is the stock 1 ms `live()`).
            fabric = fabric.with_election(ElectionMode::live_scaled(self.devices()));
        }
        fabric
    }

    /// Builds the deployment: fabric, ether, workloads, and the fault
    /// schedule, all from the derived fields.
    pub fn build(&self) -> Simulation {
        let fabric = self.fabric_config();
        let segments = fabric.topology.segments();
        let hps = self.hosts_per_segment;
        let mut cfg = SimConfig::paper(segments * hps);
        // The pairs mix addresses pages up to `2 * pair_count` past the
        // segment-striped block; the default 64-page space only covers
        // that on small fabrics.
        cfg.mether.num_pages = cfg
            .mether
            .num_pages
            .max((segments + 2 * self.pair_count()) as u32);
        cfg.ether.loss = self.loss;
        cfg.ether.seed = self.seed;
        // The hardened profile. Its retransmission timer re-sends the
        // requests a dead fabric, a lossy wire, a converging election
        // or an expired interest swallowed, and a reader spinning on a
        // copy whose waking broadcast was lost asks again once its
        // lease (one timeout) runs out. Its NIC coalesces identical
        // queued requests and drops frames about pages the host does
        // not track, so waiters whose timers fire in lockstep and
        // publications do not saturate every server they cross.
        cfg.calib = Calib::hardened();
        cfg.topology = Topology::fabric(fabric);
        let mut sim = Simulation::new(cfg);
        let first_host = |seg: usize| seg * hps;
        if matches!(self.mix, SoakMix::PublisherReaders | SoakMix::Mixed) {
            // Page 0 is homed to segment 0 under striping; the readers
            // sit on every other segment's first host, staggered so
            // their demand faults don't all piggyback on one reply.
            let page = PageId::new(0);
            sim.create_owned(0, page);
            sim.add_process(
                0,
                Box::new(Publisher::paced(
                    page,
                    self.target,
                    SimDuration::from_millis(1),
                )),
            );
            let base = SimDuration::from_millis(4);
            for seg in 1..=self.reader_count() {
                let spacing =
                    base + SimDuration::from_nanos(base.as_nanos() * (seg as u64 - 1) / 4);
                let offset = SimDuration::from_nanos(base.as_nanos() * (seg as u64 - 1) / 3);
                sim.add_process(
                    first_host(seg),
                    Box::new(PollingReader::new(page, self.target, spacing, offset)),
                );
            }
        }
        if matches!(self.mix, SoakMix::Pairs | SoakMix::Mixed) {
            // Pair p counts across segments (2p, 2p+1) on the disjoint
            // pages (2p, 2p+1) + segments — striped home = the right
            // segment, and never page 0 (the publisher's). The parties
            // sit on each segment's *second* host, so a mixed scenario
            // keeps them off the publisher/reader hosts.
            let counting = CountingConfig {
                target: self.target,
                processes: 2,
                spin: SimDuration::from_micros(48),
            };
            for p in 0..self.pair_count() {
                let (seg_a, seg_b) = (2 * p, 2 * p + 1);
                let (host_a, host_b) = (first_host(seg_a) + 1, first_host(seg_b) + 1);
                let page_a = PageId::new((seg_a + segments) as u32);
                let page_b = PageId::new((seg_b + segments) as u32);
                sim.create_owned(host_a, page_a);
                sim.create_owned(host_b, page_b);
                sim.add_process(
                    host_a,
                    Box::new(DisjointPageCounter::protocol5(counting, 0, page_a, page_b)),
                );
                sim.add_process(
                    host_b,
                    Box::new(DisjointPageCounter::protocol5(counting, 1, page_b, page_a)),
                );
                // P5's readers are data-driven: between purges they spin
                // on local stale hits and transmit *nothing* the fabric
                // could learn interest from, so under an aging horizon
                // the partner's waking broadcast would eventually be
                // filtered for good. Static subscriptions are the
                // documented deployment requirement for such consumers
                // (see `Simulation::subscribe_segment`).
                sim.subscribe_segment(page_b, seg_a);
                sim.subscribe_segment(page_a, seg_b);
            }
        }
        for (at, ev) in &self.faults {
            sim.schedule_fabric_event(*at, *ev);
        }
        sim
    }

    /// Builds and runs the scenario (optionally under
    /// [`ParallelMode::Workers`]), forces a final invariant sweep, and
    /// asserts completion when [`SoakScenario::must_finish`] holds. A
    /// faulted run pauses at its last fault event to count what request
    /// routing does after it.
    pub fn run(&self, workers: Option<usize>) -> SoakReport {
        let mut sim = self.build();
        if let Some(w) = workers {
            sim.set_parallel_mode(ParallelMode::Workers(w));
        }
        let (outcome, post_recovery) = match self.faults.last() {
            Some(&(last, _)) => {
                let (outcome, post) = run_past_last_event(&mut sim, last, self.limits());
                (outcome, Some(post))
            }
            None => (sim.run(self.limits()), None),
        };
        sim.check_invariants();
        if self.must_finish() {
            assert!(
                outcome.finished,
                "soak seed {}: clean scenario [{self}] hit its limits \
                 (events={}, wall={})",
                self.seed, outcome.events, outcome.wall,
            );
        }
        SoakReport {
            outcome,
            digest: state_digest(&sim),
            post_recovery,
        }
    }

    /// The pages the scenario's workloads write, in a fixed order —
    /// the cross-engine comparison reads each one's first word.
    pub(crate) fn workload_pages(&self) -> Vec<PageId> {
        let segments = self.segments();
        let mut pages = Vec::new();
        if matches!(self.mix, SoakMix::PublisherReaders | SoakMix::Mixed) {
            pages.push(PageId::new(0));
        }
        if matches!(self.mix, SoakMix::Pairs | SoakMix::Mixed) {
            for p in 0..self.pair_count() {
                pages.push(PageId::new((2 * p + segments) as u32));
                pages.push(PageId::new((2 * p + 1 + segments) as u32));
            }
        }
        pages
    }

    /// The first word of every workload page at end of run, read from
    /// its consistent holder (0 if a page somehow has none).
    fn sim_final_pages(&self, sim: &Simulation) -> Vec<(PageId, u32)> {
        self.workload_pages()
            .into_iter()
            .map(|page| {
                let v = (0..sim.host_count())
                    .find_map(|h| {
                        let t = &sim.host(h).table;
                        if !t.is_consistent_holder(page) {
                            return None;
                        }
                        let buf = t.page_buf(page)?;
                        let word = buf.as_slice().get(..4)?;
                        Some(u32::from_le_bytes(word.try_into().unwrap()))
                    })
                    .unwrap_or(0);
                (page, v)
            })
            .collect()
    }

    /// How long the threaded run may take before its workers give up:
    /// generous against loss-retry stalls, bounded so a partitioned
    /// faulted scenario costs seconds, not a hung test.
    fn runtime_deadline(&self) -> Duration {
        Duration::from_millis(3_000 + 150 * u64::from(self.target))
    }

    /// Executes the scenario on the threaded runtime
    /// ([`mether_runtime::Cluster`]): the same fabric config (aging,
    /// election, reply grace), the same per-segment loss rate,
    /// and the same workload shape — P5 counting pairs and/or a paced
    /// publisher with polling readers — as real blocking threads whose
    /// recovery path is the protocols' own demand-retry loop. Faults
    /// are replayed by a [`FaultPlan`] at the sim schedule's offsets
    /// (1 sim-ms ≙ 1 wall-ms). `finished` means every worker hit its
    /// target before `SoakScenario::runtime_deadline`.
    pub(crate) fn run_runtime(&self) -> RuntimeSoakReport {
        let mut fabric = self.fabric_config();
        if self.election_live {
            // The simulator's default live-election cadence (hello every
            // 1 ms, dead after 4 ms) is virtual time — jitter-free. The
            // runtime maps it 1 ms ≙ 1 wall-ms, where a 4 ms silence is
            // routine scheduler noise on a loaded box; a spuriously
            // "dead" neighbour keeps forwarding on the old tree while
            // the survivors unblock the redundant path, and on a cyclic
            // fabric that closes a forwarding loop — a frame storm.
            // Give the wall-clock fabric a jitter-tolerant cadence.
            fabric = fabric.with_election(ElectionMode::Live {
                hello_interval: SimDuration::from_millis(10),
                hello_timeout: SimDuration::from_millis(100),
                hold_down: SimDuration::from_millis(50),
            });
        }
        let segments = fabric.topology.segments();
        let hps = self.hosts_per_segment;
        let mut lan = LanConfig::fast();
        lan.loss = self.loss;
        lan.seed = self.seed;
        let mut mether = MetherConfig::new();
        mether.num_pages = mether
            .num_pages
            .max((segments + 2 * self.pair_count()) as u32);
        let cluster = Arc::new(
            Cluster::new(ClusterConfig {
                nodes: segments * hps,
                lan,
                mether,
                fabric: Some(fabric),
            })
            .expect("drawn scenarios lay out"),
        );
        let t0 = Instant::now();
        let deadline = t0 + self.runtime_deadline();
        let first_host = |seg: usize| seg * hps;
        let target = self.target;
        let mut workers = Vec::new();
        if matches!(self.mix, SoakMix::PublisherReaders | SoakMix::Mixed) {
            let page = PageId::new(0);
            cluster.node(0).create_owned(page);
            let c = Arc::clone(&cluster);
            workers.push(std::thread::spawn(move || {
                let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
                for i in 1..=target {
                    if Instant::now() >= deadline || c.node(0).write_u32(addr, i).is_err() {
                        return false;
                    }
                    let _ = c.node(0).purge(page, MapMode::Writeable, PageLength::Short);
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            }));
            for seg in 1..=self.reader_count() {
                let c = Arc::clone(&cluster);
                let node = first_host(seg);
                workers.push(std::thread::spawn(move || {
                    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
                    while Instant::now() < deadline {
                        let _ = c
                            .node(node)
                            .purge(page, MapMode::ReadOnly, PageLength::Short);
                        if let Ok(v) = c.node(node).read_u32_timeout(
                            addr,
                            MapMode::ReadOnly,
                            Duration::from_millis(200),
                        ) {
                            if v >= target {
                                return true;
                            }
                        }
                    }
                    false
                }));
            }
        }
        if matches!(self.mix, SoakMix::Pairs | SoakMix::Mixed) {
            for p in 0..self.pair_count() {
                let (seg_a, seg_b) = (2 * p, 2 * p + 1);
                let (host_a, host_b) = (first_host(seg_a) + 1, first_host(seg_b) + 1);
                let page_a = PageId::new((seg_a + segments) as u32);
                let page_b = PageId::new((seg_b + segments) as u32);
                cluster.node(host_a).create_owned(page_a);
                cluster.node(host_b).create_owned(page_b);
                // Same deployment requirement as the simulator: the P5
                // readers are data-driven and transmit nothing a bridge
                // could learn interest from.
                cluster.subscribe_segment(page_b, seg_a);
                cluster.subscribe_segment(page_a, seg_b);
                for (me, node, my_page, other_page) in
                    [(0, host_a, page_a, page_b), (1, host_b, page_b, page_a)]
                {
                    let c = Arc::clone(&cluster);
                    workers.push(std::thread::spawn(move || {
                        p5_runtime_party(&c, node, me, my_page, other_page, target, deadline)
                    }));
                }
            }
        }
        let faults = if self.faults.is_empty() {
            None
        } else {
            let mut plan = FaultPlan::new();
            for (at, ev) in &self.faults {
                plan = plan.at(Duration::from_nanos(at.as_nanos()), *ev);
            }
            let c = Arc::clone(&cluster);
            Some(std::thread::spawn(move || plan.run(&c)))
        };
        // Join every worker (no short-circuit) before folding the verdict.
        let joined: Vec<bool> = workers
            .into_iter()
            .map(|h| h.join().unwrap_or(false))
            .collect();
        let finished = joined.into_iter().all(|ok| ok);
        if let Some(f) = faults {
            let _ = f.join();
        }
        let wall = t0.elapsed();
        let pages = self.runtime_final_pages(&cluster);
        let metrics = runtime_metrics(
            &format!("soak seed {}", self.seed),
            &cluster,
            finished,
            wall,
        );
        RuntimeSoakReport {
            finished,
            wall,
            pages,
            metrics,
        }
    }

    /// `SoakScenario::workload_pages` read back from the cluster's
    /// consistent holders.
    fn runtime_final_pages(&self, cluster: &Cluster) -> Vec<(PageId, u32)> {
        self.workload_pages()
            .into_iter()
            .map(|page| {
                let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
                let v = (0..cluster.len())
                    .find(|&i| cluster.node(i).is_consistent_holder(page))
                    .and_then(|i| {
                        // Local on the holder: never crosses the (possibly
                        // partitioned) fabric.
                        cluster
                            .node(i)
                            .read_u32_timeout(addr, MapMode::Writeable, Duration::from_secs(2))
                            .ok()
                    })
                    .unwrap_or(0);
                (page, v)
            })
            .collect()
    }

    /// Runs the scenario on **both** engines — the discrete-event
    /// simulator (asserting completion when
    /// [`SoakScenario::must_finish`]) and the threaded runtime — and
    /// returns both outcomes plus each engine's final workload-page
    /// words. [`run_cross_engine_soak`] asserts the two agree.
    pub(crate) fn run_cross_engine(&self, workers: Option<usize>) -> CrossEngineReport {
        let mut sim = self.build();
        if let Some(w) = workers {
            sim.set_parallel_mode(ParallelMode::Workers(w));
        }
        let outcome = sim.run(self.limits());
        sim.check_invariants();
        if self.must_finish() {
            assert!(
                outcome.finished,
                "soak seed {}: clean scenario [{self}] hit its limits \
                 (events={}, wall={})",
                self.seed, outcome.events, outcome.wall,
            );
        }
        let sim_pages = self.sim_final_pages(&sim);
        let sim_report = SoakReport {
            outcome,
            digest: state_digest(&sim),
            post_recovery: None,
        };
        let runtime = self.run_runtime();
        CrossEngineReport {
            sim: sim_report,
            sim_pages,
            runtime,
        }
    }
}

/// One P5 counting party on the threaded runtime: the exact loop the
/// simulator's `DisjointPageCounter::protocol5` models — write my page
/// and purge on my turn, else demand-check the partner's page and block
/// data-driven for its transit. Timeouts fall back to the demand check,
/// which is the runtime's natural loss-retry path. Returns whether the
/// party reached `target` before `deadline`.
fn p5_runtime_party(
    c: &Cluster,
    node: usize,
    me: u32,
    my_page: PageId,
    other_page: PageId,
    target: u32,
    deadline: Instant,
) -> bool {
    let my_addr = VAddr::new(my_page, View::short_demand(), 0).unwrap();
    let other_demand = VAddr::new(other_page, View::short_demand(), 0).unwrap();
    let other_data = VAddr::new(other_page, View::short_data(), 0).unwrap();
    let mut last = 0u32;
    while last < target {
        if Instant::now() >= deadline {
            return false;
        }
        if last % 2 == me {
            if c.node(node).write_u32(my_addr, last + 1).is_err() {
                return false;
            }
            let _ = c
                .node(node)
                .purge(my_page, MapMode::Writeable, PageLength::Short);
            last += 1;
            continue;
        }
        if let Ok(v) = c.node(node).read_u32_timeout(
            other_demand,
            MapMode::ReadOnly,
            Duration::from_millis(200),
        ) {
            if v > last {
                last = v;
                continue;
            }
        }
        let _ = c
            .node(node)
            .purge(other_page, MapMode::ReadOnly, PageLength::Short);
        if let Ok(v) =
            c.node(node)
                .read_u32_timeout(other_data, MapMode::ReadOnly, Duration::from_millis(200))
        {
            if v > last {
                last = v;
            }
        }
    }
    true
}

/// A [`ProtocolMetrics`] assembled from a live [`Cluster`]'s counters,
/// so runtime soak reports line up column-for-column with the
/// simulator's: traffic per segment and summed, per-device bridge
/// counters, the injected fault timeline with reconvergence count and
/// measured stall, and NIC-level request coalescing. Cost-model columns
/// the runtime cannot measure (user/sys time, context switches, fault
/// latency) are zero.
pub fn runtime_metrics(
    label: &str,
    cluster: &Cluster,
    finished: bool,
    wall: Duration,
) -> ProtocolMetrics {
    let net_segments: Vec<NetStats> = (0..cluster.segment_count())
        .map(|s| cluster.segment_stats(s))
        .collect();
    let net = NetStats::sum(&net_segments);
    let bridge_devices: Vec<BridgeStats> = (0..cluster.bridge_count())
        .map(|d| cluster.bridge_stats(d))
        .collect();
    let bridge = BridgeStats::sum(bridge_devices.iter().copied());
    let to_sim = |d: Duration| SimDuration::from_nanos(d.as_nanos() as u64);
    let wall_secs = wall.as_secs_f64().max(f64::EPSILON);
    ProtocolMetrics {
        label: label.to_string(),
        finished,
        wall: to_sim(wall),
        user: SimDuration::ZERO,
        sys: SimDuration::ZERO,
        net_load_bps: net.bytes as f64 / wall_secs,
        bytes_per_addition: 0.0,
        net,
        net_segments,
        bridge,
        bridge_devices,
        fabric_events: cluster
            .fabric_timeline()
            .into_iter()
            .map(|(at, ev)| (to_sim(at), ev))
            .collect(),
        fabric_reconvergences: cluster.fabric_reconvergences(),
        reconvergence_stall: cluster.fabric_stall().map(to_sim),
        frames_heard_mean: 0.0,
        frames_heard_max: 0,
        ctx_switches: 0,
        ctx_per_addition: 0.0,
        avg_latency: SimDuration::ZERO,
        losses: 0,
        wins: 0,
        additions: 0,
        space_pages: 0,
        max_server_queue: 0,
        requests_coalesced: cluster.requests_coalesced(),
        requests_piggybacked: 0,
        open_accesses: 0,
        open_faults: 0,
        open_p50: SimDuration::ZERO,
        open_p99: SimDuration::ZERO,
        open_p999: SimDuration::ZERO,
        open_max: SimDuration::ZERO,
        server_queue_high_water: Vec::new(),
        // The threaded runtime has no event-sampled observer; its
        // verification is the cross-engine comparison itself.
        observer: ObserverStats::default(),
    }
}

/// What one soak run produced; two runs of one seed must be equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// [`state_digest`] of the finished simulation.
    pub digest: u64,
    /// What request routing did after the last fault event, for a
    /// faulted run.
    pub post_recovery: Option<PostRecovery>,
}

/// What one scenario produced on the threaded runtime.
#[derive(Debug)]
pub struct RuntimeSoakReport {
    /// Every worker thread reached its target before the deadline.
    pub finished: bool,
    /// Real wall-clock time the workload took.
    pub wall: Duration,
    /// First word of each workload page, read from its consistent
    /// holder after the run.
    pub pages: Vec<(PageId, u32)>,
    /// The cluster's counters in the simulator's report shape.
    pub metrics: ProtocolMetrics,
}

/// One scenario's results on both engines
/// (`SoakScenario::run_cross_engine`).
#[derive(Debug)]
pub struct CrossEngineReport {
    /// The simulator run (outcome + state digest).
    pub sim: SoakReport,
    /// Final workload-page words in the simulator.
    pub sim_pages: Vec<(PageId, u32)>,
    /// The threaded-runtime run.
    pub runtime: RuntimeSoakReport,
}

impl CrossEngineReport {
    /// Both engines agree on whether the workload completed.
    pub(crate) fn outcomes_agree(&self) -> bool {
        self.sim.outcome.finished == self.runtime.finished
    }

    /// Both engines agree on every workload page's final word
    /// (vacuously true only when compared — callers gate on completion).
    pub(crate) fn pages_agree(&self) -> bool {
        self.sim_pages == self.runtime.pages
    }
}

/// Runs `count` **fault-free** scenarios (clean and lossy; faulted
/// seeds are skipped with a notice — their runtime halves have
/// dedicated fault-injection tests) with seeds from `base_seed` upward
/// on both engines, printing each seed before its run, and asserts per
/// scenario that the engines agree: both complete, and every workload
/// page ends on the same word. Returns the seed-tagged reports.
pub fn run_cross_engine_soak(
    base_seed: u64,
    count: usize,
    workers: Option<usize>,
) -> Vec<(u64, CrossEngineReport)> {
    let mut out = Vec::new();
    let mut seed = base_seed;
    while out.len() < count {
        let scenario = SoakScenario::from_seed(seed);
        if !scenario.faults.is_empty() {
            println!("cross-engine soak: skipping faulted seed {seed} [{scenario}]");
            seed = seed.wrapping_add(1);
            continue;
        }
        let i = out.len();
        println!("cross-engine[{i}/{count}] seed={seed}: {scenario}");
        let r = scenario.run_cross_engine(workers);
        println!(
            "cross-engine[{i}/{count}] seed={seed}: sim finished={} runtime finished={} \
             wall={:?} coalesced={}",
            r.sim.outcome.finished,
            r.runtime.finished,
            r.runtime.wall,
            r.runtime.metrics.requests_coalesced,
        );
        assert!(
            r.runtime.finished,
            "seed {seed}: runtime half of [{scenario}] missed its deadline"
        );
        assert!(
            r.outcomes_agree(),
            "seed {seed}: engines disagree on completion"
        );
        assert!(
            r.pages_agree(),
            "seed {seed}: final page words diverge\n  sim: {:?}\n  runtime: {:?}",
            r.sim_pages,
            r.runtime.pages
        );
        out.push((seed, r));
        seed = seed.wrapping_add(1);
    }
    out
}

/// An order-sensitive FNV-1a digest over everything the replay tests
/// pin: per-host scheduler counters, per-page generations, holder and
/// lock bits, page bytes, and per-segment traffic counters. Two runs of
/// one seed — serial or Workers, today or next year — must produce the
/// same value.
pub fn state_digest(sim: &Simulation) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for i in 0..sim.host_count() {
        let host = sim.host(i);
        mix(host.ctx_switches);
        mix(host.frames_heard);
        mix(host.server_time.as_nanos());
        mix(host.max_server_queue as u64);
        for page in host.table.tracked_pages() {
            mix(page.index() as u64);
            mix(host.table.generation(page).0);
            mix(host.table.is_consistent_holder(page) as u64);
            mix(host.table.is_locked(page) as u64);
            if let Some(buf) = host.table.page_buf(page) {
                mix(buf.valid_len() as u64);
                for chunk in buf.as_slice().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    mix(u64::from_le_bytes(word));
                }
            }
        }
    }
    for seg in 0..sim.segment_count() {
        let s = sim.segment_stats(seg);
        mix(s.packets);
        mix(s.bytes);
        mix(s.lost);
        mix(s.decode_errors);
        mix(s.encode_errors);
        mix(s.control_packets);
    }
    if let Some(b) = sim.bridge_stats() {
        mix(b.forwarded);
        mix(b.filtered);
    }
    h
}

/// `METHER_SOAK_SCENARIOS` (CI sets it to ≥ 50), else `default`.
pub fn scenario_count_from_env(default: usize) -> usize {
    std::env::var("METHER_SOAK_SCENARIOS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// `METHER_SOAK_SEED` (to replay a CI batch locally), else `default`.
pub fn base_seed_from_env(default: u64) -> u64 {
    std::env::var("METHER_SOAK_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Runs `count` scenarios with seeds `base_seed..base_seed + count`,
/// printing each seed and scenario **before** its run (so a panicked
/// run leaves its reproducer behind) and a digest line after. Returns
/// every report, seed-tagged.
pub fn run_soak(base_seed: u64, count: usize, workers: Option<usize>) -> Vec<(u64, SoakReport)> {
    (0..count)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            let scenario = SoakScenario::from_seed(seed);
            println!("soak[{i}/{count}] seed={seed}: {scenario}");
            let report = scenario.run(workers);
            println!(
                "soak[{i}/{count}] seed={seed}: finished={} events={} wall={} digest={:016x}",
                report.outcome.finished, report.outcome.events, report.outcome.wall, report.digest,
            );
            (seed, report)
        })
        .collect()
}

/// [`run_soak`] over the **large-fabric** generator
/// ([`SoakScenario::large_from_seed`]): 100+ device shapes, simulator
/// only (the threaded runtime would need 500+ real threads), every run
/// asserted to complete (large scenarios are fault-free). Seeds print
/// before each run, so a panic leaves its reproducer on the console.
pub fn run_large_soak(
    base_seed: u64,
    count: usize,
    workers: Option<usize>,
) -> Vec<(u64, SoakReport)> {
    (0..count)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            let scenario = SoakScenario::large_from_seed(seed);
            println!(
                "large-soak[{i}/{count}] seed={seed} devices={}: {scenario}",
                scenario.devices()
            );
            let report = scenario.run(workers);
            println!(
                "large-soak[{i}/{count}] seed={seed}: finished={} events={} wall={} digest={:016x}",
                report.outcome.finished, report.outcome.events, report.outcome.wall, report.digest,
            );
            (seed, report)
        })
        .collect()
}

/// [`run_large_soak`] over the **faulted** large-fabric generator
/// ([`SoakScenario::large_faulted_from_seed`]): 100+ device shapes with
/// mid-run bridge/link faults and paired recoveries. Completion is not
/// asserted (reconvergence can outlast the budget); determinism is —
/// the digest line prints after every run so CI can pin it, followed by
/// what request routing did after the last recovery.
pub fn run_large_faulted_soak(
    base_seed: u64,
    count: usize,
    workers: Option<usize>,
) -> Vec<(u64, SoakReport)> {
    (0..count)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            let scenario = SoakScenario::large_faulted_from_seed(seed);
            println!(
                "large-faulted-soak[{i}/{count}] seed={seed} devices={} faults={}: {scenario}",
                scenario.devices(),
                scenario.faults.len(),
            );
            let report = scenario.run(workers);
            println!(
                "large-faulted-soak[{i}/{count}] seed={seed}: finished={} events={} wall={} digest={:016x}",
                report.outcome.finished, report.outcome.events, report.outcome.wall, report.digest,
            );
            if let Some(post) = report.post_recovery {
                println!("large-faulted-soak[{i}/{count}] seed={seed}: {post}");
            }
            (seed, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_seed_deterministic() {
        for seed in 0..64 {
            assert_eq!(
                SoakScenario::from_seed(seed),
                SoakScenario::from_seed(seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn scenario_space_is_actually_random() {
        // The derivation must cover the space: across a small seed
        // range, all six shapes, all three mixes, faulted and clean,
        // lossy and lossless scenarios all appear — including lossy
        // must-finish ones (the read-lease coverage) and
        // graphs with redundant ties.
        let scenarios: Vec<_> = (0..128).map(SoakScenario::from_seed).collect();
        for probe in [
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Star(_))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Chain(_))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Tree(_, _))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Ring(_))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Mesh2d(_, _))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Graph { .. })),
            scenarios
                .iter()
                .any(|s| matches!(&s.shape, SoakShape::Graph { ties, .. } if !ties.is_empty())),
            scenarios.iter().any(|s| s.mix == SoakMix::Pairs),
            scenarios.iter().any(|s| s.mix == SoakMix::PublisherReaders),
            scenarios.iter().any(|s| s.mix == SoakMix::Mixed),
            scenarios.iter().any(|s| s.faults.is_empty()),
            scenarios.iter().any(|s| !s.faults.is_empty()),
            scenarios.iter().any(|s| {
                s.faults
                    .iter()
                    .any(|(_, ev)| matches!(ev, FabricEvent::LinkUp { .. }))
            }),
            scenarios.iter().any(|s| s.loss == 0.0),
            scenarios.iter().any(|s| s.loss > 0.0),
            scenarios.iter().any(|s| s.must_finish() && s.loss > 0.0),
            scenarios.iter().any(
                |s| matches!(s.aging, AgeHorizon::SimTime(d) if d < SimDuration::from_millis(16)),
            ),
        ] {
            assert!(probe);
        }
    }

    #[test]
    fn large_scenarios_are_100_plus_devices_and_deterministic() {
        // Every large seed must hit the device floor the generator
        // exists for, stay fault-free (completion is asserted in CI),
        // and rebuild identically; across a small range all four big
        // shapes appear, including the 16×16 mesh.
        let scenarios: Vec<_> = (0..32).map(SoakScenario::large_from_seed).collect();
        for (seed, s) in scenarios.iter().enumerate() {
            assert!(
                s.devices() >= 100,
                "large seed {seed} drew only {} devices: {s}",
                s.devices()
            );
            assert!(s.faults.is_empty() && s.must_finish(), "large seed {seed}");
            assert_eq!(
                *s,
                SoakScenario::large_from_seed(seed as u64),
                "large seed {seed}"
            );
        }
        for probe in [
            scenarios
                .iter()
                .any(|s| s.shape == SoakShape::Mesh2d(16, 16)),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Ring(_))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Tree(_, _))),
            scenarios
                .iter()
                .any(|s| matches!(s.shape, SoakShape::Graph { .. })),
            scenarios.iter().any(|s| s.election_live),
            scenarios.iter().any(|s| !s.election_live),
            scenarios.iter().any(|s| s.loss > 0.0),
        ] {
            assert!(probe);
        }
    }

    #[test]
    fn faulted_large_scenarios_pair_every_fault_with_recovery() {
        // The faulted large draw layers a fault schedule on the exact
        // fault-free twin: same shape/mix/aging/loss, 1..=3 down events
        // each paired with its recovery, schedule sorted by time,
        // devices and ports real, must_finish cleared, and the whole
        // thing seed-deterministic.
        for seed in 0..32u64 {
            let s = SoakScenario::large_faulted_from_seed(seed);
            let twin = SoakScenario::large_from_seed(seed);
            assert_eq!(s.shape, twin.shape, "seed {seed}");
            assert_eq!(s.mix, twin.mix, "seed {seed}");
            assert_eq!(s.aging, twin.aging, "seed {seed}");
            assert_eq!(s.loss, twin.loss, "seed {seed}");
            assert!(!s.faults.is_empty() && s.faults.len() <= 6, "seed {seed}");
            assert_eq!(s.faults.len() % 2, 0, "seed {seed}: unpaired fault");
            assert!(!s.must_finish(), "seed {seed}");
            assert!(s.election_live, "seed {seed}");
            assert!(
                s.faults.windows(2).all(|w| w[0].0 <= w[1].0),
                "seed {seed}: schedule not sorted"
            );
            let topo = s.shape.build();
            let mut downs = 0usize;
            let mut ups = 0usize;
            for (_, ev) in &s.faults {
                match ev {
                    FabricEvent::BridgeDown(d) | FabricEvent::BridgeUp(d) => {
                        assert!(*d < topo.bridges(), "seed {seed}");
                    }
                    FabricEvent::LinkDown { device, segment }
                    | FabricEvent::LinkUp { device, segment } => {
                        assert!(topo.ports(*device).contains(segment), "seed {seed}");
                    }
                }
                match ev {
                    FabricEvent::BridgeDown(_) | FabricEvent::LinkDown { .. } => downs += 1,
                    _ => ups += 1,
                }
            }
            assert_eq!(downs, ups, "seed {seed}: recovery missing");
            assert_eq!(
                s,
                SoakScenario::large_faulted_from_seed(seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn workload_caps_leave_regular_scenarios_alone() {
        // The pair/reader caps exist for the large generator; every
        // regular-size seed must sit strictly below them, or the caps
        // would have moved pinned digests.
        for seed in 0..256 {
            let s = SoakScenario::from_seed(seed);
            let segments = s.segments();
            assert_eq!(s.pair_count(), segments / 2, "seed {seed}");
            assert_eq!(s.reader_count(), segments - 1, "seed {seed}");
        }
    }

    #[test]
    fn fault_schedules_name_real_devices_and_ports() {
        for seed in 0..256 {
            let s = SoakScenario::from_seed(seed);
            let topo = s.shape.build();
            for (at, ev) in &s.faults {
                assert!(*at < s.limits().max_sim_time, "seed {seed}");
                match ev {
                    FabricEvent::BridgeDown(d) | FabricEvent::BridgeUp(d) => {
                        assert!(*d < topo.bridges(), "seed {seed}: {ev:?}");
                    }
                    FabricEvent::LinkDown { device, segment }
                    | FabricEvent::LinkUp { device, segment } => {
                        assert!(
                            topo.ports(*device).contains(segment),
                            "seed {seed}: {ev:?} names a port the device lacks"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clean_scenario_finishes_and_replays_identically() {
        // The first must-finish seed: completion is asserted inside
        // run(), and a second run must reproduce the digest exactly.
        let seed = (0..)
            .find(|&s| SoakScenario::from_seed(s).must_finish())
            .unwrap();
        let scenario = SoakScenario::from_seed(seed);
        let a = scenario.run(None);
        let b = scenario.run(None);
        assert!(a.outcome.finished);
        assert_eq!(a, b, "seed {seed} must replay byte-identically");
    }

    #[test]
    fn soak_smoke_batch() {
        // A tiny always-on batch; CI runs the real ≥50-scenario batch
        // through the integration test with METHER_SOAK_SCENARIOS set.
        let reports = run_soak(0, 4, None);
        assert_eq!(reports.len(), 4);
    }

    #[test]
    fn cross_engine_smoke() {
        // One clean scenario end to end on both engines; the full ≥25
        // batch runs through the integration suite / CI.
        let reports = run_cross_engine_soak(0, 1, None);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.outcomes_agree() && reports[0].1.pages_agree());
    }
}
