//! The open-loop traffic engine: deterministic arrival-driven load with
//! fault-latency SLO reporting.
//!
//! A closed-loop workload (every process waits for its last access
//! before issuing the next) measures *throughput degradation* under
//! load; it cannot measure *latency* under load, because a slow server
//! slows the offered rate down with it — the classic coordinated-
//! omission trap. This module drives the simulator open-loop instead:
//! accesses arrive on a seeded stochastic schedule ([`ArrivalProcess`])
//! regardless of what earlier accesses are doing, each demand fault is
//! stamped at issue and at satisfaction, and the latency distribution
//! lands in a fixed-bucket log-scale histogram
//! ([`mether_sim::LatencyHistogram`]) with no hot-path allocation, so
//! runs of millions of accesses report honest p50/p99/p999 tails.
//!
//! **Arrival processes.** [`ArrivalProcess::Poisson`] draws
//! exponentially distributed inter-arrival gaps (`-mean · ln(u)`, the
//! memoryless process the open-systems literature defaults to);
//! [`ArrivalProcess::Uniform`] draws gaps uniformly from a closed range
//! (bounded burstiness, useful for pinning a deterministic bandwidth).
//! Both are pure functions of the per-host seed, so a scenario replays
//! bit-identically — serial or under `ParallelMode::Workers(n)`.
//!
//! **Page popularity.** Target pages are drawn rank-by-rank from a
//! Zipf distribution (`weight(k) ∝ 1/k^s`, precomputed CDF + binary
//! search). Pages are striped across home segments at creation, so a
//! skewed exponent concentrates demand on a few *hot home segments* —
//! exactly the hotspot whose server queue depth the report's
//! per-segment high-water column makes visible.
//!
//! **Profile.** Every scenario runs the hardened calibration
//! ([`mether_sim::Calib::hardened`]): the fault retransmission timer,
//! the NIC filter, and serve-time piggybacking, which shortens the hot
//! home's serving path. There is no per-scenario switch.
//!
//! **SLO report.** [`OpenLoopScenario::run`] returns an
//! [`OpenLoopReport`]: issue/hit/fault counts, fault-latency
//! percentiles (p50/p99/p999/max), serve-time piggyback count, what the
//! fault retransmission timers did (re-sends, spurious ones), server
//! time per access by kind of work, events popped per access by kind,
//! the per-home-segment queue high-water vector, and a deterministic digest
//! ([`mether_sim::Simulation::open_loop_digest`]) the regression tests
//! pin. Display prints one line per column so CI logs read as a table.

use mether_core::{MapMode, NicDrop, PageId, View};
use mether_net::{FabricConfig, SimDuration, SimTime};
use mether_sim::{
    ArrivalStream, Calib, EventKind, EventPops, OpenAccess, ParallelMode, RunLimits, RunOutcome,
    ServerKind, ServerTally, SimConfig, Simulation, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// The stochastic inter-arrival schedule of one open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponentially distributed gaps with this mean.
    Poisson(SimDuration),
    /// Uniform gaps drawn from the closed range `[lo, hi]`.
    Uniform(SimDuration, SimDuration),
}

impl ArrivalProcess {
    /// Draws the next inter-arrival gap.
    fn gap(&self, rng: &mut StdRng) -> SimDuration {
        match *self {
            ArrivalProcess::Poisson(mean) => {
                // gen::<f64>() is in [0, 1); flip it into (0, 1] so the
                // log is finite. Gap = -mean · ln(u).
                let u = 1.0 - rng.gen::<f64>();
                SimDuration::from_nanos((mean.as_nanos() as f64 * -u.ln()) as u64)
            }
            ArrivalProcess::Uniform(lo, hi) => {
                let (lo, hi) = (lo.as_nanos(), hi.as_nanos());
                SimDuration::from_nanos(lo + rng.gen_range(0..hi - lo + 1))
            }
        }
    }

    /// The mean gap (for sizing run budgets).
    fn mean(&self) -> SimDuration {
        match *self {
            ArrivalProcess::Poisson(mean) => mean,
            ArrivalProcess::Uniform(lo, hi) => {
                SimDuration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2)
            }
        }
    }
}

/// Precomputed Zipf CDF over page popularity ranks: `weight(k) ∝
/// 1/(k+1)^s`. Shared (via [`Arc`]) by every host's stream, computed
/// once per scenario.
#[derive(Debug)]
struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    fn new(ranks: usize, s: f64) -> ZipfCdf {
        assert!(ranks > 0, "zipf over an empty page set");
        let mut cdf: Vec<f64> = Vec::with_capacity(ranks);
        let mut acc = 0.0;
        for k in 0..ranks {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfCdf { cdf }
    }

    /// Draws a rank in `0..ranks` by binary search over the CDF.
    fn draw(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Knobs of an open-loop run, independent of topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Seed of the whole run. Per-host streams derive their own RNGs
    /// from it, so one seed pins the entire arrival schedule.
    pub seed: u64,
    /// Accesses each driven host injects before its stream ends.
    pub accesses_per_host: u64,
    /// Inter-arrival schedule (same process on every driven host).
    pub arrivals: ArrivalProcess,
    /// Page universe size; pages are striped across home segments.
    pub pages: u32,
    /// Zipf popularity exponent (`0` = uniform; larger = hotter head).
    pub zipf_exponent: f64,
    /// Fraction of accesses that map writeable (consistency migrates);
    /// the rest are cold reads through the demand-fetch path.
    pub write_fraction: f64,
}

impl OpenLoopConfig {
    /// A seeded config with the defaults the benches and CI SLO jobs
    /// use: 200 accesses per host at a 300 ms mean Poisson pace over 64
    /// pages, Zipf 1.1, 10% writes — hot enough that the skewed head
    /// queues at its home server, cold enough that the queue drains
    /// (the paper-pace server serves one request per ~13 ms, so a 32
    /// host deployment saturates a hot home well before the offered
    /// load looks large).
    pub fn seeded(seed: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            seed,
            accesses_per_host: 200,
            arrivals: ArrivalProcess::Poisson(SimDuration::from_millis(300)),
            pages: 64,
            zipf_exponent: 1.1,
            write_fraction: 0.1,
        }
    }
}

/// One host's arrival stream: seeded RNG, arrival process, shared Zipf
/// CDF. Implements the simulator's [`ArrivalStream`] contract
/// (non-decreasing arrival times, `None` at exhaustion).
struct OpenLoopStream {
    rng: StdRng,
    next_at: SimTime,
    remaining: u64,
    arrivals: ArrivalProcess,
    zipf: Arc<ZipfCdf>,
    pages: u32,
    write_fraction: f64,
}

impl ArrivalStream for OpenLoopStream {
    fn next_access(&mut self) -> Option<OpenAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let at = self.next_at;
        self.next_at = at + self.arrivals.gap(&mut self.rng);
        let page = PageId::new(self.zipf.draw(&mut self.rng) as u32 % self.pages);
        let write = self.rng.gen::<f64>() < self.write_fraction;
        Some(OpenAccess {
            at,
            page,
            view: View::short_demand(),
            mode: if write {
                MapMode::Writeable
            } else {
                MapMode::ReadOnly
            },
            // Reads are cold (stale local copies dropped at issue) so a
            // read-mostly stream keeps exercising the demand-fetch path
            // instead of going all-hits once copies are installed.
            cold: !write,
        })
    }
}

/// The topology classes the SLO jobs pin ceilings for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenLoopShape {
    /// Balanced tree of 4 segments × 8 hosts (32 hosts, 3 devices).
    Tree4x8,
    /// 16×16 segment mesh, 2 hosts per segment (512 hosts, 480
    /// devices), static election.
    Mesh16x16,
}

impl OpenLoopShape {
    fn fabric(self) -> FabricConfig {
        match self {
            OpenLoopShape::Tree4x8 => FabricConfig::tree(4, 2),
            // Requests grow with mesh distance, not with the 480
            // devices — a cold one too: with no belief it walks toward
            // the page's home, where the static tree and the at-home
            // creation below put its holder.
            OpenLoopShape::Mesh16x16 => {
                FabricConfig::new(mether_core::BridgeTopology::mesh2d(16, 16))
            }
        }
    }

    fn hosts_per_segment(self) -> usize {
        match self {
            OpenLoopShape::Tree4x8 => 8,
            OpenLoopShape::Mesh16x16 => 2,
        }
    }

    /// On the tree every host drives a stream; on the mesh one driver
    /// per segment keeps the event volume bounded while traffic still
    /// crosses the whole fabric.
    fn drives(self, host: usize, hps: usize) -> bool {
        match self {
            OpenLoopShape::Tree4x8 => true,
            OpenLoopShape::Mesh16x16 => host % hps == 1,
        }
    }

    fn label(self) -> &'static str {
        match self {
            OpenLoopShape::Tree4x8 => "tree-4x8",
            OpenLoopShape::Mesh16x16 => "mesh-16x16",
        }
    }
}

/// An open-loop deployment: shape × config, on the hardened profile
/// ([`mether_sim::Calib::hardened`]).
#[derive(Debug, Clone)]
pub struct OpenLoopScenario {
    /// Topology class.
    pub shape: OpenLoopShape,
    /// Arrival/popularity knobs.
    pub cfg: OpenLoopConfig,
}

impl OpenLoopScenario {
    /// The 4×8 tree scenario: 32 hosts, every one driving a stream, 64
    /// pages striped over 4 home segments. The skewed head lands ~30%
    /// of all demand on one home server (13 ms per serve at paper
    /// pace), which is what builds the queues the serving
    /// optimizations are measured against.
    pub fn tree_4x8(cfg: OpenLoopConfig) -> OpenLoopScenario {
        OpenLoopScenario {
            shape: OpenLoopShape::Tree4x8,
            cfg,
        }
    }

    /// The 16×16 mesh scenario: 256 segments, one driver per segment,
    /// pages striped across all 256 homes, static election (a live
    /// election's control plane would dominate the measurement). The
    /// mesh diameter puts ~30 store-and-forward hops under the worst
    /// request, so its tail is transit-dominated rather than
    /// queue-dominated — the complementary SLO class to the tree.
    pub fn mesh_16x16(mut cfg: OpenLoopConfig) -> OpenLoopScenario {
        // Spread the universe over all 256 homes and slow the per-host
        // pace. The rank-1 Zipf page draws ~18% of ALL demand; at the
        // paper's 13 ms per serve the hot home saturates near 75
        // aggregate req/s, and past saturation the queue grows without
        // bound whatever the retransmission timer does. 256 drivers at
        // a 2.5 s mean offer ~100 req/s total, ~19 req/s at the hot home
        // (utilisation ~0.25): loaded enough to queue, far from
        // collapse.
        cfg.pages = cfg.pages.max(256);
        cfg.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(2_500));
        cfg.accesses_per_host = cfg.accesses_per_host.min(30);
        OpenLoopScenario {
            shape: OpenLoopShape::Mesh16x16,
            cfg,
        }
    }

    /// The scenario unchanged: serve-time piggybacking is part of the
    /// hardened profile every scenario runs. Kept only because the
    /// frozen benchmark (`e2e/src/simwl.rs`) calls it on every
    /// open-loop scenario; ROADMAP item 12's probe deletes it.
    #[must_use]
    pub fn with_piggyback(self) -> OpenLoopScenario {
        self
    }

    /// Scenario label for reports: the shape.
    pub fn label(&self) -> String {
        self.shape.label().to_string()
    }

    /// Builds the deployment: fabric, striped pages owned at their home
    /// segment's first host, and one arrival stream per driven host.
    pub fn build(&self) -> Simulation {
        let fabric = self.shape.fabric();
        let segments = fabric.topology.segments();
        let hps = self.shape.hosts_per_segment();
        let mut cfg = SimConfig::paper(segments * hps);
        cfg.mether.num_pages = cfg.mether.num_pages.max(self.cfg.pages);
        cfg.ether.seed = self.cfg.seed;
        // The hardened profile: the fault retransmission timer (each
        // host's measured round trip, never under 20 ms) re-sends
        // requests a converging fabric filtered or a migrating page
        // left unanswered, the NIC (`PageTable::admit`) keeps those
        // re-sends from duplicating server work at enqueue time, and
        // serve-time piggybacking drops the queued duplicates that
        // arrived *during* a serve burst. Open-loop reads are cold and a
        // woken open-loop waiter is done, so no copy is read and the NIC
        // lets no refresh in.
        cfg.calib = Calib::hardened();
        cfg.topology = Topology::fabric(fabric);
        let mut sim = Simulation::new(cfg);
        for p in 0..self.cfg.pages {
            // Striped homes: page p belongs to segment p % segments;
            // owning it at the home's first host makes that host the
            // page's initial server.
            let home = (p as usize % segments) * hps;
            sim.create_owned(home, PageId::new(p));
        }
        let zipf = Arc::new(ZipfCdf::new(
            self.cfg.pages as usize,
            self.cfg.zipf_exponent,
        ));
        for host in 0..segments * hps {
            if !self.shape.drives(host, hps) {
                continue;
            }
            // Independent per-host RNG: the multiplicative spread keeps
            // xor-adjacent host indices from producing correlated
            // SplitMix streams.
            let host_seed = self
                .cfg
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(host as u64 + 1));
            let mut rng = StdRng::seed_from_u64(host_seed);
            let first_gap = self.cfg.arrivals.gap(&mut rng);
            sim.attach_open_loop(
                host,
                Box::new(OpenLoopStream {
                    rng,
                    next_at: SimTime::ZERO + first_gap,
                    remaining: self.cfg.accesses_per_host,
                    arrivals: self.cfg.arrivals,
                    zipf: Arc::clone(&zipf),
                    pages: self.cfg.pages,
                    write_fraction: self.cfg.write_fraction,
                }),
            );
        }
        sim
    }

    /// Run budget: four times the expected stream length plus a flat
    /// drain allowance, far above any healthy run.
    pub fn limits(&self) -> RunLimits {
        let expected = self
            .cfg
            .arrivals
            .mean()
            .saturating_mul(self.cfg.accesses_per_host);
        RunLimits {
            max_sim_time: expected.saturating_mul(4) + SimDuration::from_secs(30),
            max_events: 50_000_000,
        }
    }

    /// Builds and runs the scenario (optionally under
    /// [`ParallelMode::Workers`]), sweeps the invariant observer, and
    /// assembles the SLO report.
    pub fn run(&self, workers: Option<usize>) -> OpenLoopReport {
        let mut sim = self.build();
        if let Some(w) = workers {
            sim.set_parallel_mode(ParallelMode::Workers(w));
        }
        let outcome = sim.run(self.limits());
        sim.check_invariants();
        let hist = sim.open_loop_hist();
        let (mut accesses, mut hits, mut faults, mut piggybacked) = (0u64, 0u64, 0u64, 0u64);
        let (mut forwarded, mut retransmits, mut spurious) = (0u64, 0u64, 0u64);
        let mut filtered = [0u64; NicDrop::ALL.len()];
        let mut server = ServerTally::default();
        let mut busiest = 0;
        for h in 0..sim.host_count() {
            let host = sim.host(h);
            let (i, ht, f) = host.open_counts();
            accesses += i;
            hits += ht;
            faults += f;
            piggybacked += host.requests_piggybacked;
            forwarded += host.requests_forwarded;
            for (sum, n) in filtered.iter_mut().zip(host.frames_filtered) {
                *sum += n;
            }
            retransmits += host.fault_retransmits;
            spurious += host.spurious_retransmits;
            server.merge(&host.server_work);
            if host.fault_retransmits > sim.host(busiest).fault_retransmits {
                busiest = h;
            }
        }
        let busiest_timer = sim.host(busiest).fault_rto().map(|rto| BusiestTimer {
            host: busiest,
            srtt: rto.srtt_ns().map(SimDuration::from_nanos),
            rto: SimDuration::from_nanos(rto.rto_ns()),
        });
        OpenLoopReport {
            label: self.label(),
            outcome,
            accesses,
            hits,
            faults,
            piggybacked,
            forwarded,
            filtered,
            retransmits,
            spurious,
            busiest_timer,
            server,
            pops: sim.event_stats().pops,
            p50: SimDuration::from_nanos(hist.percentile(0.50)),
            p99: SimDuration::from_nanos(hist.percentile(0.99)),
            p999: SimDuration::from_nanos(hist.percentile(0.999)),
            max: SimDuration::from_nanos(hist.max()),
            queue_high_water: sim.server_queue_high_water(),
            digest: sim.open_loop_digest(),
        }
    }
}

/// What one open-loop run measured. Two runs of one scenario (one lane
/// or one per segment) must produce equal reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopReport {
    /// Scenario label ([`OpenLoopScenario::label`]).
    pub label: String,
    /// How the run ended (must finish: arrivals are finite).
    pub outcome: RunOutcome,
    /// Accesses issued across all streams.
    pub accesses: u64,
    /// Accesses satisfied locally (no fault).
    pub hits: u64,
    /// Demand faults stamped into the histogram.
    pub faults: u64,
    /// Queued duplicate requests dropped at serve time.
    pub piggybacked: u64,
    /// Queued consistent requests a holder re-sent toward the host it
    /// had just granted the page to (`HostSim::requests_forwarded`,
    /// summed).
    pub forwarded: u64,
    /// Frames host NICs dropped, indexed by `NicDrop as usize`
    /// (`HostSim::frames_filtered`, summed).
    pub filtered: [u64; NicDrop::ALL.len()],
    /// Requests re-sent because a fault's retransmission timer fired
    /// first (`HostSim::fault_retransmits`, summed).
    pub retransmits: u64,
    /// Retransmitted faults whose reply came too soon after the re-send
    /// to have been caused by it (`HostSim::spurious_retransmits`,
    /// summed): timer fires on requests that were merely still queued.
    pub spurious: u64,
    /// Where the retransmission timer of the host that re-sent most
    /// ended the run.
    pub busiest_timer: Option<BusiestTimer>,
    /// Server items and time by kind of work (`HostSim::server_work`,
    /// summed); [`OpenLoopReport::server_time_per_access`] divides it.
    pub server: ServerTally,
    /// Events the run popped, by kind (`EventStats::pops`).
    pub pops: EventPops,
    /// Median fault latency.
    pub p50: SimDuration,
    /// 99th-percentile fault latency.
    pub p99: SimDuration,
    /// 99.9th-percentile fault latency (the SLO ceiling CI pins).
    pub p999: SimDuration,
    /// Worst fault latency observed.
    pub max: SimDuration,
    /// Per-home-segment server-queue high-water marks.
    pub queue_high_water: Vec<u64>,
    /// Deterministic digest of the whole run
    /// ([`mether_sim::Simulation::open_loop_digest`]).
    pub digest: u64,
}

/// The retransmission-timeout estimator of one host at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusiestTimer {
    /// The host (lowest index among those that re-sent most).
    pub host: usize,
    /// Its smoothed fault round trip, if any fault gave a sample.
    pub srtt: Option<SimDuration>,
    /// Its timeout before backoff.
    pub rto: SimDuration,
}

impl OpenLoopReport {
    /// Server time spent on `kind` of work per access, over all hosts.
    pub fn server_time_per_access(&self, kind: ServerKind) -> SimDuration {
        SimDuration::from_nanos(self.server.time(kind).as_nanos() / self.accesses.max(1))
    }

    /// The deepest home-segment queue seen, with its segment index.
    pub(crate) fn hottest_segment(&self) -> (usize, u64) {
        self.queue_high_water
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, d)| d)
            .unwrap_or((0, 0))
    }
}

impl fmt::Display for OpenLoopReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (seg, depth) = self.hottest_segment();
        writeln!(
            f,
            "{}: finished={} events={} sim-time={}",
            self.label, self.outcome.finished, self.outcome.events, self.outcome.wall
        )?;
        writeln!(
            f,
            "  accesses={} hits={} faults={} piggybacked={} forwarded={}",
            self.accesses, self.hits, self.faults, self.piggybacked, self.forwarded
        )?;
        writeln!(
            f,
            "  fault latency p50={} p99={} p999={} max={}",
            self.p50, self.p99, self.p999, self.max
        )?;
        write!(
            f,
            "  retransmits={} spurious={}",
            self.retransmits, self.spurious
        )?;
        if let Some(t) = self.busiest_timer {
            write!(f, "; host {} re-sent most, ends at srtt=", t.host)?;
            match t.srtt {
                Some(srtt) => write!(f, "{srtt}")?,
                None => write!(f, "unsampled")?,
            }
            write!(f, " rto={}", t.rto)?;
        }
        writeln!(f)?;
        write!(f, "  server per access (items, ms):")?;
        for kind in ServerKind::ALL {
            write!(
                f,
                " {} {:.2} {:.2};",
                kind.label(),
                self.server.items(kind) as f64 / self.accesses.max(1) as f64,
                self.server_time_per_access(kind).as_millis_f64()
            )?;
        }
        writeln!(f)?;
        write!(f, "  events per access:")?;
        for kind in EventKind::ALL {
            let pops = self.pops.get(kind);
            if pops > 0 {
                let per_access = pops as f64 / self.accesses.max(1) as f64;
                write!(f, " {} {per_access:.2};", kind.label())?;
            }
        }
        writeln!(f)?;
        write!(f, "  NIC drops per access:")?;
        for why in NicDrop::ALL {
            let per_access = self.filtered[why as usize] as f64 / self.accesses.max(1) as f64;
            write!(f, " {why:?} {per_access:.2};")?;
        }
        writeln!(f)?;
        write!(
            f,
            "  queue high-water: hottest segment {seg} depth {depth}; digest={:016x}",
            self.digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        for &(ranks, s) in &[(1usize, 1.0f64), (64, 1.1), (256, 0.8), (10, 0.0)] {
            let z = ZipfCdf::new(ranks, s);
            assert_eq!(z.cdf.len(), ranks);
            assert!(
                z.cdf.windows(2).all(|w| w[0] <= w[1]),
                "ranks={ranks} s={s}"
            );
            assert!(
                (z.cdf[ranks - 1] - 1.0).abs() < 1e-12,
                "ranks={ranks} s={s}"
            );
        }
        // s = 0 is uniform: first rank holds 1/ranks of the mass.
        let uniform = ZipfCdf::new(10, 0.0);
        assert!((uniform.cdf[0] - 0.1).abs() < 1e-12);
        // A skewed exponent concentrates the head.
        let skewed = ZipfCdf::new(10, 1.5);
        assert!(skewed.cdf[0] > 0.3);
    }

    #[test]
    fn zipf_draw_covers_and_skews() {
        let z = ZipfCdf::new(8, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 8];
        for _ in 0..10_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "some rank never drawn");
        assert!(counts[0] > counts[7] * 4, "head not hot: {counts:?}");
    }

    #[test]
    fn arrival_gaps_are_deterministic_and_sane() {
        for p in [
            ArrivalProcess::Poisson(SimDuration::from_millis(10)),
            ArrivalProcess::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(6)),
        ] {
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            let mut total = SimDuration::ZERO;
            for _ in 0..1000 {
                let g = p.gap(&mut a);
                assert_eq!(g, p.gap(&mut b));
                if let ArrivalProcess::Uniform(lo, hi) = p {
                    assert!(g >= lo && g <= hi);
                }
                total += g;
            }
            // Sample mean within 20% of the process mean over 1000 draws.
            let mean = p.mean().as_nanos() as f64;
            let sample = total.as_nanos() as f64 / 1000.0;
            assert!((sample - mean).abs() / mean < 0.2, "{p:?}: sample {sample}");
        }
    }

    #[test]
    fn streams_replay_bit_identically() {
        let cfg = OpenLoopConfig::seeded(41);
        let build = || OpenLoopStream {
            rng: StdRng::seed_from_u64(cfg.seed),
            next_at: SimTime::ZERO,
            remaining: 64,
            arrivals: cfg.arrivals,
            zipf: Arc::new(ZipfCdf::new(cfg.pages as usize, cfg.zipf_exponent)),
            pages: cfg.pages,
            write_fraction: cfg.write_fraction,
        };
        let (mut a, mut b) = (build(), build());
        let mut last_at = SimTime::ZERO;
        let mut reads = 0;
        let mut writes = 0;
        loop {
            let (x, y) = (a.next_access(), b.next_access());
            match (x, y) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.at, y.at);
                    assert_eq!(x.page, y.page);
                    assert_eq!(x.mode, y.mode);
                    assert!(x.at >= last_at, "arrival times regressed");
                    last_at = x.at;
                    match x.mode {
                        MapMode::ReadOnly => {
                            assert!(x.cold);
                            reads += 1;
                        }
                        MapMode::Writeable => {
                            assert!(!x.cold);
                            writes += 1;
                        }
                    }
                }
                _ => panic!("streams diverged in length"),
            }
        }
        assert_eq!(reads + writes, 64);
        assert!(
            reads > writes,
            "write_fraction 0.1 produced {writes} writes"
        );
    }
}
