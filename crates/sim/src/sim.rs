//! The discrete-event simulation driver.
//!
//! A [`Simulation`] owns the hosts, the Ethernet segments and the
//! bridge fabric, and advances virtual time by executing events in
//! `(time, tier, insertion sequence)` order. This file holds what a
//! deployment *is* — its configuration, the event vocabulary
//! (`EvKind`) and its ordering key (`Ev`), the per-queue counters —
//! and what can be read off it after a run; the engine that executes
//! the events is `sim/par.rs`, and [`Simulation::run`] lives there.
//! There is one engine and it runs on the calling thread: a run is cut
//! into one lane spanning the whole deployment or, under
//! [`ParallelMode::Workers`], one lane per bridged segment, and the
//! same handlers execute the events either way.
//!
//! Determinism: events at equal times are ordered by tie class and then
//! by a monotonic insertion sequence (same-tick pops are
//! insertion-order, never arbitrary), and all randomness (loss
//! injection) flows from the seed in [`mether_net::EtherConfig`].
//!
//! # Per-transit delivery
//!
//! The paper's central cost argument is that a broadcast DSM keeps host
//! load constant because *the network does the fan-out*: one frame on the
//! Ethernet updates every snooping host, and no machine performs
//! per-recipient work to make that happen. The event engine mirrors this:
//! one broadcast is **one** [`Deliver`](Recipients) event carrying one
//! `Arc<Packet>` plus a [`Recipients`] set, fanned out to the snooping
//! hosts at pop time. The heap holds O(transits) events rather than
//! O(transits × hosts) — on a 16-host broadcast-heavy run the heap (and
//! the push/sift work feeding it) shrinks ~15×, which is exactly the
//! steady-state O(1)-per-broadcast behaviour the paper claims for its
//! hosts.
//!
//! # Multi-segment topologies
//!
//! A [`Topology::Segmented`] deployment splits the hosts into contiguous
//! blocks ([`mether_core::SegmentLayout`]), one bridged Ethernet segment
//! per block. Each segment has its own medium: an independent
//! [`EtherSim`] instance (own carrier state, own loss RNG, own
//! [`mether_net::NetStats`]) — so two segments clock frames out at the
//! same simulated time instead of serialising on a single medium,
//! while event ordering stays globally deterministic.
//!
//! A transit on segment *s* becomes one `Deliver` event whose
//! [`Recipients::Subset`] is *s*'s member bitmask (minus the sender):
//! exactly one segment's snoopers hear it, never the whole cluster. The
//! frame is simultaneously picked up by every bridge device attached to
//! *s* — the routed fabric of [`mether_net::bridge`], a tree of
//! store-and-forward devices whose per-device filters (page homes,
//! learned interest with optional aging, flooded or holder-directed
//! requests) decide which of their ports must hear it. Each forwarded
//! copy is a `BridgeForward` event carrying its device: at the device's
//! exit time the copy is transmitted on the destination segment's own
//! medium (queueing there like any local frame), fans out to that
//! segment's members, and is offered to the *other* devices on that
//! segment, which carry it further along the tree — each device has
//! its own engine state, backlog and [`BridgeStats`]. The
//! forwarding device itself is excluded from that pickup, and the
//! topology is a tree, so no forwarding walk can revisit a segment: no
//! loop is possible by construction.

use crate::calib::Calib;
use crate::hist::LatencyHistogram;
use crate::host::{ArrivalStream, HostSim};
use crate::metrics::ProtocolMetrics;
use crate::process::Workload;
use mether_core::{HostMask, MetherConfig, Packet, PageId, SegmentLayout};
use mether_net::{
    BridgeStats, EtherConfig, EtherSim, Fabric, FabricConfig, FabricEvent, SimDuration, SimTime,
};
use std::collections::BinaryHeap;
use std::sync::Arc;

mod observe;
mod par;

pub use observe::ObserverStats;
pub use par::ParallelMode;

/// How the deployment's hosts are wired together.
#[derive(Debug, Clone, Default)]
pub enum Topology {
    /// Every host on one shared broadcast segment — the paper's testbed.
    #[default]
    Flat,
    /// The hosts split over several bridged Ethernet segments (contiguous
    /// blocks, per [`mether_core::SegmentLayout`]), joined by a routed
    /// tree of filtering store-and-forward bridge devices.
    Segmented {
        /// The bridge fabric: topology (star/chain/tree/ring/mesh),
        /// per-device engine knobs, page homes, request routing,
        /// interest aging, election mode. The segment count is
        /// `fabric.topology.segments()` (`1..=hosts`; a 1-segment
        /// topology is behaviourally identical to [`Topology::Flat`]
        /// but exercises the masked delivery path — the equivalence is
        /// regression-pinned). Boxed: the config is cold construction
        /// state, and the hot `Topology` enum should stay small.
        fabric: Box<FabricConfig>,
    },
}

impl Topology {
    /// PR 3's topology: a 1-bridge star over `segments` with default
    /// engine knobs, striped page homes, flooded requests, and sticky
    /// interest.
    pub fn segmented(segments: usize) -> Topology {
        Topology::Segmented {
            fabric: Box::new(FabricConfig::star(segments)),
        }
    }

    /// A segmented topology over an explicit fabric.
    pub fn fabric(fabric: FabricConfig) -> Topology {
        Topology::Segmented {
            fabric: Box::new(fabric),
        }
    }
}

/// Static description of a simulated deployment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of workstations on the network.
    pub hosts: usize,
    /// Host-side cost model.
    pub calib: Calib,
    /// Network model parameters (applied to every segment; loss seeds
    /// are derived per segment).
    pub ether: EtherConfig,
    /// Mether page configuration.
    pub mether: MetherConfig,
    /// Segment wiring: one flat broadcast domain, or bridged segments.
    pub topology: Topology,
}

impl SimConfig {
    /// The paper's testbed: `n` Sun-3/50s on a 10 Mbit/s Ethernet.
    pub fn paper(n: usize) -> Self {
        SimConfig {
            hosts: n,
            calib: Calib::sun3_sunos4(),
            ether: EtherConfig::ten_megabit(),
            mether: MetherConfig::new(),
            topology: Topology::Flat,
        }
    }

    /// The paper's testbed scaled out: `segments` bridged 10 Mbit/s
    /// segments of `hosts_per_segment` Sun-3/50s each, default bridge,
    /// striped page homes.
    pub fn paper_segmented(segments: usize, hosts_per_segment: usize) -> Self {
        SimConfig {
            topology: Topology::segmented(segments),
            ..Self::paper(segments * hosts_per_segment)
        }
    }
}

/// Caps on a run, so degenerate protocols (Figure 6) terminate.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop after this much virtual time.
    pub max_sim_time: SimDuration,
    /// Stop after this many events (backstop against livelock).
    pub max_events: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_sim_time: SimDuration::from_secs(600),
            max_events: 200_000_000,
        }
    }
}

/// Result summary of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// True if every application process exited before the limits.
    pub finished: bool,
    /// Virtual time when the run stopped.
    pub wall: SimDuration,
    /// Events processed.
    pub events: u64,
}

/// The hosts one popped transit delivers to.
///
/// A broadcast Ethernet has no per-recipient state: every NIC on the
/// segment hears every frame. `Recipients` keeps that O(1)-sized on the
/// event heap — [`Recipients::AllExcept`] (flat networks: everyone
/// snoops, the sender ignores its own frame) costs two words however
/// many hosts share the segment, and [`Recipients::Subset`] (segmented
/// networks: exactly one segment's members) is a variable-length
/// [`HostMask`] iterated in O(set bits) — clone-cheap inline up to 128
/// hosts, a shared-buffer refcount bump beyond. Fan-out order is
/// ascending host index for either variant, which is what lets the
/// topology regression tests pin them to identical outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipients {
    /// Every host on the (flat) network except the sender.
    AllExcept(usize),
    /// Exactly the masked hosts — one bridged segment's snoopers, the
    /// sender (if a member) already excluded by the scheduler.
    Subset(HostMask),
}

impl Recipients {
    /// The recipient set as a bitmask, for an `n`-host deployment.
    ///
    /// This is definitional for delivery: both variants fan out in the
    /// mask's ascending order, so `Subset(AllExcept's mask)` and
    /// `AllExcept` are interchangeable (property-tested).
    pub fn to_mask(&self, n: usize) -> HostMask {
        match self {
            Recipients::AllExcept(sender) => HostMask::all_except(n, *sender),
            Recipients::Subset(m) => m.intersection(&HostMask::all_below(n)),
        }
    }
}

#[derive(Debug)]
enum EvKind {
    BurstEnd {
        host: usize,
    },
    /// One transit finishing delivery: the packet (and its page payload)
    /// is materialised once, shared by reference with every recipient,
    /// and fanned out when the event pops — the heap never carries
    /// per-recipient arrival events.
    Deliver {
        to: Recipients,
        pkt: Arc<Packet>,
    },
    /// A forwarded frame copy exits bridge device `from` toward segment
    /// `dst`: transmit it on `dst`'s own medium (where it queues like a
    /// local frame), schedule the resulting segment-masked delivery, and
    /// offer the delivered copy to the *other* devices on `dst` so it
    /// hops onward along the tree.
    BridgeForward {
        from: usize,
        dst: usize,
        pkt: Arc<Packet>,
    },
    Timer {
        host: usize,
        proc: usize,
    },
    /// A fault-retry timer: if the process is still blocked on the same
    /// fault (matching epoch), abandon the wait and re-issue the access
    /// — retransmitting the request a failed fabric swallowed.
    Retry {
        host: usize,
        proc: usize,
        epoch: u64,
    },
    /// One hello-cadence tick of a live-election bridge device: timeout
    /// checks plus this cadence's hellos. Self-rescheduling while the
    /// device lives; `epoch` guards against duplicate chains — a
    /// BridgeDown/BridgeUp cycle cancels the old chain (by bumping the
    /// device's tick epoch) and seeds exactly one new one, so a tick
    /// carrying a stale epoch is dropped unprocessed.
    BridgeTick {
        device: usize,
        epoch: u64,
    },
    /// A bridge control frame (hello/TC) finished transmitting on `seg`:
    /// the *other* live devices attached to the segment ingest it.
    /// Hosts never see these — their NICs filter the BPDU address.
    ControlDeliver {
        seg: usize,
        from: usize,
        pkt: Arc<Packet>,
    },
    /// An injected fabric failure or recovery fires.
    Fabric(FabricEvent),
    /// One cadence tick of the periodic holder re-broadcast
    /// ([`Calib::holder_rebroadcast`]): the host queues a
    /// current-generation retransmission for every page it still holds
    /// consistent and has published. Self-rescheduling while the run
    /// lives; seeded once per host when the knob is on.
    Rebroadcast {
        host: usize,
    },
    /// The next open-loop arrival on `host` is due: inject the buffered
    /// access ([`HostSim::open_arrival`]) and schedule the following
    /// one. Self-rescheduling while the host's stream has arrivals
    /// left; seeded once per attached host at the first `run`.
    OpenArrival {
        host: usize,
    },
}

struct Ev {
    at: SimTime,
    /// Cross-queue tie class at one instant: control-plane events are
    /// tier 0, segment-local events tier `1 + segment` (a flat network
    /// is one segment, so its order stays pure `(time, sequence)`).
    /// Per-segment lanes realize this rule *by construction* — the
    /// control plane runs between windows, pickups replay in segment
    /// order — so a lane spanning several segments sorts by it too, and
    /// exact-instant cross-segment ties resolve identically however the
    /// deployment is cut into lanes.
    tier: u16,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tier == other.tier && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then(other.tier.cmp(&self.tier))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Immutable facts every event handler needs, fixed for one `run`.
struct Env {
    layout: Option<SegmentLayout>,
    /// Each segment's snoopers as a mask (see [`Simulation::members`]).
    members: Arc<[HostMask]>,
    total_hosts: usize,
    /// The deployment is cut into per-segment lanes: a lane cannot
    /// touch the shared fabric mid-window, so it records each bridge
    /// pickup for the coordinator to replay at the barrier.
    record: bool,
    /// Whether the invariant observer is on: pops then assert that a
    /// queue's time never regresses (invariant (e)).
    observe: bool,
}

impl Env {
    /// The segment `host` sits on (0 for every host of a flat network).
    fn segment_of(&self, host: usize) -> usize {
        self.layout.map_or(0, |l| l.segment_of(host))
    }

    /// The event's tie class at one instant (see [`Ev::tier`]).
    fn tier_of(&self, kind: &EvKind) -> u16 {
        let host = match kind {
            EvKind::BridgeTick { .. } | EvKind::ControlDeliver { .. } | EvKind::Fabric(_) => {
                return 0;
            }
            EvKind::BridgeForward { dst, .. } => return 1 + *dst as u16,
            EvKind::BurstEnd { host }
            | EvKind::Timer { host, .. }
            | EvKind::Retry { host, .. }
            | EvKind::Rebroadcast { host }
            | EvKind::OpenArrival { host } => *host,
            EvKind::Deliver { to, .. } => match to {
                // A mask is always one segment's members.
                Recipients::Subset(mask) => mask.into_iter().next().unwrap_or(0),
                // Flat networks only: everyone is on segment 0.
                Recipients::AllExcept(_) => 0,
            },
        };
        1 + self.segment_of(host) as u16
    }
}

/// One event heap with its insertion-sequence counter and traffic
/// counters — what every lane and the control plane each own one of.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Ev>,
    seq: u64,
    stats: EventStats,
}

impl Queue {
    fn push(&mut self, at: SimTime, kind: EvKind, env: &Env) {
        let tier = env.tier_of(&kind);
        let seq = self.seq;
        self.seq += 1;
        self.stats.heap_pushes += 1;
        if matches!(kind, EvKind::Deliver { .. }) {
            self.stats.delivery_pushes += 1;
        }
        self.heap.push(Ev {
            at,
            tier,
            seq,
            kind,
        });
        self.stats.max_heap_depth = self.stats.max_heap_depth.max(self.heap.len());
    }
}

/// Event-heap traffic counters (diagnostics; the broadcast-heap bench
/// and the per-transit acceptance tests read these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Total events pushed onto the heap.
    pub heap_pushes: u64,
    /// Events pushed specifically to deliver packet transits (the
    /// component the per-transit overhaul shrinks by ~hosts×).
    pub delivery_pushes: u64,
    /// Events pushed to carry frames across the bridge (one per frame
    /// copy per destination segment; zero on flat topologies).
    pub bridge_pushes: u64,
    /// Events pushed for the fabric control plane (hello ticks and
    /// control-frame deliveries; zero under static election).
    pub control_pushes: u64,
    /// Hello ticks scheduled on the fixed-cadence timer ring instead of
    /// the heap (a subset of `control_pushes`): the hello cadence is one
    /// global interval, so rescheduled ticks are always the latest
    /// pending deadline and a sorted deque replaces O(log n) heap
    /// traffic with O(1) appends.
    pub timer_ring_pushes: u64,
    /// Lane-window dispatches: how many times the coordinator ran a
    /// lane up to a window's end, summed over the run's windows — a
    /// pure function of the schedule. Nothing is handed to anyone; the
    /// name is kept for the frozen benchmark package, as
    /// [`ParallelMode::Workers`]' is.
    pub task_handoffs: u64,
    /// Packet transits that reached at least one recipient.
    pub transits: u64,
    /// Peak depth of any one event heap (each lane and the control
    /// plane own one).
    pub max_heap_depth: usize,
}

impl EventStats {
    /// Folds another queue's counters into these.
    fn absorb(&mut self, other: &EventStats) {
        self.heap_pushes += other.heap_pushes;
        self.delivery_pushes += other.delivery_pushes;
        self.bridge_pushes += other.bridge_pushes;
        self.control_pushes += other.control_pushes;
        self.timer_ring_pushes += other.timer_ring_pushes;
        self.task_handoffs += other.task_handoffs;
        self.transits += other.transits;
        self.max_heap_depth = self.max_heap_depth.max(other.max_heap_depth);
    }
}

/// A complete simulated deployment, ready to run.
pub struct Simulation {
    hosts: Vec<HostSim>,
    /// One medium per segment: independent carrier state, loss RNG, and
    /// traffic counters. Flat deployments have exactly one.
    segments: Vec<EtherSim>,
    /// Host→segment blocks; `None` on [`Topology::Flat`].
    layout: Option<SegmentLayout>,
    /// Each segment's snoopers as a mask, indexed by segment (empty on
    /// [`Topology::Flat`]): the blocks never change, so a transit clones
    /// its segment's mask by reference count instead of building one.
    members: Arc<[HostMask]>,
    /// Host-side events pending between runs. A `run` deals them out to
    /// its lanes and collects what is left when it stops.
    events: Queue,
    /// The routed bridge fabric (`None` inside on flat networks) and
    /// the control-plane events that drive it.
    ctrl: par::Ctrl,
    now: SimTime,
    /// Events each lane executed during the last per-segment-lane run
    /// (empty after a one-lane run) — the lane-balance diagnostic.
    lane_events: Vec<u64>,
    /// Whether the self-rescheduling chains (hello ticks, holder
    /// re-broadcasts, open-loop arrivals) have been seeded — once, at
    /// the first `run`.
    seeded: bool,
    /// How many lanes a `run` may cut the deployment into (see
    /// [`ParallelMode`]).
    parallel: ParallelMode,
    /// The cross-layer invariant checker (see [`observe`]): sweeps the
    /// deployment for contradictions after sampled event pops, under
    /// `debug_assertions` or `METHER_OBSERVE=1`.
    observer: observe::Observer,
}

impl Simulation {
    /// Builds a quiet deployment from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.hosts` is zero, or if a [`Topology::Segmented`]
    /// layout is invalid (zero segments, or more segments than hosts).
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.hosts > 0, "a simulation needs at least one host");
        let hosts: Vec<HostSim> = (0..cfg.hosts)
            .map(|i| HostSim::new(i, cfg.calib.clone(), cfg.mether.clone()))
            .collect();
        let (segments, layout, fabric) = match cfg.topology {
            Topology::Flat => (vec![EtherSim::new(cfg.ether)], None, None),
            Topology::Segmented { fabric } => {
                let segments = fabric.topology.segments();
                let layout = match SegmentLayout::new(cfg.hosts, segments) {
                    Ok(l) => l,
                    Err(e) => panic!("invalid segmented topology: {e}"),
                };
                let ethers = (0..segments)
                    .map(|s| EtherSim::new(cfg.ether.clone().for_segment(s)))
                    .collect();
                (ethers, Some(layout), Some(Fabric::new(layout, *fabric)))
            }
        };
        let members = layout
            .iter()
            .flat_map(|l| (0..l.segments()).map(move |s| l.members(s)))
            .collect();
        Simulation {
            hosts,
            segments,
            layout,
            members,
            events: Queue::default(),
            ctrl: par::Ctrl::new(fabric),
            now: SimTime::ZERO,
            lane_events: Vec::new(),
            seeded: false,
            parallel: ParallelMode::from_env(),
            observer: observe::Observer::from_env(cfg.hosts),
        }
    }

    /// Runs one full invariant sweep over the deployment right now,
    /// regardless of the observer's gating — cross-checking page-table
    /// holder agreement, bridge belief sanity, interest/age-stamp
    /// coherence, and elected-tree consistency (the catalogue in
    /// [`observe`]). The soak harness calls this in release builds; in
    /// debug builds the same sweep also runs automatically on sampled
    /// event pops during [`Simulation::run`].
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first contradiction found.
    pub fn check_invariants(&mut self) {
        let mut hosts: Vec<&mut HostSim> = self.hosts.iter_mut().collect();
        self.observer
            .sweep_full(&mut hosts, self.ctrl.fabric.as_mut(), self.now);
    }

    /// Runs one *incremental* invariant sweep right now, regardless of
    /// the observer's gating: drains the dirty sets (entities whose
    /// observable state mutated since the last sweep) and checks only
    /// those, against the persistent holder map and watermarks. This is
    /// what sampled sweeps during [`Simulation::run`] do; it is public
    /// so benchmarks and differential tests can drive the incremental
    /// path head-to-head against [`Simulation::check_invariants`] (the
    /// full oracle).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first contradiction found.
    pub fn sweep_dirty(&mut self) {
        let mut hosts: Vec<&mut HostSim> = self.hosts.iter_mut().collect();
        self.observer
            .sweep_incremental_forced(&mut hosts, self.ctrl.fabric.as_mut(), self.now);
    }

    /// Observer coverage counters so far (sweeps run, entities checked,
    /// dirty-set high-water mark, effective stride); all zero when the
    /// observer never ran.
    pub fn observer_stats(&self) -> ObserverStats {
        self.observer.stats()
    }

    /// Mutable fabric access for corruption-injection tests (`None` on
    /// flat topologies): lets a differential test plant a bad holder
    /// belief or learned-interest entry through the devices' ordinary
    /// mutation paths and assert both observer modes flag it.
    #[doc(hidden)]
    pub fn fabric_mut_for_test(&mut self) -> Option<&mut Fabric> {
        self.ctrl.fabric.as_mut()
    }

    /// Selects one lane or one lane per segment (see [`ParallelMode`]).
    /// Call before [`Simulation::run`]. A deployment that cannot be cut
    /// along its segments (flat, single-segment, or a zero
    /// forward-delay fabric) runs as one lane whatever the mode.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.parallel = mode;
    }

    /// Schedules a fabric failure/recovery event `at` sim time after the
    /// start of the run ([`mether_net::FabricEvent`]): bridge devices
    /// dying and restarting, links failing. Call before
    /// [`Simulation::run`].
    ///
    /// # Panics
    ///
    /// Panics on a flat topology (there is no fabric to fail).
    pub fn schedule_fabric_event(&mut self, at: SimDuration, ev: FabricEvent) {
        assert!(
            self.ctrl.fabric.is_some(),
            "fabric events need a segmented topology"
        );
        let env = self.env(false);
        self.ctrl
            .q
            .push(SimTime::ZERO + at, EvKind::Fabric(ev), &env);
    }

    /// Event-heap traffic counters so far, summed over every queue.
    pub fn event_stats(&self) -> EventStats {
        let mut stats = self.events.stats;
        stats.absorb(&self.ctrl.q.stats);
        stats
    }

    /// The handler context for a run cut (`record`) or not cut into
    /// per-segment lanes.
    fn env(&self, record: bool) -> Env {
        Env {
            layout: self.layout,
            members: Arc::clone(&self.members),
            total_hosts: self.hosts.len(),
            record,
            observe: self.observer.enabled(),
        }
    }

    /// Events each per-segment lane executed during the last
    /// [`ParallelMode::Workers`] run, indexed by segment; empty after a
    /// one-lane run. `max / sum` over this slice is how lopsided the
    /// partition is: the share of the run's events on its busiest
    /// segment.
    pub fn lane_event_counts(&self) -> &[u64] {
        &self.lane_events
    }

    /// Adds an application process to `host`; returns its process index.
    pub fn add_process(&mut self, host: usize, workload: Box<dyn Workload>) -> usize {
        self.hosts[host].add_process(workload)
    }

    /// Attaches an open-loop arrival stream to `host`
    /// ([`HostSim::attach_open_loop`]): its accesses are injected as sim
    /// events at their arrival times, independent of what the host's
    /// processes are doing. Call before [`Simulation::run`].
    pub fn attach_open_loop(&mut self, host: usize, stream: Box<dyn ArrivalStream>) {
        self.hosts[host].attach_open_loop(stream);
    }

    /// The deployment-wide open-loop fault-latency histogram: every
    /// host's own histogram merged (order-independent, so one-lane and
    /// per-segment-lane runs agree exactly).
    pub fn open_loop_hist(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for h in &self.hosts {
            if let Some(hist) = h.open_hist() {
                merged.merge(hist);
            }
        }
        merged
    }

    /// Deterministic digest of the open-loop run: per-host issue/hit/
    /// fault counts folded with the merged latency histogram's digest.
    /// Pinned by the determinism tests (same seed ≡ same digest, serial
    /// ≡ `METHER_WORKERS=2`).
    pub fn open_loop_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, host) in self.hosts.iter().enumerate() {
            let (issued, hits, faults) = host.open_counts();
            if issued > 0 || host.open_hist().is_some() {
                mix(i as u64);
                mix(issued);
                mix(hits);
                mix(faults);
            }
        }
        mix(self.open_loop_hist().digest());
        h
    }

    /// Per-segment server-queue high-water marks: for each segment, the
    /// deepest server work queue any member host saw. On a flat topology
    /// this is one entry. The open-loop SLO report reads this to spot
    /// hot home segments.
    pub fn server_queue_high_water(&self) -> Vec<u64> {
        match self.layout {
            None => vec![self
                .hosts
                .iter()
                .map(|h| h.max_server_queue as u64)
                .max()
                .unwrap_or(0)],
            Some(layout) => (0..layout.segments())
                .map(|s| {
                    layout
                        .members(s)
                        .into_iter()
                        .map(|h| self.hosts[h].max_server_queue as u64)
                        .max()
                        .unwrap_or(0)
                })
                .collect(),
        }
    }

    /// Seeds `page` as created (consistent) on `host`.
    pub fn create_owned(&mut self, host: usize, page: PageId) {
        self.hosts[host].table.create_owned(page);
    }

    /// Immutable access to a host (metrics, page table inspection).
    pub fn host(&self, i: usize) -> &HostSim {
        &self.hosts[i]
    }

    /// Number of hosts in the deployment.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whole-network traffic so far: the per-segment counters summed
    /// (the view existing flat-network callers expect).
    pub fn net_stats(&self) -> mether_net::NetStats {
        mether_net::NetStats::sum(self.segments.iter().map(EtherSim::stats))
    }

    /// Number of Ethernet segments (1 on a flat topology).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Traffic counters of segment `seg` alone — losses, decode errors
    /// and the rest stay attributable to the wire they happened on.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_stats(&self, seg: usize) -> &mether_net::NetStats {
        self.segments[seg].stats()
    }

    /// The segment host `host` sits on (0 for every host of a flat
    /// deployment).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range on a segmented topology.
    pub fn segment_of(&self, host: usize) -> usize {
        self.layout.map_or(0, |l| l.segment_of(host))
    }

    /// Fabric-wide bridge traffic counters (per-device counters summed);
    /// `None` on a flat topology.
    pub fn bridge_stats(&self) -> Option<BridgeStats> {
        self.ctrl.fabric.as_ref().map(Fabric::stats)
    }

    /// Per-device bridge traffic counters, indexed by device; empty on a
    /// flat topology.
    pub fn bridge_device_stats(&self) -> Vec<BridgeStats> {
        self.ctrl
            .fabric
            .as_ref()
            .map(Fabric::device_stats)
            .unwrap_or_default()
    }

    /// Active-tree changes across all bridge devices so far (0 on flat
    /// topologies, under static election, or on an undisturbed fabric).
    pub fn fabric_reconvergences(&self) -> u64 {
        self.ctrl.fabric.as_ref().map_or(0, Fabric::reconvergences)
    }

    /// The measured reconvergence stall: sim time from the most recent
    /// injected `BridgeDown` to the first `PageData` forwarded by a
    /// re-elected device. `None` until measured (or on flat topologies).
    pub fn fabric_stall(&self) -> Option<SimDuration> {
        self.ctrl.fabric.as_ref().and_then(Fabric::stall)
    }

    /// Statically subscribes segment `seg` to `page`'s transits at every
    /// bridge device (see [`mether_net::BridgePolicy::subscribe`]) —
    /// required when a segment's only consumers of the page are
    /// data-driven readers, which never transmit anything the fabric
    /// could learn from.
    ///
    /// # Panics
    ///
    /// Panics on a flat topology or an out-of-range segment.
    pub fn subscribe_segment(&mut self, page: PageId, seg: usize) {
        self.ctrl
            .fabric
            .as_mut()
            .expect("subscribe_segment needs a segmented topology")
            .subscribe(page, seg);
    }

    /// Aggregates a finished (or capped) run into the paper's table
    /// format. `space_pages` is the protocol's Mether footprint (the
    /// paper's "Space" row).
    pub fn metrics(&self, label: &str, finished: bool, space_pages: u32) -> ProtocolMetrics {
        let wall = self.now - SimTime::ZERO;
        let nhosts = self.hosts.len().max(1) as u64;
        let mut user = SimDuration::ZERO;
        let mut sys = SimDuration::ZERO;
        let mut losses = 0;
        let mut wins = 0;
        let mut additions = 0;
        let mut ctx = 0;
        let mut lat_sum = SimDuration::ZERO;
        let mut lat_n: u64 = 0;
        let mut max_q = 0;
        let mut coalesced = 0;
        let mut piggybacked = 0;
        let mut open_accesses = 0;
        let mut open_faults = 0;
        for h in &self.hosts {
            for i in 0..h.proc_count() {
                let t = h.times(i);
                user += t.user;
                sys += t.sys;
                let c = h.counters(i);
                losses += c.losses;
                wins += c.wins;
                additions += c.operations;
            }
            sys += h.server_time;
            ctx += h.ctx_switches;
            for l in &h.fault_latencies {
                lat_sum += *l;
                lat_n += 1;
            }
            max_q = max_q.max(h.max_server_queue);
            coalesced += h.requests_coalesced;
            piggybacked += h.requests_piggybacked;
            let (issued, _, faults) = h.open_counts();
            open_accesses += issued;
            open_faults += faults;
        }
        let open_hist = self.open_loop_hist();
        let net = self.net_stats();
        let wall_secs = wall.as_secs_f64();
        let frames_heard_max = self.hosts.iter().map(|h| h.frames_heard).max().unwrap_or(0);
        let frames_heard_mean =
            self.hosts.iter().map(|h| h.frames_heard).sum::<u64>() as f64 / nhosts as f64;
        ProtocolMetrics {
            label: label.to_string(),
            finished,
            wall,
            net_segments: self.segments.iter().map(|e| *e.stats()).collect(),
            bridge: self.bridge_stats().unwrap_or_default(),
            bridge_devices: self.bridge_device_stats(),
            fabric_events: self
                .ctrl
                .fabric
                .as_ref()
                .map(|f| {
                    f.timeline()
                        .iter()
                        .map(|&(at, ev)| (at - SimTime::ZERO, ev))
                        .collect()
                })
                .unwrap_or_default(),
            fabric_reconvergences: self.fabric_reconvergences(),
            reconvergence_stall: self.fabric_stall(),
            frames_heard_mean,
            frames_heard_max,
            user: SimDuration::from_nanos(user.as_nanos() / nhosts),
            sys: SimDuration::from_nanos(sys.as_nanos() / nhosts),
            net,
            net_load_bps: net.load_bytes_per_sec(wall_secs),
            bytes_per_addition: if additions == 0 {
                f64::NAN
            } else {
                net.bytes as f64 / additions as f64
            },
            ctx_switches: ctx,
            ctx_per_addition: if additions == 0 {
                f64::NAN
            } else {
                ctx as f64 / additions as f64
            },
            avg_latency: SimDuration::from_nanos(
                lat_sum.as_nanos().checked_div(lat_n).unwrap_or(0),
            ),
            losses,
            wins,
            additions,
            space_pages,
            max_server_queue: max_q,
            requests_coalesced: coalesced,
            requests_piggybacked: piggybacked,
            open_accesses,
            open_faults,
            open_p50: SimDuration::from_nanos(open_hist.percentile(0.50)),
            open_p99: SimDuration::from_nanos(open_hist.percentile(0.99)),
            open_p999: SimDuration::from_nanos(open_hist.percentile(0.999)),
            open_max: SimDuration::from_nanos(open_hist.max()),
            server_queue_high_water: self.server_queue_high_water(),
            observer: self.observer.stats(),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation(hosts={}, segments={}, now={}, queued={})",
            self.hosts.len(),
            self.segments.len(),
            self.now,
            self.events.heap.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_nanos: u64, seq: u64) -> Ev {
        Ev {
            at: SimTime::ZERO + SimDuration::from_nanos(at_nanos),
            tier: 1,
            seq,
            kind: EvKind::BurstEnd { host: 0 },
        }
    }

    #[test]
    fn same_timestamp_events_pop_in_insertion_order() {
        // The regression this pins: with only `at` in the ordering, a
        // max-heap's pop order for equal keys is unspecified — same-tick
        // delivery order would depend on heap internals (and silently
        // change with capacity, insertion history, or std's sift
        // implementation). The monotonic `seq` tiebreaker makes equal
        // times pop strictly in insertion order. Push in an adversarial
        // (non-sorted, non-reverse) order to catch a heap that "usually"
        // gets it right.
        let mut heap = BinaryHeap::new();
        for seq in [3u64, 0, 4, 1, 2] {
            heap.push(ev(100, seq));
        }
        let popped: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4], "insertion order at one tick");
    }

    #[test]
    fn earlier_timestamp_beats_any_sequence() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(200, 0)); // inserted first, fires later
        heap.push(ev(100, 1));
        assert_eq!(heap.pop().unwrap().seq, 1, "time dominates the tiebreak");
        assert_eq!(heap.pop().unwrap().seq, 0);
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_pushes() {
        let env = Simulation::new(SimConfig::paper(2)).env(false);
        let mut q = Queue::default();
        q.push(SimTime::ZERO, EvKind::BurstEnd { host: 0 }, &env);
        q.push(SimTime::ZERO, EvKind::BurstEnd { host: 1 }, &env);
        q.push(SimTime::ZERO, EvKind::Timer { host: 0, proc: 0 }, &env);
        let seqs: Vec<u64> = std::iter::from_fn(|| q.heap.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(q.stats.heap_pushes, 3);
    }
}
