//! Configuration of the bridge fabric and its counters.

use crate::time::SimDuration;
use mether_core::{BridgeTopology, PageHomePolicy};

/// Host-id base for bridge devices as senders on the threaded
/// runtime's LANs and in control frames (far above any node id, which
/// the segment layout caps at 127). Device `d` speaks as
/// `HostId(BRIDGE_HOST_BASE + d)`.
pub const BRIDGE_HOST_BASE: u16 = 0xFF00;

/// Parameters of one store-and-forward bridge device.
#[derive(Debug, Clone)]
pub struct BridgeConfig {
    /// Store-and-forward latency per frame; also the device's service
    /// time, so back-to-back pickups serialise behind one another.
    pub forward_delay: SimDuration,
    /// Frames the device can hold; a pickup arriving with the queue full
    /// is tail-dropped (and counted in [`BridgeStats::queue_drops`]).
    pub queue_frames: usize,
    /// Probability a picked-up frame is discarded entirely (bridge-side
    /// corruption/overrun injection).
    pub drop: f64,
    /// Probability a forwarded frame is emitted twice (bridges may
    /// duplicate during topology flaps; Mether's generation counters
    /// make duplicates harmless, which this knob exercises).
    pub duplicate: f64,
    /// Seed for the drop/duplicate injection RNG. In a [`Fabric`](super::Fabric),
    /// device `b` runs on `seed + b`, so device 0 of a star reproduces
    /// the single-bridge stream bit for bit.
    pub seed: u64,
}

impl BridgeConfig {
    /// A late-80s two-port Ethernet bridge: ~50 µs store-and-forward
    /// latency, a 32-frame queue, no fault injection.
    pub fn typical() -> Self {
        BridgeConfig {
            forward_delay: SimDuration::from_micros(50),
            queue_frames: 32,
            drop: 0.0,
            duplicate: 0.0,
            seed: 0,
        }
    }

    /// Overrides the forwarding delay.
    #[must_use]
    pub fn with_forward_delay(mut self, d: SimDuration) -> Self {
        self.forward_delay = d;
        self
    }

    /// Overrides the queue capacity.
    #[must_use]
    pub fn with_queue_frames(mut self, n: usize) -> Self {
        self.queue_frames = n;
        self
    }

    /// Adds uniform forwarding loss with probability `p`. The drop and
    /// duplicate knobs share one injection RNG; seed it with
    /// [`BridgeConfig::with_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop = p;
        self
    }

    /// Adds frame duplication with probability `p`. The drop and
    /// duplicate knobs share one injection RNG; seed it with
    /// [`BridgeConfig::with_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0,1]"
        );
        self.duplicate = p;
        self
    }

    /// Seeds the fault-injection RNG shared by the drop and duplicate
    /// knobs.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        Self::typical()
    }
}

/// Cumulative traffic counters of one bridge device (or, summed with
/// [`BridgeStats::sum`], of a whole fabric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Frames the device heard (one per delivered transit on any of its
    /// ports).
    pub heard: u64,
    /// Egress emissions (one per frame per destination segment).
    pub forwarded: u64,
    /// Wire bytes of those egress emissions — the cross-segment traffic.
    pub bytes_forwarded: u64,
    /// Egress emissions that carried a `PageRequest` — the component
    /// request routing keeps to the path toward the holder.
    pub req_forwarded: u64,
    /// Frames with no remote interest, kept local to their segment. The
    /// filter's win: each of these spared every off-segment host a snoop.
    pub filtered: u64,
    /// Frames discarded: by the drop knob of the simulator's engine, or,
    /// in the runtime's untimed step, which has no such knob, because
    /// they had already crossed as many devices as the fabric has
    /// segments ([`Fabric::carry`](super::Fabric::carry)) — a forwarding
    /// loop, which a loop-free active tree never closes.
    pub dropped: u64,
    /// Frames tail-dropped at a full queue.
    pub queue_drops: u64,
    /// Extra emissions produced by the duplicate knob.
    pub duplicated: u64,
    /// Requests routed on a known holder belief.
    pub belief_hits: u64,
    /// Requests with no belief that were sent toward the page's home
    /// only — or kept, when they arrived from the home side: a device on
    /// the tree it booted on knows the holder is homeward unless a move
    /// taught it otherwise.
    pub home_routed: u64,
    /// Requests with no belief that were flooded, because the device's
    /// tree changed since boot or the device was revived, so a missing
    /// belief no longer says where the holder is (post-reconvergence
    /// repair traffic).
    pub belief_fallback_floods: u64,
    /// Times an *existing* holder belief was repointed by fresher
    /// evidence (a newer-generation transit from another direction, or
    /// a snooped `transfer_to`) — how fast beliefs chase a migrating
    /// holder.
    pub belief_repairs: u64,
    /// Control frames whose wire-decoded `device` field contradicted the
    /// frame's actual emitter or named no device of the fabric — ignored
    /// rather than ingested (decoded fields are untrusted input). Each
    /// device that hears such a frame counts it once, in both engines.
    pub malformed_pdus: u64,
}

impl BridgeStats {
    /// Sums per-device counters into a fabric-wide view. Note `heard`
    /// counts device-pickups, so a frame heard by two devices on one
    /// segment counts twice — it is per-device work, not wire traffic.
    pub fn sum<I: IntoIterator<Item = BridgeStats>>(devices: I) -> BridgeStats {
        devices
            .into_iter()
            .fold(BridgeStats::default(), |mut acc, s| {
                acc.heard += s.heard;
                acc.forwarded += s.forwarded;
                acc.bytes_forwarded += s.bytes_forwarded;
                acc.req_forwarded += s.req_forwarded;
                acc.filtered += s.filtered;
                acc.dropped += s.dropped;
                acc.queue_drops += s.queue_drops;
                acc.duplicated += s.duplicated;
                acc.belief_hits += s.belief_hits;
                acc.home_routed += s.home_routed;
                acc.belief_fallback_floods += s.belief_fallback_floods;
                acc.belief_repairs += s.belief_repairs;
                acc.malformed_pdus += s.malformed_pdus;
                acc
            })
    }
}

/// How long learned interest survives without fresh demand.
///
/// Aging governs publications only. A reply travels on the pending
/// marks its request left ([`PortStamp::requested_at`](super::PortStamp::requested_at)), which no
/// horizon expires, so a horizon shorter than the request → reply round
/// trip ages background interest without ever filtering the reply a
/// request asked for. Data-driven consumers transmit nothing at all — no
/// request, no learned interest once it ages — so pin their segments
/// with static subscriptions ([`BridgePolicy::subscribe`](super::BridgePolicy::subscribe)) instead of
/// relying on learned interest under any finite horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgeHorizon {
    /// Interest never expires: a segment that once requested a page
    /// receives its transits forever.
    #[default]
    Sticky,
    /// An entry expires after the device has forwarded this many
    /// transits since the port last showed demand for the page. The
    /// count is per device and transport-free, so the threaded runtime
    /// ages exactly like the simulator.
    Transits(u64),
    /// An entry expires this long (in sim time) after the port last
    /// showed demand. The threaded runtime derives a monotonic
    /// [`SimTime`](crate::SimTime) from the wall clock (1 ns ≙ 1 ns), so
    /// this ages there too, on wall time.
    SimTime(SimDuration),
}

/// How the fabric decides its active forwarding tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElectionMode {
    /// Elect once at construction assuming every device alive, then
    /// freeze: no hello traffic, no timers, no failure handling. On a
    /// tree topology this is byte-identical to routing by the tree's own
    /// next-hop tables (regression-pinned); on a graph it freezes one
    /// spanning tree and a failure partitions the fabric permanently.
    #[default]
    Static,
    /// Run the distributed election live: hellos at `hello_interval` on
    /// every live port, a neighbour silent for `hello_timeout` is
    /// declared dead (gossiped fabric-wide), and every belief change
    /// re-elects. A port turning Blocked→Forwarding holds down for
    /// `hold_down` before carrying data (the listening delay that keeps
    /// transient disagreement from closing a loop).
    Live {
        /// Hello cadence per device.
        hello_interval: SimDuration,
        /// Neighbour silence threshold; keep it several intervals wide
        /// so one lost hello is not a funeral.
        hello_timeout: SimDuration,
        /// Listening delay before a newly-forwarding port carries data.
        hold_down: SimDuration,
    },
}

impl ElectionMode {
    /// Live election with defaults sized for the simulated 10 Mbit/s
    /// fabric: 1 ms hellos, 4 ms neighbour timeout, 2 ms hold-down —
    /// reconvergence in single-digit milliseconds, hello overhead well
    /// under the page-traffic noise floor.
    pub fn live() -> Self {
        ElectionMode::Live {
            hello_interval: SimDuration::from_millis(1),
            hello_timeout: SimDuration::from_millis(4),
            hold_down: SimDuration::from_millis(2),
        }
    }

    /// Live election with the cadence widened for a fabric of `devices`
    /// devices: the [`ElectionMode::live`] 1 ms / 4 ms / 2 ms timings
    /// stretched by `ceil(devices / 32)`, so identical to
    /// [`ElectionMode::live`] up to 32 devices. Even though hellos are
    /// sparse, the per-hello wire cost grows with the anti-entropy
    /// window's mask words, and several
    /// devices share each segment — at a fixed 1 ms cadence a
    /// 100+ device fabric spends a large fraction of every segment's
    /// 10 Mbit/s on control traffic. Scaling the cadence keeps the
    /// hello overhead a small constant fraction of the wire at any
    /// size; failure detection slows proportionally, which is the
    /// classic trade.
    pub fn live_scaled(devices: usize) -> Self {
        let f = devices.div_ceil(32).max(1) as u64;
        ElectionMode::Live {
            hello_interval: SimDuration::from_millis(f),
            hello_timeout: SimDuration::from_millis(4 * f),
            hold_down: SimDuration::from_millis(2 * f),
        }
    }

    /// The hello cadence, when live.
    pub fn hello_interval(&self) -> Option<SimDuration> {
        match self {
            ElectionMode::Static => None,
            ElectionMode::Live { hello_interval, .. } => Some(*hello_interval),
        }
    }
}

/// A failure (or recovery) injected into the fabric in sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// Bridge device dies: stops forwarding, stops emitting hellos,
    /// loses its queue and all learned state. Neighbours detect the
    /// silence and the fabric re-elects around it (live election only —
    /// under `Static` the failure partitions the fabric).
    BridgeDown(usize),
    /// The device restarts cold: fresh filter tables, fresh optimistic
    /// views, a self-version above any obituary in circulation.
    BridgeUp(usize),
    /// One (device, segment) attachment fails; the device keeps
    /// forwarding on its surviving ports and gossips the reduced port
    /// set.
    LinkDown {
        /// The device losing the port.
        device: usize,
        /// The segment the port attached to.
        segment: usize,
    },
    /// A previously-failed (device, segment) attachment comes back: the
    /// device re-adds the port to its gossiped view and the fabric may
    /// re-elect over the restored wiring. A no-op if the link is up.
    LinkUp {
        /// The device regaining the port.
        device: usize,
        /// The segment the port attaches to.
        segment: usize,
    },
}

/// Everything needed to instantiate the bridge [`Fabric`](super::Fabric) of a
/// segmented deployment, which the simulator and the threaded runtime
/// both build from it.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// The graph of bridge devices over the segments.
    pub topology: BridgeTopology,
    /// Per-device engine knobs (timing, queueing, fault injection);
    /// device `b` derives its injection seed as `bridge.seed + b`.
    pub bridge: BridgeConfig,
    /// Which segment each page is homed to.
    pub homes: PageHomePolicy,
    /// Learned-interest lifetime.
    pub aging: AgeHorizon,
    /// Static snapshot or live spanning-tree election.
    pub election: ElectionMode,
    /// Per-device bridge priorities (lower wins the root election;
    /// missing entries default to 0, ties break on device id).
    pub priorities: Vec<u64>,
}

impl FabricConfig {
    /// A fabric over an explicit topology, with default engine knobs,
    /// striped homes, sticky interest, and static election.
    pub fn new(topology: BridgeTopology) -> Self {
        FabricConfig {
            topology,
            bridge: BridgeConfig::typical(),
            homes: PageHomePolicy::Striped,
            aging: AgeHorizon::Sticky,
            election: ElectionMode::Static,
            priorities: Vec::new(),
        }
    }

    /// The 1-bridge star over `segments`: one device on every segment.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn star(segments: usize) -> Self {
        Self::new(BridgeTopology::star(segments))
    }

    /// A chain of two-port bridges over `segments`.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2`.
    pub fn chain(segments: usize) -> Self {
        Self::new(BridgeTopology::chain(segments))
    }

    /// A balanced tree over `segments` with the given bridge fanout.
    ///
    /// # Panics
    ///
    /// Panics if `segments` or `fanout` is zero.
    pub fn tree(segments: usize, fanout: usize) -> Self {
        Self::new(BridgeTopology::balanced_tree(segments, fanout))
    }

    /// A ring of two-port bridges over `segments` — the chain plus one
    /// redundant link, the smallest single-failure-tolerant fabric.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2`.
    pub fn ring(segments: usize) -> Self {
        Self::new(BridgeTopology::ring(segments))
    }

    /// Overrides the per-device engine knobs.
    #[must_use]
    pub fn with_bridge(mut self, bridge: BridgeConfig) -> Self {
        self.bridge = bridge;
        self
    }

    /// Overrides the page-home policy.
    #[must_use]
    pub fn with_homes(mut self, homes: PageHomePolicy) -> Self {
        self.homes = homes;
        self
    }

    /// Overrides the interest-aging horizon.
    #[must_use]
    pub fn with_aging(mut self, aging: AgeHorizon) -> Self {
        self.aging = aging;
        self
    }

    /// Overrides the election mode.
    #[must_use]
    pub fn with_election(mut self, election: ElectionMode) -> Self {
        self.election = election;
        self
    }

    /// Overrides the per-device bridge priorities (lower wins).
    #[must_use]
    pub fn with_priorities(mut self, priorities: Vec<u64>) -> Self {
        self.priorities = priorities;
        self
    }
}
