//! The resilient routed bridge *fabric* joining Ethernet segments.
//!
//! Mether's protocols assume one broadcast domain: every server snoops
//! every frame, and the network does the fan-out. One shared segment is
//! also the scaling ceiling — every transit burdens every host. Scaling
//! past it means splitting the cluster into segments joined by
//! *filtering* bridges, arranged — once one filtering device is itself
//! the bottleneck — as a fabric of multi-port devices, the way real
//! segmented Ethernets of the era scaled. This module is that fabric.
//!
//! # Physical links vs. the active forwarding tree
//!
//! A [`mether_core::BridgeTopology`] describes the **physical wiring**:
//! each bridge device attaches to a subset of segments (its *ports*) and
//! only ever sees traffic on those segments. The wiring is a validated
//! *connected graph* — redundant links (rings, meshes, tie bridges) are
//! welcome, because loop freedom does not come from the wiring. It comes
//! from a **spanning-tree election** in the style of Perlman's 802.1D:
//! each device holds gossiped liveness beliefs about its peers
//! ([`mether_core::DeviceView`], carried in
//! [`mether_core::Packet::BridgePdu`] hello frames on the ordinary
//! wire), and deterministically elects an active tree from them
//! ([`mether_core::BridgeTopology::elect`]) — a root bridge
//! (configurable priorities, device-id tie-break), per-port
//! [`mether_core::PortState::Forwarding`] /
//! [`mether_core::PortState::Blocked`] states, and next-hop tables
//! *derived from the forwarding ports at election time* rather than
//! precomputed from the wiring. Frames travel **hop by hop** along
//! forwarding ports only; blocked ports neither forward nor learn, so
//! the redundancy stays dormant until a failure needs it.
//!
//! The hello is one sparse format: the sender's own view, the views
//! that changed since its last hello, and a rotating window of
//! `GOSSIP_WINDOW` unchanged entries — epidemic anti-entropy in the
//! style of Demers et al. (PODC 1987), so a device that missed history
//! resyncs within `devices / GOSSIP_WINDOW` hellos while a hello's wire
//! cost stays O(1) in fabric size. A fabric of at most
//! `GOSSIP_WINDOW` devices hears every view in every hello.
//!
//! Two election modes ([`ElectionMode`]):
//!
//! * [`ElectionMode::Static`] — elect once at construction assuming
//!   everything alive, then never again: no hello traffic, no timers.
//!   On a tree topology this reproduces the PR 4 tree fabric *exactly*
//!   (every port forwards, identical next hops — regression-pinned
//!   byte-identical), and on a graph it simply freezes one spanning
//!   tree.
//! * [`ElectionMode::Live`] — each device emits a hello on every live
//!   port at the hello cadence (and immediately when its beliefs
//!   change), times out silent neighbours, gossips deaths and
//!   revivals, and re-elects on every belief change. Ports that turn
//!   from Blocked to Forwarding hold down for a listening delay before
//!   carrying data, so a transient disagreement between devices cannot
//!   close a forwarding loop the way real STP's listening state
//!   prevents. Reconvergence **flushes learned interest and holder
//!   beliefs on every port whose role changed** — the cached directions
//!   are meaningless on the new tree — and the DSM layer rides through
//!   on its request-retry path while the fabric heals.
//!
//! Failures are injected as [`FabricEvent`]s ([`FabricEvent::BridgeDown`],
//! [`FabricEvent::BridgeUp`], [`FabricEvent::LinkDown`],
//! [`FabricEvent::LinkUp`]): a dead device
//! stops emitting hellos and stops forwarding, its neighbours notice the
//! silence, declare it dead (versioned gossip: a neighbour's obituary is
//! `version + 1`; self-assertions advance by 2 so a live device always
//! out-versions its own obituary), and the fabric reconverges around the
//! redundancy. [`Fabric`] measures the **reconvergence stall**: the sim
//! time from a `BridgeDown` to the first page copy (publication or
//! reply) forwarded by a re-elected device — the window during which
//! cross-fabric pages were unreachable.
//!
//! # Filtering and routing
//!
//! [`BridgePolicy`] is one device's forwarding filter — time-free and
//! transport-free, shared verbatim by the discrete-event simulator and
//! the threaded runtime. Per page it keeps, per port:
//!
//! * **learned interest** — a port is interested when a `PageRequest`
//!   arrived on it, a page copy arrived on it (that side holds copies
//!   the snoopy protocol must keep refreshed), or a `transfer_to` moved
//!   the consistent copy toward it. Publications are forwarded to
//!   interested ports only.
//! * **pending requests** — a `PageRequest` heard on a port marks it
//!   pending for the page ([`PortStamp::requested_at`]) until a reply
//!   is forwarded back out through it. Replies follow these marks
//!   (below), and no aging horizon expires them.
//! * the **home port** — the port toward the page's home segment
//!   ([`mether_core::PageHomePolicy`]) *on the active tree*, permanently
//!   interested so the home always holds fresh copies for cross-segment
//!   misses to find. Never aged out; re-derived automatically when the
//!   tree changes; absent while the home segment is partitioned away.
//! * **pins** ([`BridgePolicy::subscribe`]) — explicit subscriptions for
//!   purely data-driven readers, stored as *segments* and resolved to
//!   ports through the active tree, so they survive reconvergence.
//! * the **believed holder port** — learned from the direction page
//!   copies arrive from (only when they *advance* the
//!   page's generation, so a non-holder's stale `Want::Superset` reply
//!   cannot repoint the belief away from the live holder) and from
//!   snooped `transfer_to` moves (authoritative — they name the new
//!   holder).
//!
//! A `PageRequest` is forwarded toward the believed holder, *anchored at
//! the home port*; with no belief it walks toward the home (below), and
//! the reply repairs the table at every hop it crosses. So request
//! traffic grows with the tree distance to the holder, not with the
//! segment count. Two kinds of request still leave through every other
//! forwarding port: a `Want::Superset` request, which any host holding
//! a full copy may answer, so no one holder direction covers it; and a
//! belief-less request on a device that cannot trust its silence
//! (below). Belief quality is accounted per device in [`BridgeStats`]:
//! `belief_hits` (requests routed on a belief), `home_routed` (no
//! belief — toward home), `belief_fallback_floods` (no belief on a
//! device that cannot trust its silence — flooded), and
//! `belief_repairs` (an existing belief repointed by fresher evidence).
//!
//! # Replies and publications
//!
//! A page copy crosses the wire as one of two types with one header
//! layout ([`mether_core::Packet`]). A **publication**
//! ([`Packet::PageData`]: a purge broadcast) is sent unasked, for
//! data-driven readers that send no request; it leaves a device through
//! every port with fresh learned interest, the home port, and the pins
//! — the snoopy protocol's fan-out. A **reply**
//! ([`Packet::PageReply`]: a read reply, a `Superset` reply, a
//! consistency transfer) answers requests; it leaves only through
//!
//! * the ports whose requests are still pending,
//! * the next hop toward its `transfer_to` target, and
//! * the pins,
//!
//! and clears the pending mark of each port it leaves through. So a
//! demand reader fetches its own data, and a bystander segment no longer
//! snoops every reply to a page it once asked for: the paper's split
//! between demand-driven and data-driven faults, carried onto the
//! fabric. Two requesters pending on different ports (a holder that
//! coalesced or piggybacked the second request onto its answer to the
//! first) both get the one reply. A reply teaches everything a
//! publication does — ingress interest, holder beliefs — and a grant
//! still walks the whole old holder → new holder path, which is what the
//! trail below rests on.
//!
//! # The probable-owner trail
//!
//! A missing belief is evidence too. A page's consistent copy starts at
//! its creator and moves only by `transfer_to` data, which every device
//! on the old holder → new holder path forwards and follows; a device
//! off that path has both holders on the same side of itself. So a
//! device still on the tree it booted on, holding no belief for a page,
//! knows the holder is on the home side — the probable-owner trail of
//! Li and Hudak's dynamic distributed manager, kept by the bridges —
//! and sends the request out its home port alone (nowhere, when it came
//! in through it). Two cases break the argument, and both are covered.
//! A page created off its home segment has crossed nothing yet, so
//! creating it seeds the belief on the devices between home and
//! creator ([`BridgePolicy::seed_holder`]). A device whose tree changed
//! (a re-election flushes beliefs on the ports whose role changed) or
//! that was revived cold may have missed moves, so it floods
//! belief-less requests until replies teach it beliefs again. The
//! simulator's invariant observer checks the argument itself: on every
//! device that trusts its silence, a page with no belief has its holder
//! homeward.
//!
//! # Interest aging
//!
//! Learned interest carries a last-use stamp; an [`AgeHorizon`] (in
//! device-forwarded transits, or in sim time) evicts entries whose port
//! has shown no demand for that long, so a reader segment that stops
//! touching a page stops receiving its publications. Re-use reinstates the
//! entry via the ordinary learning path; home ports and pins never age.
//! The default, [`AgeHorizon::Sticky`], never evicts.
//!
//! # Engine
//!
//! [`Bridge`] wraps one device's policy in the simulator's
//! store-and-forward timing: a forwarding delay, a bounded frame queue
//! that tail-drops under overload, and drop/duplicate fault-injection
//! knobs ([`BridgeConfig`]), accounted per device in [`BridgeStats`].
//! [`Fabric`] owns every device of a topology: their liveness, their
//! lost links, the control plane (hello ticks, control-frame gossip,
//! failure events), reconvergence and the stall probe. It is the one
//! fault plane, and two engines drive it:
//!
//! * the simulator hands it each delivered frame once
//!   ([`Fabric::pickup`], [`Fabric::hear_control`]) and it fans the
//!   frame out to the live devices attached to the segment. Egress
//!   timing is the *exit* time from a device; the destination segment's
//!   own medium model then queues the frame like any other
//!   transmission, and the remaining devices on that segment hear it
//!   there;
//! * a threaded runtime runs one thread per device, and each thread
//!   asks about its own device only ([`Fabric::forward`],
//!   [`Fabric::hear_hello`], [`Fabric::tick`]). Its forward is
//!   untimed: the frame leaves as soon as the thread has routed it, with
//!   no forward delay, queue bound or drop/duplicate injection.
//!
//! The per-device steps are carved out of the same loops the
//! simulator's fan-out runs (is the device alive and its port live,
//! route, count, probe the stall), and both engines inject faults
//! through [`Fabric::apply_event`], so a fault script means the same in
//! both.
//!
//! # Per fabric, per device
//!
//! Fabric-wide facts are computed once per fabric and shared, not
//! replicated per device:
//!
//! * **Per fabric, always shared** — the wiring
//!   (`Arc<BridgeTopology>`) and the configured priorities.
//! * **Per fabric until a device diverges** — the [`BootState`]: the
//!   optimistic everybody-alive views and the one tree they elect
//!   (every observer of a validated connected graph elects the same
//!   one). [`Fabric::new`] computes it once, every device boots on it
//!   by reference, and every cold revival boots on it again — no
//!   constructor elects per device. A device's view table and its
//!   active tree are held copy-on-write: the table is copied the first
//!   time one of *this* device's beliefs really changes (a merged
//!   hello is compared before anything is written), and the tree is
//!   replaced — never edited — when a re-election lands on a different
//!   one; a re-election that finds root and forwarding masks unchanged
//!   keeps the tree it has. Under [`ElectionMode::Static`] nothing
//!   ever diverges: a 480-device mesh carries one tree and one view
//!   table, not 480.
//! * **Per device, always private** — the page filters (learned
//!   interest, pins, holder beliefs) and the slab of demand stamps
//!   beside them, one row of ports per filter, neighbour liveness
//!   stamps and hold-downs, the election epoch, gossip watermarks,
//!   counters, and the engine's backlog and fault-injection RNG. A
//!   device keeps a filter only for the pages it has heard of: a
//!   page → slot index (4 bytes per page id) leads to compact filters
//!   and stamp rows, and a page without a slot answers every query as
//!   a default filter would. On the 480-device mesh most devices hear
//!   of a small share of the pages, so most would-be filters never
//!   exist.
//!
//! # Per frame
//!
//! One pickup is one walk over the device's own port list, and what it
//! costs does not depend on how many segments, devices or pages the
//! fabric has. It *reads* the shared tree by reference (is this port
//! Forwarding; the next hop toward the page's home and toward a
//! `transfer_to` target), the device's hold-downs, the page's filter
//! and its row of the stamp slab, both found through one load from the
//! slot index; it *writes* that one filter (a
//! learned bit, the holder belief, the newest generation) and the
//! stamps of the ports that showed demand — one row, one or two
//! entries. Every forwarding rule is a test applied to one port at a
//! time, and the ports that pass are pushed, ascending, into a buffer
//! the caller reuses ([`BridgePolicy::route_into`]: each [`Bridge`]
//! keeps one, which [`Fabric::forward`] lends out), as is the egress
//! schedule a [`Bridge`] returns and the combined one [`Fabric::pickup`]
//! returns. No segment-id mask is built, copied or
//! combined along the way, so nothing is allocated — with one
//! exception: a page with pins ([`BridgePolicy::subscribe`]) resolves
//! them to ports through the tree into a small mask, once per frame.
//! The unit tests' mask-returning `targets` and `interest` collect the
//! same walk's ports into a mask, and the invariant observer asks the
//! walk's test of one port ([`BridgePolicy::interested`]); there is no
//! second copy of the rules.

use crate::time::{SimDuration, SimTime};
use mether_core::{
    ActiveTree, BridgeTopology, DeviceView, HostId, HostMask, Packet, PageHomePolicy, PageId,
    SegmentLayout, Want,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Host-id base for bridge endpoints on the threaded runtime's LANs and
/// in control frames (far above any node id, which the segment layout
/// caps at 127). Device `d` speaks as `HostId(BRIDGE_HOST_BASE + d)`.
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
    /// Seed for the drop/duplicate injection RNG. In a [`Fabric`],
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
    /// Frames discarded by the drop knob.
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
    /// rather than ingested (decoded fields are untrusted input).
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
/// marks its request left ([`PortStamp::requested_at`]), which no
/// horizon expires, so a horizon shorter than the request → reply round
/// trip ages background interest without ever filtering the reply a
/// request asked for. Data-driven consumers transmit nothing at all — no
/// request, no learned interest once it ages — so pin their segments
/// with static subscriptions ([`BridgePolicy::subscribe`]) instead of
/// relying on learned interest under any finite horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgeHorizon {
    /// Interest never expires (PR 3's behaviour): a segment that once
    /// requested a page receives its transits forever.
    #[default]
    Sticky,
    /// An entry expires after the device has forwarded this many
    /// transits since the port last showed demand for the page. The
    /// count is per device and transport-free, so the threaded runtime
    /// ages exactly like the simulator.
    Transits(u64),
    /// An entry expires this long (in sim time) after the port last
    /// showed demand. The threaded runtime's bridge threads derive a
    /// monotonic [`SimTime`] from the wall clock (1 ns ≙ 1 ns), so this
    /// ages there too, on wall time.
    SimTime(SimDuration),
}

/// How the fabric decides its active forwarding tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElectionMode {
    /// Elect once at construction assuming every device alive, then
    /// freeze: no hello traffic, no timers, no failure handling. On a
    /// tree topology this is byte-identical to the PR 4 tree-only
    /// fabric (regression-pinned); on a graph it freezes one spanning
    /// tree and a failure partitions the fabric permanently.
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

    /// True for [`ElectionMode::Live`].
    pub fn is_live(&self) -> bool {
        matches!(self, ElectionMode::Live { .. })
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

/// Everything needed to instantiate the bridge [`Fabric`] of a
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

    /// The 1-bridge star over `segments` — PR 3's topology.
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

    /// Whether creating `page` on segment `seg` must seed holder
    /// beliefs ([`BridgePolicy::seed_holder`]): only off the page's
    /// home segment. The one check a page created at home costs.
    pub fn seeds_holder(&self, page: PageId, seg: usize) -> bool {
        self.homes.home_of(page, self.topology.segments()) != seg
    }
}

/// Per-page filter state of one device: which ports must hear the
/// page's transits and where the consistent holder is believed to be.
/// When each port last showed demand lives beside it, in the device's
/// stamp slab ([`BridgePolicy::stamps`]).
#[derive(Debug, Clone, Default)]
struct PageFilter {
    /// Learned interest (bit = segment id of a port).
    learned: HostMask,
    /// Explicitly subscribed *segments* (bit = segment id anywhere in
    /// the fabric, resolved to a port through the active tree at use
    /// time so pins survive reconvergence). Never aged.
    pinned_segs: HostMask,
    /// Port (segment id) toward the believed consistent holder.
    holder: Option<u16>,
    /// Newest generation seen in any data transit for the page. Holder
    /// beliefs only follow data that *advances* it: `Want::Superset`
    /// replies come from non-holders by definition (`table.rs`: "never
    /// the holder itself") and echo a stale generation, so without this
    /// gate one superset reply would repoint every device on its path
    /// at a segment that cannot answer ordinary requests.
    newest_gen: Option<mether_core::Generation>,
    /// Already queued in the policy's dirty-page list since the last
    /// drain (dedup flag for the incremental invariant observer).
    dirty: bool,
}

impl PageFilter {
    /// Repoints the holder belief to `port`; true when that overwrote
    /// an existing, different belief (a repair).
    fn point_holder(&mut self, port: usize) -> bool {
        let before = self.holder.replace(port as u16);
        before.is_some_and(|old| usize::from(old) != port)
    }
}

/// The last demand evidence one port of a device showed for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStamp {
    /// The device's forwarded-transit clock at the last demand.
    pub clock: u64,
    /// Sim time of the last demand.
    pub at: SimTime,
    /// The port's **pending marker**: the sim time of the last
    /// `PageRequest` heard on the port that no reply has been carried
    /// back through it since, or `SimTime::ZERO` when none is pending
    /// (real arrivals are strictly later than the epoch). A
    /// [`Packet::PageReply`] leaves a device through its pending ports,
    /// whatever the aging horizon, and clears each one it leaves
    /// through.
    pub requested_at: SimTime,
}

impl PortStamp {
    const NEVER: PortStamp = PortStamp {
        clock: 0,
        at: SimTime::ZERO,
        requested_at: SimTime::ZERO,
    };
}

/// One page's interest at one instant, as a per-port test (see
/// [`BridgePolicy::interested`] for the rules).
struct Interest<'a> {
    policy: &'a BridgePolicy,
    now: SimTime,
    /// The port toward the page's home segment.
    home: Option<usize>,
    /// The ports the page's pins resolve to; `None` without pins.
    pins: Option<HostMask>,
    /// The page's learned ports and its stamp row, once materialised.
    learned: Option<(&'a HostMask, &'a [PortStamp])>,
}

impl Interest<'_> {
    /// Does the device's `i`th port (segment `port`) want the page's
    /// publications?
    fn covers(&self, i: usize, port: usize) -> bool {
        Some(port) == self.home
            || self.pinned(port)
            || self.learned.is_some_and(|(learned, row)| {
                learned.contains(port) && self.policy.fresh(&row[i], self.now)
            })
    }

    /// Does the device's `i`th port (segment `port`) want a reply: is a
    /// request heard on it still pending, or is the page pinned there?
    fn asked(&self, i: usize, port: usize) -> bool {
        self.pinned(port)
            || self
                .learned
                .is_some_and(|(_, row)| row[i].requested_at != SimTime::ZERO)
    }

    fn pinned(&self, port: usize) -> bool {
        self.pins.as_ref().is_some_and(|pins| pins.contains(port))
    }
}

/// Which ports a `PageRequest` leaves a device through (see
/// [`BridgePolicy::request_route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestRoute {
    /// A `Superset` request: every other forwarding port — not a belief
    /// event.
    Superset,
    /// The believed holder's port (a segment id), anchored at the home
    /// port.
    Holder(usize),
    /// No belief, on a device whose silence proves the holder homeward:
    /// the home port alone.
    Home,
    /// No belief, on a device that may have missed a move: every other
    /// forwarding port.
    Fallback,
}

/// What one control-plane step changed at a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PduOutcome {
    /// The device's gossiped beliefs changed (propagate: emit a
    /// triggered hello).
    pub view_changed: bool,
    /// The re-election actually changed the active tree (count a
    /// reconvergence; interest/beliefs on changed ports were flushed).
    pub active_changed: bool,
}

/// The gossip entries of hello `pkt`, heard from device `emitter` of a
/// fabric of `devices` devices — or `None` when `pkt` is no hello, or its
/// `device` field contradicts the emitter or names no device of the
/// fabric. That field is wire-decoded, so on a real transport it is
/// untrusted input: ingesting such a frame would refresh the wrong
/// neighbour's liveness stamp. Both engines count a `None` in
/// [`BridgeStats::malformed_pdus`] and ignore the frame.
fn checked_hello(pkt: &Packet, emitter: usize, devices: usize) -> Option<&[(u16, DeviceView)]> {
    match pkt {
        Packet::BridgePdu {
            device, entries, ..
        } if *device as usize == emitter && emitter < devices => Some(entries),
        _ => None,
    }
}

/// One device's forwarding filter: which of its ports must hear a frame.
///
/// Time-free and transport-free: the [`Bridge`] engine wraps it in
/// the simulator's timing or forwards untimed for a threaded runtime
/// (see the module docs for the rules). The policy also
/// holds the device's slice of the election state: its gossiped views,
/// neighbour liveness stamps, and the [`ActiveTree`] it currently
/// forwards on.
#[derive(Debug, Clone)]
pub struct BridgePolicy {
    layout: SegmentLayout,
    topology: Arc<BridgeTopology>,
    device: usize,
    /// The device's physical ports as a segment-id bitmask.
    ports_mask: HostMask,
    homes: PageHomePolicy,
    aging: AgeHorizon,
    election: ElectionMode,
    priorities: Arc<Vec<u64>>,
    /// This device's beliefs about every device (itself included):
    /// the fabric's one boot table until a belief of *this* device
    /// really changes, its own copy from then on.
    views: Arc<Vec<DeviceView>>,
    /// When each *neighbour* device (sharing ≥ 1 segment) was last
    /// heard from; the hello-timeout input.
    last_heard: Vec<SimTime>,
    /// Per own-port-index: data embargo until this time (the listening
    /// hold-down after a Blocked→Forwarding transition).
    hold_until: Vec<SimTime>,
    /// The active forwarding tree this device currently routes on —
    /// shared with every device that elected the same one at boot,
    /// replaced (never edited) when a re-election changes it.
    active: Arc<ActiveTree>,
    /// Election generation: bumped every time the active tree changes.
    epoch: u64,
    /// Whether a missing holder belief still proves the holder lies
    /// through the home port: true from boot until the active tree
    /// changes or the device rejoins a running fabric — either way it
    /// may have missed the moves that would have taught it a belief.
    trail_intact: bool,
    /// Belief-quality counters: only the `belief_*` and `home_routed`
    /// fields are kept here (merged into the device's [`BridgeStats`]).
    beliefs: BridgeStats,
    /// Page id → slot of the page's filter in `pages`, or [`UNTRACKED`]
    /// while the device has heard nothing of the page: 4 bytes per page
    /// id up to the highest one heard, the only per-page cost an
    /// untouched page has.
    slots: Vec<u32>,
    /// The filters of the pages this device has heard of, one per slot,
    /// in first-touch order.
    pages: Vec<PageFilter>,
    /// Per-port demand stamps of every materialised page, one flat
    /// `slots × ports` slab: slot `s`'s row is
    /// `stamps[s * nports..][..nports]`, parallel to the port list.
    stamps: Vec<PortStamp>,
    /// Transits this device has forwarded — the aging clock.
    clock: u64,
    /// Pages whose filter state changed since the last
    /// [`BridgePolicy::take_dirty`] drain (dedup via
    /// `PageFilter::dirty`).
    dirty_pages: Vec<PageId>,
    /// Structural (non-per-page) observable state changed since the
    /// last drain: views, port liveness, active tree, election epoch,
    /// or hold-downs.
    dirty_struct: bool,
    /// Per device: the view version as of this device's last hello —
    /// a hello needs to re-announce only entries newer than this. One
    /// global watermark (not per-port) suffices because every hello
    /// goes out on all live ports at once.
    last_gossiped: Vec<u64>,
    /// Round-robin anti-entropy cursor: each hello also carries the
    /// next `GOSSIP_WINDOW` unchanged entries, so a peer that missed
    /// history (a revived device) resyncs within
    /// `devices / GOSSIP_WINDOW` hellos.
    gossip_cursor: usize,
}

/// The slot-index entry of a page a device has not heard of.
const UNTRACKED: u32 = u32::MAX;

/// The mask [`BridgePolicy::learned`] and [`BridgePolicy::pinned_segs`]
/// lend for a page without a filter.
static NO_PORTS: HostMask = HostMask::EMPTY;

/// Anti-entropy window width: the unchanged entries each hello carries
/// on top of its own view and its news. A fabric of at most this many
/// devices hears every view in every hello.
const GOSSIP_WINDOW: usize = 8;

/// What every device of one fabric boots from, computed **once per
/// fabric** and shared: the wiring, the configured priorities, the
/// optimistic everybody-alive views ([`BridgeTopology::fresh_views`])
/// and the one tree they elect. The wiring is a validated connected
/// graph, so every observer of those views elects the identical tree —
/// there is nothing per-device to compute at a cold boot or a cold
/// revival, and nothing to copy until a device's beliefs diverge (see
/// the module docs, "Per fabric, per device").
#[derive(Debug)]
pub struct BootState {
    topology: Arc<BridgeTopology>,
    priorities: Arc<Vec<u64>>,
    views: Arc<Vec<DeviceView>>,
    active: Arc<ActiveTree>,
}

impl BootState {
    /// The boot state of a fabric wired as `topology` with per-device
    /// bridge `priorities` (lower wins; missing entries default to 0):
    /// the fabric's one cold election.
    pub fn new(topology: Arc<BridgeTopology>, priorities: Vec<u64>) -> Self {
        let views = topology.fresh_views();
        let active = topology.elect(&priorities, &views, 0);
        BootState {
            topology,
            priorities: Arc::new(priorities),
            views: Arc::new(views),
            active: Arc::new(active),
        }
    }
}

impl BridgePolicy {
    /// The filter of device `device` of `topology`, over `layout`, with
    /// pages homed by `homes` — static election, uniform priorities, a
    /// boot state of its own: the PR 4-compatible stand-alone device.
    /// Fabrics share one [`BootState`] through
    /// [`BridgePolicy::for_device`].
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or the topology's segment
    /// count differs from the layout's.
    pub fn new(
        layout: SegmentLayout,
        topology: Arc<BridgeTopology>,
        device: usize,
        homes: PageHomePolicy,
        aging: AgeHorizon,
    ) -> Self {
        let cfg = FabricConfig::new(BridgeTopology::clone(&topology))
            .with_homes(homes)
            .with_aging(aging);
        Self::for_device(layout, &BootState::new(topology, Vec::new()), device, &cfg)
    }

    /// The filter of one device of a fabric, booted from the fabric's
    /// shared `boot` state with `cfg`'s homes, aging and election
    /// mode. **The** constructor: a first
    /// boot and a cold revival both come through here, and neither
    /// elects — the device starts on the boot tree and the boot views,
    /// by reference.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or the topology's segment
    /// count differs from the layout's.
    pub fn for_device(
        layout: SegmentLayout,
        boot: &BootState,
        device: usize,
        cfg: &FabricConfig,
    ) -> Self {
        let topology = &boot.topology;
        assert_eq!(
            topology.segments(),
            layout.segments(),
            "topology and layout disagree on the segment count"
        );
        assert!(device < topology.bridges(), "device {device} out of range");
        let ports = topology.ports(device);
        debug_assert!(ports.windows(2).all(|w| w[0] < w[1]), "port lists ascend");
        let ports_mask = ports.iter().copied().collect();
        let nports = ports.len();
        BridgePolicy {
            layout,
            topology: Arc::clone(topology),
            device,
            ports_mask,
            homes: cfg.homes.clone(),
            aging: cfg.aging,
            election: cfg.election,
            priorities: Arc::clone(&boot.priorities),
            views: Arc::clone(&boot.views),
            last_heard: vec![SimTime::ZERO; topology.bridges()],
            hold_until: vec![SimTime::ZERO; nports],
            active: Arc::clone(&boot.active),
            epoch: 0,
            trail_intact: true,
            beliefs: BridgeStats::default(),
            slots: Vec::new(),
            pages: Vec::new(),
            stamps: Vec::new(),
            clock: 0,
            dirty_pages: Vec::new(),
            dirty_struct: false,
            last_gossiped: vec![0; topology.bridges()],
            gossip_cursor: 0,
        }
    }

    /// Marks this device as (re)joining an already-running fabric at
    /// `now`: every neighbour's liveness stamp is reset to `now` (a
    /// freshly-booted device has heard nobody *yet* — without this, a
    /// revival at `now ≫ hello_timeout` would declare every neighbour
    /// dead on its first tick), and, under live election, **every port
    /// boots in its hold-down** the way 802.1D boots ports in
    /// Listening: the device's optimistic construction-time tree may
    /// disagree with the converged fabric around it, and forwarding on
    /// it before the first hello exchange could close a transient loop
    /// on a redundant wiring. A rejoined device also floods requests it
    /// holds no belief for: the moves it slept through taught it none.
    pub fn rejoin(&mut self, now: SimTime) {
        self.trail_intact = false;
        for t in &mut self.last_heard {
            *t = now;
        }
        if let ElectionMode::Live { hold_down, .. } = self.election {
            for h in &mut self.hold_until {
                *h = now + hold_down;
            }
        }
        self.dirty_struct = true;
    }

    /// The single device of a 1-bridge star with sticky interest — the
    /// device of [`FabricConfig::star`].
    pub fn star(layout: SegmentLayout, homes: PageHomePolicy) -> Self {
        let topology = Arc::new(BridgeTopology::star(layout.segments()));
        Self::new(layout, topology, 0, homes, AgeHorizon::Sticky)
    }

    /// The host layout the filter routes over.
    pub fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// Which device of the topology this filter belongs to.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The election mode this policy runs.
    pub fn election(&self) -> ElectionMode {
        self.election
    }

    /// The active forwarding tree currently routed on.
    pub fn active(&self) -> &ActiveTree {
        &self.active
    }

    /// How many times the active tree has changed since construction.
    pub fn election_epoch(&self) -> u64 {
        self.epoch
    }

    /// Belief-quality counters: a [`BridgeStats`] with only
    /// `belief_hits`, `home_routed`, `belief_fallback_floods` and
    /// `belief_repairs` set, ready to [`BridgeStats::sum`] with the
    /// engine's traffic counters.
    pub fn belief_counters(&self) -> BridgeStats {
        self.beliefs
    }

    /// The device's live ports: physical ports minus failed links (per
    /// its own self-view).
    pub fn self_live_ports(&self) -> HostMask {
        self.ports_mask.intersection(&self.views[self.device].ports)
    }

    /// Whether `seg` is one of [`BridgePolicy::self_live_ports`], by
    /// borrow — the per-frame question the pickup loop asks of every
    /// device on a segment, which must not build a mask to answer.
    pub(crate) fn port_is_live(&self, seg: usize) -> bool {
        self.ports_mask.contains(seg) && self.views[self.device].ports.contains(seg)
    }

    /// The home segment of `page`.
    pub fn home_of(&self, page: PageId) -> usize {
        self.homes.home_of(page, self.layout.segments())
    }

    /// The port of this device toward `page`'s home segment on the
    /// active tree — always interested, never aged. `None` while the
    /// home segment is partitioned away (no forwarding path exists).
    pub fn home_port(&self, page: PageId) -> Option<usize> {
        self.active.next_hop(self.device, self.home_of(page))
    }

    /// This device's ports (segment ids), ascending.
    fn ports(&self) -> &[usize] {
        self.topology.ports(self.device)
    }

    fn port_index(&self, port: usize) -> usize {
        self.ports()
            .iter()
            .position(|&p| p == port)
            .unwrap_or_else(|| panic!("segment {port} is not a port of device {}", self.device))
    }

    /// The slot of `page`'s filter, materialised on first touch, with
    /// the page queued for the observer's next dirty drain. Every
    /// mutation of a page's filter state goes through here, so this is
    /// the one place page-level dirty marking has to happen.
    fn slot_mut(&mut self, page: PageId) -> usize {
        let slot = match self.slot(page) {
            Some(slot) => slot,
            None => self.materialise(page),
        };
        let f = &mut self.pages[slot];
        if !f.dirty {
            f.dirty = true;
            self.dirty_pages.push(page);
        }
        slot
    }

    /// Slot `slot`'s filter and its row of the stamp slab, for a slot
    /// [`BridgePolicy::slot_mut`] handed out (and dirty-marked) for the
    /// same change.
    fn row_mut(&mut self, slot: usize) -> (&mut PageFilter, &mut [PortStamp]) {
        let nports = self.ports().len();
        (
            &mut self.pages[slot],
            &mut self.stamps[slot * nports..][..nports],
        )
    }

    /// `page`'s filter, materialised and dirty-marked by
    /// [`BridgePolicy::slot_mut`].
    fn filter_mut(&mut self, page: PageId) -> &mut PageFilter {
        let slot = self.slot_mut(page);
        &mut self.pages[slot]
    }

    /// Gives `page`, which the device has not heard of before, a slot:
    /// a default filter and a row of never-stamped ports.
    #[cold]
    fn materialise(&mut self, page: PageId) -> usize {
        let idx = page.index() as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, UNTRACKED);
        }
        let slot = self.pages.len();
        self.slots[idx] = slot as u32;
        self.pages.push(PageFilter::default());
        let nports = self.ports().len();
        self.stamps.resize((slot + 1) * nports, PortStamp::NEVER);
        slot
    }

    /// The slot of `page`'s filter, if the device has heard of the page.
    fn slot(&self, page: PageId) -> Option<usize> {
        let slot = *self.slots.get(page.index() as usize)?;
        (slot != UNTRACKED).then_some(slot as usize)
    }

    /// `page`'s filter, if the device has heard of the page.
    fn filter(&self, page: PageId) -> Option<&PageFilter> {
        self.slot(page).map(|slot| &self.pages[slot])
    }

    /// The stamp-slab row of slot `slot`.
    fn row(&self, slot: usize) -> &[PortStamp] {
        let nports = self.ports().len();
        &self.stamps[slot * nports..][..nports]
    }

    /// Is the last demand evidence `stamp` still within the aging
    /// horizon at `now`?
    fn fresh(&self, stamp: &PortStamp, now: SimTime) -> bool {
        match self.aging {
            AgeHorizon::Sticky => true,
            AgeHorizon::Transits(h) => self.clock.saturating_sub(stamp.clock) <= h,
            AgeHorizon::SimTime(d) => now.since(stamp.at) <= d,
        }
    }

    /// May this device carry data on its `i`th port (segment `port`)
    /// right now? The active tree's Forwarding ports, minus any still
    /// in their post-election hold-down.
    fn carries(&self, i: usize, port: usize, now: SimTime) -> bool {
        self.active.forwards(self.device, port)
            && !(self.election.is_live() && self.hold_until[i] > now)
    }

    /// What decides, port by port, whether `page` (whose filter sits in
    /// `slot`, if it has one) has its data wanted at `now`: everything
    /// the forwarding rules read about the page, looked up once per
    /// frame.
    fn interest_in(&self, page: PageId, slot: Option<usize>, now: SimTime) -> Interest<'_> {
        let filter = slot.map(|slot| (&self.pages[slot], self.row(slot)));
        Interest {
            policy: self,
            now,
            home: self.home_port(page),
            // Pins name segments anywhere in the fabric; resolve them to
            // own ports through the active tree — only when there are
            // any, which on the data path there almost never are.
            pins: filter
                .filter(|(f, _)| !f.pinned_segs.is_empty())
                .map(|(f, _)| {
                    (f.pinned_segs.iter())
                        .filter_map(|seg| self.active.next_hop(self.device, seg))
                        .collect()
                }),
            learned: filter.map(|(f, row)| (&f.learned, row)),
        }
    }

    /// [`BridgePolicy::interested`] collected over every port, for the
    /// unit tests.
    #[cfg(test)]
    fn interest(&self, page: PageId, now: SimTime) -> HostMask {
        let interest = self.interest_in(page, self.slot(page), now);
        (self.ports().iter().enumerate())
            .filter(|&(i, &port)| interest.covers(i, port))
            .map(|(_, &port)| port)
            .collect()
    }

    /// Does port `port` want `page`'s publications at `now`? It does
    /// when it is a fresh learned port, a pin (resolved through the
    /// active tree) or the home port. (The believed-holder port is
    /// request routing state, not interest — data is not forwarded
    /// toward a holder nobody asked from.) The per-port test data
    /// forwarding applies.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a port of this device.
    pub fn interested(&self, page: PageId, port: usize, now: SimTime) -> bool {
        let interest = self.interest_in(page, self.slot(page), now);
        interest.covers(self.port_index(port), port)
    }

    /// The port toward the believed consistent holder of `page`, if any
    /// data transit or `transfer_to` has taught this device one.
    pub fn holder_port(&self, page: PageId) -> Option<usize> {
        self.filter(page).and_then(|f| f.holder.map(usize::from))
    }

    // -----------------------------------------------------------------
    // Introspection: the read-only surface the invariant observer
    // (`mether_sim::Simulation::check_invariants`) cross-checks device
    // state through. Everything here reads existing fields; none of it
    // is on the forwarding path.
    // -----------------------------------------------------------------

    /// The device's *physical* ports as a segment-id bitmask — failed
    /// links included (see [`BridgePolicy::self_live_ports`] for the
    /// live subset).
    pub fn ports_mask(&self) -> &HostMask {
        &self.ports_mask
    }

    /// The interest-aging horizon this policy runs.
    pub fn aging(&self) -> AgeHorizon {
        self.aging
    }

    /// Transits this device has forwarded so far — the clock
    /// [`AgeHorizon::Transits`] freshness is measured against. Every
    /// per-port demand stamp was taken at or below this value.
    pub fn aging_clock(&self) -> u64 {
        self.clock
    }

    /// The ids of the pages this device has heard of — those with a
    /// materialised filter (learned interest, pins, demand stamps, a
    /// holder belief, or all of them still at their defaults) — in
    /// ascending id order. A page the device never heard of has no
    /// filter and answers every query as a default one would.
    pub fn tracked_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (self.slots.iter().enumerate())
            .filter(|&(_, &slot)| slot != UNTRACKED)
            .map(|(i, _)| PageId::new(i as u32))
    }

    /// The raw learned-interest port mask of `page` — unaged; the
    /// effective, freshness-filtered view is
    /// [`BridgePolicy::interested`].
    pub fn learned(&self, page: PageId) -> &HostMask {
        self.filter(page).map_or(&NO_PORTS, |f| &f.learned)
    }

    /// The segments explicitly pinned to `page` via
    /// [`BridgePolicy::subscribe`]. Pins name segments, not ports; they
    /// resolve through the active tree at use time.
    pub fn pinned_segs(&self, page: PageId) -> &HostMask {
        self.filter(page).map_or(&NO_PORTS, |f| &f.pinned_segs)
    }

    /// Last demand evidence of `page` per port of this device, parallel
    /// to `topology.ports(device)`: the page's row of the stamp slab.
    /// `None` while the page has no materialised filter.
    pub fn stamps(&self, page: PageId) -> Option<&[PortStamp]> {
        self.slot(page).map(|slot| self.row(slot))
    }

    /// The newest data generation any transit has shown this device for
    /// `page` — the gate that keeps stale `Want::Superset` echoes from
    /// repointing the holder belief.
    pub fn newest_gen(&self, page: PageId) -> Option<mether_core::Generation> {
        self.filter(page).and_then(|f| f.newest_gen)
    }

    /// This device's gossiped liveness beliefs, indexed by device (its
    /// own entry included).
    pub fn views(&self) -> &[DeviceView] {
        &self.views
    }

    /// The ports still inside their post-election listening hold-down
    /// at `now` — forwarding-role ports the data plane must not use yet.
    pub fn held_ports(&self, now: SimTime) -> HostMask {
        let mut m = HostMask::EMPTY;
        if self.election.is_live() {
            for (i, &port) in self.ports().iter().enumerate() {
                if self.hold_until[i] > now {
                    m.insert(port);
                }
            }
        }
        m
    }

    /// Drains this device's dirty state for the incremental invariant
    /// observer: the pages whose filter state changed since the last
    /// drain (deduplicated), and whether structural state (views, port
    /// liveness, active tree, election epoch, hold-downs) changed.
    pub fn take_dirty(&mut self) -> (Vec<PageId>, bool) {
        let structural = std::mem::take(&mut self.dirty_struct);
        let pages = std::mem::take(&mut self.dirty_pages);
        for &p in &pages {
            if let Some(slot) = self.slot(p) {
                self.pages[slot].dirty = false;
            }
        }
        (pages, structural)
    }

    /// Pending dirty state without draining it: `(dirty page count,
    /// structural flag)`.
    pub fn dirty_counts(&self) -> (usize, bool) {
        (self.dirty_pages.len(), self.dirty_struct)
    }

    /// Test-only fault injection: forcibly records learned interest for
    /// `page` on `segment` — which need not be a port of this device,
    /// deliberately violating the learned ⊆ physical-ports invariant
    /// the observer checks. Goes through the ordinary mutation path, so
    /// it registers in the dirty set like a real bug in the learning
    /// code would.
    #[doc(hidden)]
    pub fn corrupt_learned_for_test(&mut self, page: PageId, segment: usize) {
        self.filter_mut(page).learned.insert(segment);
    }

    /// Whether a missing holder belief on this device still proves the
    /// holder lies through the page's home port (see the module docs,
    /// "The probable-owner trail"): from boot until the device's active
    /// tree changes or it rejoins a running fabric.
    pub fn trail_intact(&self) -> bool {
        self.trail_intact
    }

    /// Test-only fault injection: forcibly points `page`'s holder
    /// belief at `segment` — which need not be a port of this device —
    /// or, with `None`, erases it. See
    /// [`BridgePolicy::corrupt_learned_for_test`].
    #[doc(hidden)]
    pub fn corrupt_holder_belief_for_test(&mut self, page: PageId, segment: Option<usize>) {
        self.filter_mut(page).holder = segment.map(|s| s as u16);
    }

    /// Statically subscribes segment `seg` to `page`'s transits: this
    /// device pins `seg`, resolved to its port toward `seg` through
    /// whatever active tree is current. Pins never age out and survive
    /// reconvergence.
    ///
    /// Needed when a segment's only consumers of a page are *data-driven*
    /// readers: a data-driven fault "does not send out a request" (the
    /// paper's completely passive fault), so there is no frame for the
    /// fabric to learn that segment's interest from.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn subscribe(&mut self, page: PageId, seg: usize) {
        assert!(
            seg < self.layout.segments(),
            "segment {seg} >= {}",
            self.layout.segments()
        );
        self.filter_mut(page).pinned_segs.insert(seg);
    }

    /// The consistent copy of `page` was just created on segment `seg`,
    /// before any frame of it has crossed the fabric: if this device
    /// lies between the page's home and `seg`, its holder belief now
    /// points toward `seg`. A management-plane step like
    /// [`BridgePolicy::subscribe`], and the one case where a device's
    /// missing belief would not mean "homeward" (see the module docs,
    /// "The probable-owner trail").
    pub fn seed_holder(&mut self, page: PageId, seg: usize) {
        let home = self.home_port(page);
        if let Some(port) = self.active.next_hop(self.device, seg) {
            if Some(port) != home {
                self.filter_mut(page).holder = Some(port as u16);
            }
        }
    }

    /// The segment a transfer target host sits on, if the host id is in
    /// range (wire-decoded frames can carry garbage ids).
    fn transfer_segment(&self, transfer_to: &Option<HostId>) -> Option<usize> {
        transfer_to.as_ref().and_then(|h| {
            ((h.0 as usize) < self.layout.hosts()).then(|| self.layout.segment_of(h.0 as usize))
        })
    }

    /// This device's port toward the segment of a transfer target, if
    /// the target is valid and its segment reachable.
    fn transfer_port(&self, transfer_to: &Option<HostId>) -> Option<usize> {
        self.transfer_segment(transfer_to)
            .and_then(|seg| self.active.next_hop(self.device, seg))
    }

    /// Updates the learning tables (the filter in `slot`) for one frame
    /// heard on the device's `in_idx`th port (segment `in_port`) at
    /// `now`.
    fn learn(&mut self, pkt: &Packet, slot: usize, in_idx: usize, in_port: usize, now: SimTime) {
        let clock = self.clock;
        match pkt {
            Packet::PageRequest { .. } => {
                // The requester's side now wants this page's transits:
                // the reply must route back out this port (the pending
                // marker, which no aging horizon expires), and later
                // publications too (learned interest).
                let (f, row) = self.row_mut(slot);
                f.learned.insert(in_port);
                row[in_idx] = PortStamp {
                    clock,
                    at: now,
                    requested_at: now,
                };
            }
            Packet::PageData {
                transfer_to,
                generation,
                ..
            }
            | Packet::PageReply {
                transfer_to,
                generation,
                ..
            } => {
                let transfer = self
                    .transfer_port(transfer_to)
                    .map(|port| (self.port_index(port), port));
                let (f, row) = self.row_mut(slot);
                let mut demand = |f: &mut PageFilter, i: usize, port: usize| {
                    f.learned.insert(port);
                    (row[i].clock, row[i].at) = (clock, now);
                };
                // The sending side holds copies (at least the sender's
                // own); keep it refreshed once consistency moves on.
                demand(f, in_idx, in_port);
                let mut repairs = 0;
                // The data also came *from* the holder's direction —
                // the belief request routing follows — but only when it
                // advances the page's generation: the holder's replies
                // and purge broadcasts always do, while a stale echo (a
                // non-holder's `Want::Superset` reply) must not repoint
                // the belief away from the live holder.
                if f.newest_gen.is_none_or(|g| generation.newer_than(g)) {
                    f.newest_gen = Some(*generation);
                    repairs += u64::from(f.point_holder(in_port));
                }
                // A consistency transfer must reach the new holder, that
                // side stays interested from then on, and the belief
                // follows the move unconditionally — `transfer_to`
                // names the new holder explicitly.
                if let Some((i, port)) = transfer {
                    demand(f, i, port);
                    repairs += u64::from(f.point_holder(port));
                }
                self.beliefs.belief_repairs += repairs;
            }
            Packet::BridgePdu { .. } => {}
        }
    }

    /// The index of `in_port` among this device's ports, if a frame
    /// heard on it at `now` enters the data plane at all: a frame heard
    /// on a Blocked or held-down port is neither learned from nor
    /// forwarded — the dormant redundancy stays invisible.
    fn ingress(&self, in_port: usize, now: SimTime) -> Option<usize> {
        let i = self.ports().iter().position(|&p| p == in_port)?;
        self.carries(i, in_port, now).then_some(i)
    }

    /// Calls `emit` with each port a frame heard on `in_port` at `now`
    /// may leave through and that `wanted(port index, port)` asks for,
    /// ascending: **the** walk over the device's port list that every
    /// forwarding decision is made by. Nothing leaves through the port
    /// it came in on or through a port that is Blocked or held down.
    fn egress(
        &self,
        in_port: usize,
        now: SimTime,
        wanted: impl Fn(usize, usize) -> bool,
        mut emit: impl FnMut(usize),
    ) {
        for (i, &port) in self.ports().iter().enumerate() {
            if port != in_port && self.carries(i, port, now) && wanted(i, port) {
                emit(port);
            }
        }
    }

    /// How a request asking `want`, for the page whose filter sits in
    /// `slot` (if it has one), leaves this device.
    fn request_route(&self, slot: Option<usize>, want: Want) -> RequestRoute {
        // Any host still holding a full copy may answer a Superset
        // request, so no single holder direction covers it.
        if want == Want::Superset {
            return RequestRoute::Superset;
        }
        match slot.and_then(|slot| self.pages[slot].holder) {
            Some(holder) => RequestRoute::Holder(holder.into()),
            // No belief: the holder is homeward (the module docs' "The
            // probable-owner trail") — unless this device may have
            // missed the moves that would have taught it otherwise.
            None if self.trail_intact => RequestRoute::Home,
            None => RequestRoute::Fallback,
        }
    }

    /// The forwarding decision for one frame that entered through
    /// `in_port` at `now` ([`BridgePolicy::ingress`] admitted it), its
    /// page's filter in `slot` (if it has one), with no learning side
    /// effects: `emit` is called with each target port, ascending.
    fn each_target(
        &self,
        pkt: &Packet,
        slot: Option<usize>,
        in_port: usize,
        now: SimTime,
        emit: impl FnMut(usize),
    ) {
        match pkt {
            Packet::PageRequest { page, want, .. } => {
                let holder = match self.request_route(slot, *want) {
                    RequestRoute::Superset | RequestRoute::Fallback => {
                        return self.egress(in_port, now, |_, _| true, emit);
                    }
                    RequestRoute::Holder(holder) => Some(holder),
                    RequestRoute::Home => None,
                };
                // Toward the believed holder, *anchored at the home
                // port*: the home is where the consistent copy is
                // seeded (and, under workload-derived placement, where
                // the dominant writer keeps it), so a belief that has
                // gone bad — taught by a frame the live holder's
                // traffic never corrected — still lands the request
                // where a holder is most likely to answer, and the
                // reply repairs the belief. When the belief (and home)
                // point back where the frame came from, the request is
                // already travelling in the right direction and another
                // device on that segment continues the chase —
                // forwarding elsewhere cannot reach the holder sooner.
                // With no belief the home alone is the direction, and
                // nowhere is when the request came from there.
                let home = self.home_port(*page);
                self.egress(
                    in_port,
                    now,
                    |_, port| Some(port) == holder || Some(port) == home,
                    emit,
                );
            }
            Packet::PageData {
                page, transfer_to, ..
            }
            | Packet::PageReply {
                page, transfer_to, ..
            } => {
                // A publication goes wherever the page has interest; a
                // reply only back toward the requests it answers. Both
                // follow a consistency move to its new holder.
                let interest = self.interest_in(*page, slot, now);
                let transfer = self.transfer_port(transfer_to);
                let reply = pkt.is_reply();
                self.egress(
                    in_port,
                    now,
                    |i, port| {
                        Some(port) == transfer
                            || if reply {
                                interest.asked(i, port)
                            } else {
                                interest.covers(i, port)
                            }
                    },
                    emit,
                );
            }
            Packet::BridgePdu { .. } => {}
        }
    }

    /// Routes one frame heard on `in_port` at `now`: updates the
    /// learning tables, leaves the ports the frame must be forwarded to
    /// in `out`, ascending (never `in_port`), and ticks the aging clock
    /// when the frame is forwarded. A frame heard on a Blocked (or
    /// held-down) port is neither learned from nor forwarded — the
    /// dormant redundancy stays invisible to the data plane. What a
    /// [`Bridge`] calls for every frame it hears, with a buffer it
    /// reuses, so routing a frame allocates nothing.
    pub fn route_into(&mut self, pkt: &Packet, in_port: usize, now: SimTime, out: &mut Vec<usize>) {
        out.clear();
        debug_assert!(
            self.ports_mask.contains(in_port),
            "device {} has no port on segment {in_port}",
            self.device
        );
        if pkt.is_control() {
            return; // control plane goes via hear_pdu
        }
        let Some(in_idx) = self.ingress(in_port, now) else {
            return;
        };
        let slot = self.slot_mut(pkt.page());
        self.learn(pkt, slot, in_idx, in_port, now);
        if let Packet::PageRequest { want, .. } = pkt {
            match self.request_route(Some(slot), *want) {
                RequestRoute::Superset => {}
                RequestRoute::Holder(_) => self.beliefs.belief_hits += 1,
                RequestRoute::Home => self.beliefs.home_routed += 1,
                RequestRoute::Fallback => self.beliefs.belief_fallback_floods += 1,
            }
        }
        self.each_target(pkt, Some(slot), in_port, now, |port| out.push(port));
        if pkt.is_reply() {
            self.answer_pending(slot, out);
        }
        if !out.is_empty() {
            self.clock += 1;
        }
    }

    /// A reply for the page in `slot` leaves through `out`: the
    /// requests pending on those ports are answered, so their markers
    /// clear.
    fn answer_pending(&mut self, slot: usize, out: &[usize]) {
        let ports = self.topology.ports(self.device);
        let row = &mut self.stamps[slot * ports.len()..][..ports.len()];
        for (stamp, port) in row.iter_mut().zip(ports) {
            if out.contains(port) {
                stamp.requested_at = SimTime::ZERO;
            }
        }
    }

    /// [`BridgePolicy::route_into`] collected into a mask, for the unit
    /// tests. Definitionally learn-then-`targets` (and,
    /// for a reply, clear the pending marks it answered), so the
    /// diagnostic mask can never drift from what the device actually
    /// forwards.
    #[cfg(test)]
    fn route(&mut self, pkt: &Packet, in_port: usize, now: SimTime) -> HostMask {
        let mut ports = Vec::new();
        self.route_into(pkt, in_port, now, &mut ports);
        ports.into_iter().collect()
    }

    /// The forwarding mask of one frame heard on `in_port` at `now`,
    /// with no learning side effects, for the unit tests (the
    /// `transfer_to` port is included even before learning records it).
    #[cfg(test)]
    fn targets(&self, pkt: &Packet, in_port: usize, now: SimTime) -> HostMask {
        let mut m = HostMask::EMPTY;
        if self.ingress(in_port, now).is_some() {
            let slot = self.slot(pkt.page());
            self.each_target(pkt, slot, in_port, now, |port| m.insert(port));
        }
        m
    }

    // -----------------------------------------------------------------
    // The control plane: gossip, timeouts, re-election.
    // -----------------------------------------------------------------

    /// The hello this device emits right now, spoken as its fabric
    /// endpoint id: a sparse [`Packet::BridgePdu`] carrying the device's
    /// own view, every view whose version advanced since the previous
    /// emission, and the next `GOSSIP_WINDOW` entries of a rotating
    /// anti-entropy window; the announcement watermarks advance as a
    /// side effect.
    pub fn pdu_for_emission(&mut self) -> Packet {
        let n = self.views.len();
        let mut include = vec![false; n];
        include[self.device] = true;
        for (d, inc) in include.iter_mut().enumerate() {
            if self.views[d].version > self.last_gossiped[d] {
                *inc = true;
            }
        }
        let window = GOSSIP_WINDOW.min(n);
        for k in 0..window {
            include[(self.gossip_cursor + k) % n] = true;
        }
        self.gossip_cursor = (self.gossip_cursor + window) % n;
        let entries = (0..n)
            .filter(|&d| include[d])
            .map(|d| {
                self.last_gossiped[d] = self.views[d].version;
                (d as u16, self.views[d].clone())
            })
            .collect();
        Packet::BridgePdu {
            from: HostId(BRIDGE_HOST_BASE + self.device as u16),
            device: self.device as u16,
            entries,
        }
    }

    /// Ingests a hello from device `from_device` at `now`: refreshes the
    /// sender's liveness stamp, merges its gossiped entries (higher
    /// version wins, dead wins ties), rebuts any obituary of *this*
    /// device, and re-elects when anything changed. Entries naming no
    /// device of the fabric are ignored. The caller vouches for
    /// `from_device`: its fabric checks each hello's `device` field
    /// against the frame's emitter before it gets here.
    pub fn hear_pdu(
        &mut self,
        from_device: usize,
        entries: &[(u16, DeviceView)],
        now: SimTime,
    ) -> PduOutcome {
        let mut out = PduOutcome::default();
        if from_device < self.last_heard.len() {
            self.last_heard[from_device] = now;
        }
        for (d, theirs) in entries {
            let d = *d as usize;
            if d >= self.views.len() {
                continue;
            }
            if self.merge_gossiped(d, theirs) {
                out.view_changed = true;
            }
        }
        if out.view_changed {
            self.dirty_struct = true;
            out.active_changed = self.recompute(now);
        }
        out
    }

    /// Merges one gossiped view into this device's belief table.
    /// Returns whether anything changed. Compares before it writes: the
    /// table may be the fabric's shared one, and hearing nothing new
    /// must not copy it.
    fn merge_gossiped(&mut self, d: usize, theirs: &DeviceView) -> bool {
        let mine = &self.views[d];
        if d == self.device {
            // Self-defence: a circulating obituary (or stale port
            // set) about us is rebutted with a higher version — a
            // live device always out-versions its own death.
            if theirs.version >= mine.version && (!theirs.alive || theirs.ports != mine.ports) {
                Arc::make_mut(&mut self.views)[d].version = theirs.version + 1;
                return true;
            }
            return false;
        }
        // The sender vouches for itself at least as strongly as its
        // own entry says; ordinary merge covers that too.
        if !mine.superseded_by(theirs) {
            return false;
        }
        Arc::make_mut(&mut self.views)[d].clone_from(theirs);
        true
    }

    /// One hello-cadence tick at `now`: declares any neighbour silent
    /// past the hello timeout dead (versioned obituary, gossiped from
    /// here on), and re-elects if that changed anything. No-op under
    /// static election.
    pub fn on_tick(&mut self, now: SimTime) -> PduOutcome {
        let mut out = PduOutcome::default();
        let ElectionMode::Live { hello_timeout, .. } = self.election else {
            return out;
        };
        let my_live = self.self_live_ports();
        for d in 0..self.topology.bridges() {
            if d == self.device || !self.views[d].alive {
                continue;
            }
            // Only neighbours — devices we'd hear hellos from directly —
            // are subject to *our* timeout; everyone else's liveness is
            // gossip.
            let shares: HostMask = self.topology.ports(d).iter().copied().collect();
            if shares
                .intersection(&self.views[d].ports)
                .intersection(&my_live)
                .is_empty()
            {
                continue;
            }
            if now.since(self.last_heard[d]) > hello_timeout {
                let v = &mut Arc::make_mut(&mut self.views)[d];
                v.version += 1; // the odd obituary version
                v.alive = false;
                out.view_changed = true;
            }
        }
        if out.view_changed {
            self.dirty_struct = true;
            out.active_changed = self.recompute(now);
        }
        out
    }

    /// Fails this device's attachment to `segment`: the port drops out
    /// of its live set (self-version advances by 2, staying even), and
    /// the device re-elects over its surviving ports.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of this device.
    pub fn kill_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        assert!(
            self.ports_mask.contains(segment),
            "device {} has no port on segment {segment}",
            self.device
        );
        let v = &mut Arc::make_mut(&mut self.views)[self.device];
        v.ports.remove(segment);
        v.version += 2;
        self.dirty_struct = true;
        PduOutcome {
            view_changed: true,
            active_changed: self.recompute(now),
        }
    }

    /// Restores this device's attachment to `segment` after a
    /// [`BridgePolicy::kill_port`]: the port rejoins its live set
    /// (self-version advances by 2, staying even) and the device
    /// re-elects over the restored wiring — any port whose role changes
    /// arms its hold-down exactly as after a hello-driven re-election.
    /// A no-op (beyond the version bump) if the port was already live.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of this device.
    pub fn revive_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        assert!(
            self.ports_mask.contains(segment),
            "device {} has no port on segment {segment}",
            self.device
        );
        let v = &mut Arc::make_mut(&mut self.views)[self.device];
        v.ports.insert(segment);
        v.version += 2;
        self.dirty_struct = true;
        PduOutcome {
            view_changed: true,
            active_changed: self.recompute(now),
        }
    }

    /// Sets this device's self-assertion version — used when a device
    /// restarts, to start above any obituary still in circulation
    /// (`2 × restarts` keeps it even and strictly above the odd
    /// obituary of every previous life).
    pub fn set_self_version(&mut self, version: u64) {
        // A first boot asserts the version the shared boot views
        // already carry; only a revival has something to write.
        if self.views[self.device].version != version {
            Arc::make_mut(&mut self.views)[self.device].version = version;
        }
        self.dirty_struct = true;
    }

    /// Re-runs the election over the current views; on an active-tree
    /// change, flushes learned interest and holder beliefs on every own
    /// port whose role changed, arms the hold-down on ports that just
    /// started forwarding, and from then on floods requests it holds no
    /// belief for. Returns whether the tree changed.
    fn recompute(&mut self, now: SimTime) -> bool {
        // Incremental: hello chatter re-elects constantly, and almost
        // always lands on the identical tree — elect_from then skips
        // the per-destination table derivation and says so, and the
        // tree this device holds (often still the fabric's shared one)
        // stays where it is.
        let Some(new) =
            self.topology
                .elect_from(&self.priorities, &self.views, self.device, &self.active)
        else {
            return false;
        };
        let old_fwd = self.active.forwarding(self.device);
        let new_fwd = new.forwarding(self.device);
        let changed_roles = old_fwd.symmetric_difference(&new_fwd);
        for port in changed_roles {
            self.flush_port(port);
            if new_fwd.contains(port) {
                if let ElectionMode::Live { hold_down, .. } = self.election {
                    let i = self.port_index(port);
                    self.hold_until[i] = now + hold_down;
                }
            }
        }
        self.active = Arc::new(new);
        self.epoch += 1;
        self.trail_intact = false;
        self.dirty_struct = true;
        true
    }

    /// Forgets everything learned through `port`: its learned-interest
    /// bits, demand stamps, and any holder belief pointing out of it.
    /// Called when the port's role changed — on the new tree those
    /// directions are meaningless, and a stale belief would bounce
    /// requests into the dead part of the fabric.
    fn flush_port(&mut self, port: usize) {
        let i = self.port_index(port);
        let nports = self.ports().len();
        // Walked through the index, so the dirty pushes keep page order.
        for (idx, &slot) in self.slots.iter().enumerate() {
            if slot == UNTRACKED {
                continue;
            }
            let slot = slot as usize;
            let f = &mut self.pages[slot];
            f.learned.remove(port);
            self.stamps[slot * nports + i] = PortStamp::NEVER;
            if f.holder == Some(port as u16) {
                f.holder = None;
                // Let the next reply re-teach the belief from scratch:
                // post-reconvergence data may legitimately arrive with a
                // generation the old path already reported.
                f.newest_gen = None;
            }
            if !f.dirty {
                f.dirty = true;
                self.dirty_pages.push(PageId::new(idx as u32));
            }
        }
    }
}

/// One store-and-forward bridge device: a [`BridgePolicy`] wrapped in
/// the simulator's timing, queueing, and fault-injection engine.
#[derive(Debug)]
pub struct Bridge {
    cfg: BridgeConfig,
    policy: BridgePolicy,
    /// When the forwarding engine next falls idle.
    free_at: SimTime,
    /// Exit times of frames currently queued in the device.
    backlog: VecDeque<SimTime>,
    rng: StdRng,
    stats: BridgeStats,
    /// Counters inherited from this device's previous life (a revival
    /// cold-resets the filter, not the run's accounting).
    carryover: BridgeStats,
    /// The last pickup's target ports and egress schedule: buffers the
    /// device reuses, so a pickup allocates nothing.
    targets: Vec<usize>,
    egress: Vec<(usize, SimTime)>,
}

impl Bridge {
    /// A quiet device running `policy` with engine knobs `cfg`.
    pub fn new(policy: BridgePolicy, cfg: BridgeConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Bridge {
            cfg,
            policy,
            free_at: SimTime::ZERO,
            backlog: VecDeque::new(),
            rng,
            stats: BridgeStats::default(),
            carryover: BridgeStats::default(),
            targets: Vec::new(),
            egress: Vec::new(),
        }
    }

    /// Seeds the device's counters with `base` — the accounting of its
    /// previous life across a kill/revive cycle, so end-of-run metrics
    /// never under-count (or appear to run backwards over) a revival.
    #[must_use]
    pub fn with_stats_base(mut self, base: BridgeStats) -> Self {
        self.carryover = base;
        self
    }

    /// The single device of a 1-bridge star over `layout` — PR 3's
    /// bridge.
    pub fn star(layout: SegmentLayout, homes: PageHomePolicy, cfg: BridgeConfig) -> Self {
        Self::new(BridgePolicy::star(layout, homes), cfg)
    }

    /// The forwarding filter (interest tables, homes, holder beliefs,
    /// election state).
    pub fn policy(&self) -> &BridgePolicy {
        &self.policy
    }

    /// Mutable access to the filter — the control plane (hello ticks,
    /// gossip, failure injection) goes through here.
    pub fn policy_mut(&mut self) -> &mut BridgePolicy {
        &mut self.policy
    }

    /// Statically subscribes segment `seg` to `page` (see
    /// [`BridgePolicy::subscribe`]).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn subscribe(&mut self, page: PageId, seg: usize) {
        self.policy.subscribe(page, seg);
    }

    /// Cumulative traffic counters of this device: engine counters,
    /// the policy's belief-quality counters, and anything carried over
    /// from a previous life.
    pub fn stats(&self) -> BridgeStats {
        BridgeStats::sum([self.carryover, self.stats, self.policy.belief_counters()])
    }

    /// The device's port on `in_port` finished receiving `pkt` at
    /// `arrival`. Returns the egress schedule: one `(destination
    /// segment, exit time)` pair per frame copy per destination. The
    /// caller transmits each copy on the destination segment's medium at
    /// its exit time (where it queues like a locally-sent frame, and
    /// where the *other* devices on that segment pick it up to forward
    /// it further along the tree). Control frames never enter the data
    /// engine; they are consumed by [`BridgePolicy::hear_pdu`]. The
    /// schedule is lent from a buffer the next pickup overwrites.
    pub fn pickup(
        &mut self,
        pkt: &Packet,
        in_port: usize,
        arrival: SimTime,
    ) -> &[(usize, SimTime)] {
        self.egress.clear();
        if pkt.is_control() || !self.route(pkt, in_port, arrival) {
            return &self.egress;
        }
        // Store-and-forward queue: retire frames that have exited, then
        // tail-drop if the buffer is still full.
        while self.backlog.front().is_some_and(|&t| t <= arrival) {
            self.backlog.pop_front();
        }
        if self.backlog.len() >= self.cfg.queue_frames {
            self.stats.queue_drops += 1;
            return &self.egress;
        }
        if self.cfg.drop > 0.0 && self.rng.gen::<f64>() < self.cfg.drop {
            self.stats.dropped += 1;
            return &self.egress;
        }
        let copies = if self.cfg.duplicate > 0.0 && self.rng.gen::<f64>() < self.cfg.duplicate {
            2
        } else {
            1
        };
        for copy in 0..copies {
            // Each copy occupies its own queue slot; a duplicated
            // frame's second copy is tail-dropped like any other frame
            // when the buffer is full (the first copy's slot was
            // guaranteed by the check above).
            if self.backlog.len() >= self.cfg.queue_frames {
                self.stats.queue_drops += 1;
                break;
            }
            let exit = arrival.max(self.free_at) + self.cfg.forward_delay;
            self.free_at = exit;
            self.backlog.push_back(exit);
            self.egress
                .extend(self.targets.iter().map(|&dst| (dst, exit)));
            self.count_emissions(pkt, copy > 0);
        }
        &self.egress
    }

    /// Counts `pkt` heard on `in_port` at `now` and routes it into the
    /// target buffer. False (counted as filtered) when it goes nowhere.
    fn route(&mut self, pkt: &Packet, in_port: usize, now: SimTime) -> bool {
        self.stats.heard += 1;
        self.policy.route_into(pkt, in_port, now, &mut self.targets);
        if self.targets.is_empty() {
            self.stats.filtered += 1;
        }
        !self.targets.is_empty()
    }

    /// Counts one copy of `pkt` leaving through every target port;
    /// `duplicate` marks the duplicate knob's extra copy.
    fn count_emissions(&mut self, pkt: &Packet, duplicate: bool) {
        let n = self.targets.len() as u64;
        self.stats.forwarded += n;
        self.stats.bytes_forwarded += n * pkt.wire_size() as u64;
        if matches!(pkt, Packet::PageRequest { .. }) {
            self.stats.req_forwarded += n;
        }
        if duplicate {
            self.stats.duplicated += n;
        }
    }
}

/// One forwarded frame copy leaving a device of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forward {
    /// The device that forwarded the frame (excluded from pickup when
    /// the copy lands on the destination segment).
    pub device: usize,
    /// The segment the copy is transmitted on.
    pub dst: usize,
    /// When the copy exits the device (transmission on `dst` starts
    /// then, queueing behind that segment's own traffic).
    pub exit: SimTime,
}

/// One control frame a device wants transmitted on one of its segments
/// (a hello, periodic or triggered). The caller clocks it out on the
/// segment's medium; bridge devices — not hosts — pick it up there.
#[derive(Debug, Clone)]
pub struct ControlOut {
    /// The emitting device.
    pub device: usize,
    /// The segment to transmit on.
    pub seg: usize,
    /// The hello frame itself.
    pub pkt: Packet,
}

/// Every bridge device of a segmented deployment, wired per the
/// topology: data plane, control plane and fault plane, driven by the
/// simulator's event loop and by a threaded runtime's bridge threads
/// alike (see the module docs, "Engine").
#[derive(Debug)]
pub struct Fabric {
    layout: SegmentLayout,
    /// The construction config, kept whole so revivals rebuild devices
    /// from exactly what the fabric was built from. (Its `topology`
    /// and `priorities` are also shared out through `boot` — those are
    /// the copies the per-device policies hold.)
    cfg: FabricConfig,
    /// What every device boots from, at construction and at every cold
    /// revival: the fabric's one election, shared by reference.
    boot: BootState,
    devices: Vec<Bridge>,
    /// Injected liveness, indexed by device. A dead device neither
    /// forwards nor speaks.
    dead: Vec<bool>,
    /// How many times each device has been revived (versions the
    /// restart's self-assertions above old obituaries).
    restarts: Vec<u64>,
    /// Injected link failures per device, re-applied if the device is
    /// revived (a revival does not magically repair its cables).
    lost_ports: Vec<HostMask>,
    /// Reconvergence-stall probe: armed at a `BridgeDown`, resolved at
    /// the first page copy forwarded by a device that has re-elected
    /// since.
    down_at: Option<SimTime>,
    epochs_at_down: Vec<u64>,
    stall: Option<SimDuration>,
    /// Active-tree changes across all devices (0 under static election
    /// or an undisturbed fabric).
    reconvergences: u64,
    /// Control frames rejected for a contradictory or out-of-range
    /// wire-decoded `device` field (merged into [`Fabric::stats`]).
    malformed_pdus: u64,
    /// Every injected fabric event, in injection order.
    timeline: Vec<(SimTime, FabricEvent)>,
    /// Device liveness changed (a down or a revival) since the last
    /// [`Fabric::take_dirty`] drain — the fabric-wide structural flag
    /// for the incremental invariant observer.
    dirty_liveness: bool,
    /// The last pickup's combined egress schedule (reused buffer).
    out: Vec<Forward>,
}

impl Fabric {
    /// Builds the fabric over `layout` from `cfg`: one [`Bridge`] per
    /// device of the topology, each with its own filter, backlog, and
    /// fault-injection RNG (seeded `cfg.bridge.seed + device`), all
    /// booted from the one [`BootState`] elected here.
    ///
    /// # Panics
    ///
    /// Panics if the topology's segment count differs from the layout's.
    pub fn new(layout: SegmentLayout, cfg: FabricConfig) -> Self {
        let boot = BootState::new(Arc::new(cfg.topology.clone()), cfg.priorities.clone());
        let n = boot.topology.bridges();
        let mut fabric = Fabric {
            layout,
            cfg,
            boot,
            devices: Vec::with_capacity(n),
            dead: vec![false; n],
            restarts: vec![0; n],
            lost_ports: vec![HostMask::EMPTY; n],
            down_at: None,
            epochs_at_down: vec![0; n],
            stall: None,
            reconvergences: 0,
            malformed_pdus: 0,
            timeline: Vec::new(),
            dirty_liveness: false,
            out: Vec::new(),
        };
        fabric.devices = (0..n)
            .map(|device| fabric.build_device(device, 0, HostMask::EMPTY))
            .collect();
        fabric
    }

    /// One device built from the fabric's config: `self_version` seeds
    /// its self-assertion (0 at first boot, `2 × restarts` on a
    /// revival), `lost_ports` re-applies injected link failures.
    fn build_device(&self, device: usize, self_version: u64, lost_ports: HostMask) -> Bridge {
        let mut policy = BridgePolicy::for_device(self.layout, &self.boot, device, &self.cfg);
        policy.set_self_version(self_version);
        for seg in lost_ports {
            let _ = policy.kill_port(seg, SimTime::ZERO);
        }
        let mut dev_cfg = self.cfg.bridge.clone();
        dev_cfg.seed = dev_cfg.seed.wrapping_add(device as u64);
        Bridge::new(policy, dev_cfg)
    }

    /// The graph the fabric is wired as.
    pub fn topology(&self) -> &BridgeTopology {
        &self.boot.topology
    }

    /// The election mode the fabric runs.
    pub fn election(&self) -> ElectionMode {
        self.cfg.election
    }

    /// Number of bridge devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The per-device store-and-forward delay — every forwarded copy
    /// exits its device at least this long after it arrived, which is
    /// exactly the lookahead a conservative parallel event engine gets
    /// to run the segments ahead independently.
    pub fn forward_delay(&self) -> SimDuration {
        self.cfg.bridge.forward_delay
    }

    /// Device `b` (its policy and counters).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn device(&self, b: usize) -> &Bridge {
        &self.devices[b]
    }

    /// True while device `b` is down (a [`FabricEvent::BridgeDown`]
    /// without a matching [`FabricEvent::BridgeUp`] yet).
    pub fn is_dead(&self, b: usize) -> bool {
        self.dead[b]
    }

    /// How many times device `b` has been revived by a
    /// [`FabricEvent::BridgeUp`] — each revival rebuilds the device from
    /// scratch, resetting its election epoch (the invariant observer
    /// keys its per-device watermarks on this).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn restarts(&self, b: usize) -> u64 {
        self.restarts[b]
    }

    /// Active-tree changes across all devices since construction.
    pub fn reconvergences(&self) -> u64 {
        self.reconvergences
    }

    /// The measured reconvergence stall: sim time from the most recent
    /// [`FabricEvent::BridgeDown`] to the first page copy forwarded by
    /// a device that re-elected after it. `None` until measured.
    pub fn stall(&self) -> Option<SimDuration> {
        self.stall
    }

    /// Every injected fabric event so far, in order.
    pub fn timeline(&self) -> &[(SimTime, FabricEvent)] {
        &self.timeline
    }

    /// A locally-transmitted frame was delivered on `seg` at `arrival`:
    /// every live device attached to `seg` picks it up. Returns the
    /// combined egress schedule, lent from a buffer the next pickup
    /// overwrites.
    pub fn pickup(&mut self, pkt: &Packet, seg: usize, arrival: SimTime) -> &[Forward] {
        self.pickup_except(pkt, seg, arrival, None)
    }

    /// A frame forwarded by `from_device` was delivered on `seg` at
    /// `arrival`: every *other* live device attached to `seg` picks it
    /// up and carries it onward (hop-by-hop forwarding; the elected
    /// tree makes the walk loop-free).
    pub fn pickup_forwarded(
        &mut self,
        pkt: &Packet,
        seg: usize,
        arrival: SimTime,
        from_device: usize,
    ) -> &[Forward] {
        self.pickup_except(pkt, seg, arrival, Some(from_device))
    }

    fn pickup_except(
        &mut self,
        pkt: &Packet,
        seg: usize,
        arrival: SimTime,
        exclude: Option<usize>,
    ) -> &[Forward] {
        self.out.clear();
        // Incident-device order is ascending, so the event schedule is
        // deterministic.
        for i in 0..self.boot.topology.bridges_on(seg).len() {
            let device = self.boot.topology.bridges_on(seg)[i];
            if Some(device) == exclude || !self.hears(device, seg) {
                continue;
            }
            let egress = self.devices[device].pickup(pkt, seg, arrival);
            let emitted = !egress.is_empty();
            self.out.extend(
                egress
                    .iter()
                    .map(|&(dst, exit)| Forward { device, dst, exit }),
            );
            if emitted {
                self.probe_stall(device, pkt, arrival);
            }
        }
        &self.out
    }

    /// Device `device` heard data frame `pkt` on its port `seg` at
    /// `now` and forwards it at once, with no forward delay, queue bound
    /// or drop/duplicate injection — the step a threaded runtime's
    /// bridge thread takes per frame. A dead device, or one whose
    /// attachment to `seg` failed, hears nothing. Returns the segments
    /// to transmit the frame on, lent from a buffer the device's next
    /// pickup overwrites.
    pub fn forward(&mut self, device: usize, pkt: &Packet, seg: usize, now: SimTime) -> &[usize] {
        if !self.hears(device, seg) {
            return &[];
        }
        let bridge = &mut self.devices[device];
        if bridge.route(pkt, seg, now) {
            bridge.count_emissions(pkt, false);
            self.probe_stall(device, pkt, now);
        }
        &self.devices[device].targets
    }

    /// Is device `device` alive and its attachment to `seg` intact (no
    /// `LinkDown`)? Nothing else hears a frame on `seg`.
    fn hears(&self, device: usize, seg: usize) -> bool {
        !self.dead[device] && self.devices[device].policy().port_is_live(seg)
    }

    /// The stall probe: the first data frame forwarded by a device that
    /// has re-elected since the `BridgeDown` marks the fabric carrying
    /// pages across again, at `at`.
    fn probe_stall(&mut self, device: usize, pkt: &Packet, at: SimTime) {
        if !pkt.is_data() {
            return;
        }
        if let Some(t0) = self.down_at {
            if self.devices[device].policy().election_epoch() > self.epochs_at_down[device] {
                self.stall = Some(at.since(t0));
                self.down_at = None;
            }
        }
    }

    /// One hello-cadence tick of `device` at `now`: timeout checks plus
    /// this cadence's hello on every live port. Empty for dead devices
    /// and under static election.
    pub fn tick(&mut self, device: usize, now: SimTime) -> Vec<ControlOut> {
        if self.dead[device] || !self.cfg.election.is_live() {
            return Vec::new();
        }
        let outcome = self.devices[device].policy_mut().on_tick(now);
        if outcome.active_changed {
            self.reconvergences += 1;
        }
        self.emissions(device)
    }

    /// A control frame from `from_device` was delivered on `seg` at
    /// `arrival`: every other live device attached to `seg` ingests it,
    /// and any device whose beliefs changed emits a triggered hello on
    /// all its live ports (the TC-style fast propagation). A frame whose
    /// `device` field contradicts `from_device` or names no device of
    /// the fabric is counted once, fabric-wide, and ignored.
    pub fn hear_control(
        &mut self,
        pkt: &Packet,
        seg: usize,
        arrival: SimTime,
        from_device: usize,
    ) -> Vec<ControlOut> {
        let Some(entries) = checked_hello(pkt, from_device, self.devices.len()) else {
            self.malformed_pdus += 1;
            return Vec::new();
        };
        let mut out = Vec::new();
        for i in 0..self.boot.topology.bridges_on(seg).len() {
            let d = self.boot.topology.bridges_on(seg)[i];
            if d != from_device {
                self.hear_entries(d, from_device, entries, seg, arrival, &mut out);
            }
        }
        out
    }

    /// Device `device` heard control frame `pkt`, emitted by device
    /// `emitter`, on its port `seg` at `now` — the step a threaded
    /// runtime's bridge thread takes per hello, where each device hears
    /// the frame on its own. Returns the triggered hellos the device
    /// emits in answer (empty unless its beliefs changed). A frame whose
    /// `device` field contradicts `emitter` or names no device of the
    /// fabric is counted in this device's
    /// [`BridgeStats::malformed_pdus`] and ignored.
    pub fn hear_hello(
        &mut self,
        device: usize,
        pkt: &Packet,
        seg: usize,
        emitter: usize,
        now: SimTime,
    ) -> Vec<ControlOut> {
        let mut out = Vec::new();
        match checked_hello(pkt, emitter, self.devices.len()) {
            Some(entries) => self.hear_entries(device, emitter, entries, seg, now, &mut out),
            None if self.hears(device, seg) => self.devices[device].stats.malformed_pdus += 1,
            None => {}
        }
        out
    }

    /// Device `d` ingests hello `entries` from `from_device` on `seg` at
    /// `now`, if it hears `seg` at all, and pushes its triggered hellos
    /// onto `out`.
    fn hear_entries(
        &mut self,
        d: usize,
        from_device: usize,
        entries: &[(u16, DeviceView)],
        seg: usize,
        now: SimTime,
        out: &mut Vec<ControlOut>,
    ) {
        if !self.hears(d, seg) {
            return;
        }
        let r = self.devices[d].policy.hear_pdu(from_device, entries, now);
        if r.active_changed {
            self.reconvergences += 1;
        }
        if r.view_changed {
            out.extend(self.emissions(d));
        }
    }

    /// The hellos device `device` would emit right now: one per live
    /// port. One [`BridgePolicy::pdu_for_emission`] call per emission —
    /// the same hello goes out on every live port, so the gossip
    /// watermarks advance once per emission, not once per port.
    fn emissions(&mut self, device: usize) -> Vec<ControlOut> {
        let pkt = self.devices[device].policy_mut().pdu_for_emission();
        self.devices[device]
            .policy()
            .self_live_ports()
            .iter()
            .map(|seg| ControlOut {
                device,
                seg,
                pkt: pkt.clone(),
            })
            .collect()
    }

    /// Injects one failure/recovery event at `now`. The caller (the
    /// simulator's event loop, a threaded runtime's fault injection, or
    /// a test driving the fabric directly) decides *when*; the fabric
    /// adjusts its liveness and records the event in its timeline.
    /// Returns whether the event changed anything: a `BridgeDown` of a
    /// dead device, a `BridgeUp` of a live one, a `LinkDown` of a lost
    /// link and a `LinkUp` of a live one are no-ops, and leave no
    /// timeline entry.
    ///
    /// # Panics
    ///
    /// Panics if a link event names a segment that is not a physical
    /// port of its device.
    pub fn apply_event(&mut self, ev: FabricEvent, now: SimTime) -> bool {
        if let FabricEvent::LinkDown { device, segment } | FabricEvent::LinkUp { device, segment } =
            ev
        {
            assert!(
                self.topology().ports(device).contains(&segment),
                "device {device} has no port on segment {segment}"
            );
        }
        let changed = match ev {
            FabricEvent::BridgeDown(d) => {
                let alive = !self.dead[d];
                if alive {
                    self.dead[d] = true;
                    self.dirty_liveness = true;
                    // Arm the stall probe against the pre-failure
                    // election epochs.
                    self.down_at = Some(now);
                    self.stall = None;
                    self.epochs_at_down = self
                        .devices
                        .iter()
                        .map(|b| b.policy().election_epoch())
                        .collect();
                }
                alive
            }
            FabricEvent::BridgeUp(d) => {
                let dead = self.dead[d];
                if dead {
                    self.dead[d] = false;
                    self.restarts[d] += 1;
                    self.dirty_liveness = true;
                    // A cold restart: fresh filter tables, fresh
                    // engine, optimistic views, and a self-version
                    // above every obituary from its previous lives —
                    // but the run's traffic accounting carries over,
                    // and the device *rejoins* the fabric: neighbour
                    // stamps start at `now` (so it does not declare
                    // everyone dead on its first tick) and every port
                    // boots in its hold-down (its optimistic tree may
                    // disagree with the converged fabric; forwarding
                    // before the first hello exchange could close a
                    // transient loop on a redundant wiring).
                    let prior = self.devices[d].stats();
                    let mut bridge = self
                        .build_device(d, 2 * self.restarts[d], self.lost_ports[d].clone())
                        .with_stats_base(prior);
                    bridge.policy_mut().rejoin(now);
                    self.devices[d] = bridge;
                }
                dead
            }
            FabricEvent::LinkDown { device, segment } => {
                let live = !self.lost_ports[device].contains(segment);
                if live {
                    self.lost_ports[device].insert(segment);
                    if !self.dead[device] {
                        let r = self.devices[device].policy.kill_port(segment, now);
                        self.reconvergences += u64::from(r.active_changed);
                    }
                }
                live
            }
            FabricEvent::LinkUp { device, segment } => {
                let lost = self.lost_ports[device].contains(segment);
                if lost {
                    self.lost_ports[device].remove(segment);
                    if !self.dead[device] {
                        let r = self.devices[device].policy.revive_port(segment, now);
                        self.reconvergences += u64::from(r.active_changed);
                    }
                }
                lost
            }
        };
        if changed {
            self.timeline.push((now, ev));
        }
        changed
    }

    /// Statically subscribes segment `seg` to `page`'s transits at every
    /// device (each pins `seg`, resolved through its active tree), so
    /// the page's data reaches `seg` from anywhere in the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn subscribe(&mut self, page: PageId, seg: usize) {
        for d in &mut self.devices {
            d.subscribe(page, seg);
        }
    }

    /// `page` was just created on segment `seg`: every device between
    /// the page's home and `seg` points its holder belief toward `seg`
    /// (see [`BridgePolicy::seed_holder`]). One check and nothing else
    /// when [`FabricConfig::seeds_holder`] says no device needs telling.
    pub fn seed_holder(&mut self, page: PageId, seg: usize) {
        if self.cfg.seeds_holder(page, seg) {
            for d in &mut self.devices {
                d.policy_mut().seed_holder(page, seg);
            }
        }
    }

    /// Fabric-wide traffic counters (per-device counters summed, plus
    /// fabric-level malformed-control accounting).
    pub fn stats(&self) -> BridgeStats {
        let mut s = BridgeStats::sum(self.devices.iter().map(Bridge::stats));
        s.malformed_pdus += self.malformed_pdus;
        s
    }

    /// Per-device traffic counters, indexed by device.
    pub fn device_stats(&self) -> Vec<BridgeStats> {
        self.devices.iter().map(Bridge::stats).collect()
    }

    /// Mutable device access — fault-injection tests corrupt filter
    /// state through here.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[doc(hidden)]
    pub fn device_mut(&mut self, b: usize) -> &mut Bridge {
        &mut self.devices[b]
    }

    /// Drains every device's dirty state for the incremental invariant
    /// observer: per-device `(device, dirty pages, structural)` entries
    /// (devices with nothing dirty are omitted), plus whether device
    /// liveness changed fabric-wide.
    pub fn take_dirty(&mut self) -> (Vec<(usize, Vec<PageId>, bool)>, bool) {
        let liveness = std::mem::take(&mut self.dirty_liveness);
        let mut out = Vec::new();
        for (i, b) in self.devices.iter_mut().enumerate() {
            let (pages, structural) = b.policy_mut().take_dirty();
            if !pages.is_empty() || structural {
                out.push((i, pages, structural));
            }
        }
        (out, liveness)
    }

    /// Pending dirty totals without draining: `(dirty page entries
    /// across devices, any structural or liveness change)`.
    pub fn dirty_counts(&self) -> (usize, bool) {
        let mut pages = 0;
        let mut structural = self.dirty_liveness;
        for b in &self.devices {
            let (p, s) = b.policy().dirty_counts();
            pages += p;
            structural |= s;
        }
        (pages, structural)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mether_core::{Generation, HostId, PageLength};

    fn layout_4x2() -> SegmentLayout {
        // 8 hosts, 4 segments of 2.
        SegmentLayout::new(8, 4).unwrap()
    }

    fn req(from: u16, page: u32) -> Packet {
        Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            want: Want::ReadOnly,
        }
    }

    fn superset_req(from: u16, page: u32) -> Packet {
        Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Full,
            want: Want::Superset,
        }
    }

    fn data(from: u16, page: u32, transfer_to: Option<u16>) -> Packet {
        Packet::PageData {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            generation: Generation(1),
            transfer_to: transfer_to.map(HostId),
            data: Bytes::from(vec![0u8; 32]),
        }
    }

    /// `data(..)` sent as a reply to a request.
    fn reply(from: u16, page: u32, transfer_to: Option<u16>) -> Packet {
        let Packet::PageData {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        } = data(from, page, transfer_to)
        else {
            unreachable!()
        };
        Packet::PageReply {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        }
    }

    /// `n` ms into a run: pending markers need a request heard after the
    /// epoch (`SimTime::ZERO` means none pending).
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn star_policy() -> BridgePolicy {
        BridgePolicy::star(layout_4x2(), PageHomePolicy::Striped)
    }

    const T0: SimTime = SimTime::ZERO;

    fn set(m: impl IntoIterator<Item = usize>) -> Vec<usize> {
        m.into_iter().collect()
    }

    // -----------------------------------------------------------------
    // PR 3's filter on the star, with sticky interest.
    // -----------------------------------------------------------------

    #[test]
    fn requests_flood_and_register_interest() {
        let mut p = star_policy();
        // Host 6 (segment 3) asks for page 0 (homed on segment 0) with a
        // Superset request, which any full copy may answer.
        let t = p.route(&superset_req(6, 0), 3, T0);
        assert_eq!(set(t), vec![0, 1, 2], "flooded");
        // Page 0's interest now holds home (0) and the requester (3).
        assert_eq!(set(p.interest(PageId::new(0), T0)), vec![0, 3]);
    }

    #[test]
    fn data_follows_interest_only() {
        let mut p = star_policy();
        // Page 0 homed on segment 0; its holder on segment 0 broadcasts.
        // Nobody else asked: nothing crosses the bridge.
        assert!(p.route(&data(0, 0, None), 0, T0).is_empty());
        // Segment 2 requests it; from then on data transits follow.
        let _ = p.route(&req(4, 0), 2, T0);
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
        // Interest is sticky: a second transit still reaches segment 2.
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
    }

    #[test]
    fn data_homed_elsewhere_always_reaches_home() {
        let mut p = star_policy();
        // Page 1 is homed on segment 1, but its holder sits on segment 3.
        let t = p.route(&data(6, 1, None), 3, T0);
        assert_eq!(set(t), vec![1], "home stays subscribed");
    }

    #[test]
    fn transfer_to_reaches_and_subscribes_the_new_holder() {
        let mut p = star_policy();
        // Consistency of page 0 moves from host 0 (segment 0) to host 5
        // (segment 2).
        let t = p.route(&data(0, 0, Some(5)), 0, T0);
        assert_eq!(set(t), vec![2]);
        // The sender's segment stays interested: when the new holder
        // broadcasts, segment 0 (home + old copies) hears it.
        let t = p.route(&data(5, 0, None), 2, T0);
        assert_eq!(set(t), vec![0]);
    }

    #[test]
    fn out_of_range_transfer_target_is_ignored() {
        let mut p = star_policy();
        let t = p.route(&data(0, 0, Some(9999)), 0, T0);
        assert!(t.is_empty(), "garbage transfer target routes nowhere");
    }

    #[test]
    fn explicit_subscription_covers_silent_data_readers() {
        let mut p = star_policy();
        p.subscribe(PageId::new(0), 3);
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![3]);
    }

    #[test]
    fn targets_is_route_without_learning() {
        let p = star_policy();
        let t = p.targets(&data(0, 2, Some(7)), 1, T0);
        // Home of page 2 is segment 2; transfer target host 7 is segment 3.
        assert_eq!(set(t), vec![2, 3]);
        // No learning happened: interest still just the home bit.
        assert_eq!(set(p.interest(PageId::new(2), T0)), vec![2]);
    }

    /// 32 quiescent devices take `32 / GOSSIP_WINDOW` hellos to
    /// re-announce every view in full — the resync horizon a revived
    /// device faces when nothing else is changing.
    #[test]
    fn anti_entropy_covers_32_devices_in_4_hellos() {
        let segs = 33; // chain(33) = 32 two-port devices
        let layout = SegmentLayout::new(segs, segs).unwrap();
        let topology = Arc::new(BridgeTopology::chain(segs));
        let n = topology.bridges();
        let cfg = FabricConfig::chain(segs);
        let mut p =
            BridgePolicy::for_device(layout, &BootState::new(topology, Vec::new()), 0, &cfg);
        let mut covered = vec![false; n];
        let hellos = (1..=n)
            .find(|_| {
                let Packet::BridgePdu { entries, .. } = p.pdu_for_emission() else {
                    panic!("hellos are bridge PDUs");
                };
                for (d, _) in entries {
                    covered[d as usize] = true;
                }
                covered.iter().all(|c| *c)
            })
            .expect("anti-entropy window never covered the fabric");
        assert_eq!(GOSSIP_WINDOW, 8);
        assert_eq!(hellos, 4, "32 devices / 8 per hello");
    }

    /// A fabric of at most `GOSSIP_WINDOW` devices hears every view in
    /// every hello, whatever the news and wherever the cursor stands.
    #[test]
    fn small_fabrics_hear_every_view_in_every_hello() {
        for segs in [2, 5, GOSSIP_WINDOW] {
            let mut f = live_ring_fabric(segs, segs);
            let n = f.device(0).policy().views().len();
            assert!(n <= GOSSIP_WINDOW, "ring({segs}) has {n} devices");
            // No hello is delivered, so the first round's devices
            // declare their silent neighbours dead: a hello of news,
            // then hellos of unchanged entries.
            for round in 1..=3u64 {
                let t = SimTime::ZERO + SimDuration::from_millis(5 * round);
                for d in 0..n {
                    for out in f.tick(d, t) {
                        let Packet::BridgePdu { entries, .. } = &out.pkt else {
                            panic!("hellos are bridge PDUs");
                        };
                        let views = f.device(d).policy().views();
                        let expect: Vec<(u16, DeviceView)> = (0..n as u16)
                            .map(|i| (i, views[i as usize].clone()))
                            .collect();
                        assert_eq!(entries, &expect, "ring({segs}) device {d} round {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn route_equals_targets_after_learning() {
        // route() is definitionally learn-then-targets: for any frame,
        // the mask route() returns equals what targets() reports right
        // after, so diagnostics can never drift from forwarding.
        let mut p = star_policy();
        for (pkt, src) in [
            (req(6, 0), 3usize),
            (data(0, 0, Some(5)), 0),
            (data(5, 0, None), 2),
            (req(2, 7), 1),
            (data(2, 7, Some(9999)), 1),
        ] {
            let routed = p.route(&pkt, src, T0);
            assert_eq!(routed, p.targets(&pkt, src, T0), "{pkt:?} from {src}");
        }
    }

    // -----------------------------------------------------------------
    // The same rules on a wide fabric: a two-port device of the 16×16
    // mesh with one port below segment 128 and one at or above it —
    // where a segment-id mask stops fitting inline — forwarding on both.
    // -----------------------------------------------------------------

    /// The straddling device's policy, with its `(low, high)` ports.
    /// Two hosts per segment: host `2s` sits on segment `s`.
    fn wide_policy(cfg: impl FnOnce(FabricConfig) -> FabricConfig) -> (BridgePolicy, usize, usize) {
        let topology = Arc::new(BridgeTopology::mesh2d(16, 16));
        let layout = SegmentLayout::new(512, 256).unwrap();
        let boot = BootState::new(Arc::clone(&topology), Vec::new());
        let cfg = cfg(FabricConfig::new(BridgeTopology::clone(&topology)));
        let device = (0..topology.bridges())
            .find(|&d| {
                let ports = topology.ports(d);
                ports[0] < 128 && ports[1] >= 128 && boot.active.forwarding(d).len() == 2
            })
            .expect("the boot tree crosses the 128 boundary somewhere");
        let (lo, hi) = (topology.ports(device)[0], topology.ports(device)[1]);
        (
            BridgePolicy::for_device(layout, &boot, device, &cfg),
            lo,
            hi,
        )
    }

    fn host_on(seg: usize) -> u16 {
        2 * seg as u16
    }

    #[test]
    fn wide_route_equals_targets_and_targets_learns_nothing() {
        for aging in [AgeHorizon::Sticky, AgeHorizon::Transits(3)] {
            let (mut p, lo, hi) = wide_policy(|c| c.with_aging(aging));
            // Pages homed toward either side, heard from either side.
            let (near, far) = (lo as u32, hi as u32);
            for (pkt, src) in [
                (req(host_on(hi), near), hi),
                (data(host_on(lo), near, Some(host_on(hi))), lo),
                (data(host_on(hi), near, None), hi),
                (req(host_on(lo), far), lo),
                (data(host_on(hi), far, Some(9999)), hi),
                (superset_req(host_on(lo), near), lo),
            ] {
                let (Packet::PageRequest { page, .. } | Packet::PageData { page, .. }) = pkt else {
                    unreachable!("data-plane frames only")
                };
                let before = (p.learned(page), p.holder_port(page));
                let dry = p.targets(&pkt, src, T0);
                let after = (p.learned(page), p.holder_port(page));
                assert_eq!(before, after, "targets() learned from {pkt:?}");
                assert!(!dry.contains(src), "{pkt:?} back out port {src}");
                let routed = p.route(&pkt, src, T0);
                assert_eq!(routed, p.targets(&pkt, src, T0), "{pkt:?} from {src}");
                assert!(set(routed).iter().all(|&t| t == lo || t == hi));
            }
            // What was learned sits on both sides of the boundary.
            assert_eq!(set(p.learned(PageId::new(near))), vec![lo, hi]);
            assert_eq!(p.holder_port(PageId::new(near)), Some(hi));
        }
    }

    #[test]
    fn wide_interest_ages_and_pins_hold_on_either_side() {
        // Aging: demand from one side, data from the page's home side.
        for (asks, home) in [(0, 1), (1, 0)] {
            let (mut p, lo, hi) = wide_policy(|c| c.with_aging(AgeHorizon::Transits(2)));
            let (asks, home) = ([lo, hi][asks], [lo, hi][home]);
            let page = home as u32; // striped: homed on the segment itself
            let _ = p.route(&req(host_on(asks), page), asks, T0);
            let refresh = data(host_on(home), page, None);
            assert_eq!(set(p.route(&refresh, home, T0)), vec![asks]);
            assert_eq!(set(p.route(&refresh, home, T0)), vec![asks]);
            assert!(p.route(&refresh, home, T0).is_empty(), "aged out");
            let _ = p.route(&req(host_on(asks), page), asks, T0);
            assert_eq!(set(p.route(&refresh, home, T0)), vec![asks], "reinstated");
        }
        // Pins: resolved through the tree to the port on that side, and
        // never aged, whichever side of 128 the pinned segment is on.
        for side in 0..2 {
            let (mut p, lo, hi) = wide_policy(|c| c.with_aging(AgeHorizon::Transits(0)));
            let (pinned, other) = ([lo, hi][side], [hi, lo][side]);
            let page = PageId::new(other as u32); // home on the other side
            p.subscribe(page, pinned);
            assert_eq!(set(p.interest(page, T0)), vec![lo, hi]);
            for _ in 0..4 {
                let heard = p.route(&data(host_on(other), other as u32, None), other, T0);
                assert_eq!(set(heard), vec![pinned]);
            }
        }
    }

    // -----------------------------------------------------------------
    // Replies: back along the pending requests only.
    // -----------------------------------------------------------------

    /// Whether port `i` of `p` holds a pending request for `page`.
    fn pending(p: &BridgePolicy, page: u32, i: usize) -> bool {
        p.stamps(PageId::new(page))
            .is_some_and(|row| row[i].requested_at != SimTime::ZERO)
    }

    #[test]
    fn a_reply_leaves_only_through_pending_ports_and_clears_them() {
        let mut p = star_policy();
        // Page 0 is homed on segment 0. Segment 2 once published it
        // (learned interest); segment 3 asks for it now.
        let _ = p.route(&data(4, 0, None), 2, ms(1));
        let _ = p.route(&req(6, 0), 3, ms(2));
        assert!(pending(&p, 0, 3) && !pending(&p, 0, 2));
        // The holder answers from home: the reply goes to the asker
        // alone — not to the interested segment 2 a publication reaches.
        let answer = reply(0, 0, None);
        assert_eq!(set(p.targets(&answer, 0, ms(3))), vec![3]);
        assert_eq!(set(p.route(&answer, 0, ms(3))), vec![3]);
        assert!(!pending(&p, 0, 3), "forwarding the reply answered it");
        // Answered: a second reply has nowhere to go.
        assert!(p.route(&answer, 0, ms(4)).is_empty());
    }

    #[test]
    fn one_reply_reaches_every_port_a_request_is_pending_on() {
        // Two requesters on two segments, one reply: the holder coalesced
        // or piggybacked the second request onto its answer to the first.
        let mut p = star_policy();
        let _ = p.route(&req(4, 0), 2, ms(1));
        let _ = p.route(&req(6, 0), 3, ms(2));
        assert_eq!(set(p.route(&reply(0, 0, None), 0, ms(3))), vec![2, 3]);
        assert!(!pending(&p, 0, 2) && !pending(&p, 0, 3));
    }

    #[test]
    fn a_purge_still_reaches_a_learned_but_idle_port() {
        // Segment 3 asked once and was answered; its reader is now
        // data-driven and asks no more. The publication still reaches it.
        let mut p = star_policy();
        let _ = p.route(&req(6, 0), 3, ms(1));
        assert_eq!(set(p.route(&reply(0, 0, None), 0, ms(2))), vec![3]);
        assert!(!pending(&p, 0, 3));
        assert_eq!(set(p.route(&data(0, 0, None), 0, ms(3))), vec![3]);
    }

    #[test]
    fn a_grant_follows_transfer_to_when_nothing_is_pending() {
        // Consistency of page 0 moves from host 0 (segment 0) to host 5
        // (segment 2) with no request pending here: the grant still
        // walks to the new holder, and the belief follows it.
        let mut p = star_policy();
        assert_eq!(set(p.route(&reply(0, 0, Some(5)), 0, ms(1))), vec![2]);
        assert_eq!(p.holder_port(PageId::new(0)), Some(2));
    }

    #[test]
    fn a_reply_with_nothing_pending_and_no_pin_goes_nowhere() {
        let mut p = star_policy();
        // Page 0 homed on segment 0, answered from segment 1: its
        // publication twin would go home, the reply goes nowhere...
        assert_eq!(set(p.targets(&data(2, 0, None), 1, ms(1))), vec![0]);
        assert!(p.route(&reply(2, 0, None), 1, ms(1)).is_empty());
        // ...except to a pinned segment.
        p.subscribe(PageId::new(0), 3);
        assert_eq!(set(p.route(&reply(2, 0, None), 1, ms(2))), vec![3]);
    }

    #[test]
    fn a_pending_request_outlives_any_aging_horizon() {
        // A horizon far shorter than the round trip ages the requester's
        // learned interest, so publications stop — but the request's
        // pending marker still lets its reply back through.
        let (mut p, lo, hi) =
            wide_policy(|c| c.with_aging(AgeHorizon::SimTime(SimDuration::from_millis(1))));
        let page = lo as u32; // striped: homed on `lo`
        let _ = p.route(&req(host_on(hi), page), hi, ms(1));
        assert!(p
            .targets(&data(host_on(lo), page, None), lo, ms(20))
            .is_empty());
        assert_eq!(
            set(p.route(&reply(host_on(lo), page, None), lo, ms(20))),
            vec![hi]
        );
    }

    #[test]
    fn flush_port_zeroes_exactly_that_ports_column() {
        let (mut p, lo, hi) = wide_policy(|c| c);
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        // Demand on both ports of pages 0..6, holder beliefs alternating.
        for page in 0..6u32 {
            let _ = p.route(&req(host_on(lo), page), lo, t);
            let holder_side = [lo, hi][page as usize % 2];
            let _ = p.route(&data(host_on(holder_side), page, None), holder_side, t);
            let _ = p.route(&req(host_on(hi), page), hi, t);
        }
        let tracked: Vec<PageId> = p.tracked_pages().collect();
        assert_eq!(tracked.len(), 6);
        let before: Vec<Vec<PortStamp>> = tracked
            .iter()
            .map(|&page| p.stamps(page).expect("tracked").to_vec())
            .collect();
        assert!(
            before.iter().all(|row| row.len() == 2),
            "one stamp per port"
        );
        assert!(before.iter().flatten().all(|s| *s != PortStamp::NEVER));
        assert_eq!(
            p.stamps(PageId::new(6)),
            None,
            "untracked pages have no row"
        );
        p.flush_port(hi);
        for (&page, was) in tracked.iter().zip(&before) {
            let row = p.stamps(page).expect("still tracked");
            assert_eq!(row[0], was[0], "page {page}: the other column is untouched");
            assert_eq!(row[1], PortStamp::NEVER, "page {page}: flushed column");
            assert_eq!(set(p.learned(page)), vec![lo]);
            let keeps_belief = page.index() % 2 == 0;
            assert_eq!(
                p.holder_port(page),
                keeps_belief.then_some(lo),
                "page {page}"
            );
        }
    }

    #[test]
    fn a_device_keeps_filters_only_for_pages_it_heard_of() {
        let (mut p, lo, hi) = wide_policy(|c| c);
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        let page = PageId::new(200);
        let _ = p.route(&req(host_on(lo), 200), lo, t);
        assert_eq!(p.tracked_pages().collect::<Vec<_>>(), vec![page]);
        assert_eq!(p.stamps(PageId::new(199)), None, "never heard of");
        assert_eq!(set(p.learned(PageId::new(199))), Vec::<usize>::new());
        let _ = p.take_dirty();
        let row = p.stamps(page).expect("tracked").to_vec();
        assert_ne!(row[0], PortStamp::NEVER, "the request's port");
        assert_eq!(row[1], PortStamp::NEVER);
        p.flush_port(hi);
        assert_eq!(p.stamps(page), Some(&row[..]), "port {lo}'s column stays");
        assert_eq!(set(p.learned(page)), vec![lo]);
        assert_eq!(p.take_dirty().0, vec![page], "only tracked pages dirty");
        p.flush_port(lo);
        assert_eq!(p.stamps(page), Some(&[PortStamp::NEVER; 2][..]));
        assert_eq!(set(p.learned(page)), Vec::<usize>::new());
        assert_eq!(p.tracked_pages().collect::<Vec<_>>(), vec![page]);
    }

    // -----------------------------------------------------------------
    // Request routing: toward the believed holder, anchored at home.
    // -----------------------------------------------------------------

    #[test]
    fn unknown_holder_on_the_boot_tree_walks_toward_home() {
        let mut p = star_policy();
        // No data seen for page 0 (homed on segment 0): no move passed
        // this device, so the holder is homeward — the request leaves
        // through the home port alone...
        assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0]);
        // ...and one from the home segment itself goes nowhere.
        assert!(p.route(&req(1, 0), 0, T0).is_empty());
        let c = p.belief_counters();
        assert_eq!(
            (c.belief_hits, c.home_routed, c.belief_fallback_floods),
            (0, 2, 0),
            "two requests routed home, none flooded"
        );
    }

    #[test]
    fn unknown_holder_floods_after_a_tree_change_or_a_rejoin() {
        // A device whose tree changed may have missed a move — its
        // silence no longer says "homeward", so it floods what is left.
        let mut p = star_policy();
        assert!(p.kill_port(2, T0).active_changed);
        assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1]);
        // So does a device revived cold into a running fabric.
        let mut p = star_policy();
        p.rejoin(T0);
        assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1, 2]);
        let c = p.belief_counters();
        assert_eq!((c.home_routed, c.belief_fallback_floods), (0, 1));
    }

    #[test]
    fn learned_holder_directs_requests_with_a_home_anchor() {
        let mut p = star_policy();
        // Data from segment 1 teaches the holder direction for page 0
        // (homed on segment 0).
        let _ = p.route(&data(2, 0, None), 1, T0);
        assert_eq!(p.holder_port(PageId::new(0)), Some(1));
        // A request from segment 3 goes to the believed holder plus the
        // home anchor — never the full flood.
        assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 1]);
        // When the belief sits on the home segment the anchor is free:
        // one port.
        let _ = p.route(&data(5, 2, None), 2, T0); // page 2 homed on 2
        assert_eq!(set(p.route(&req(6, 2), 3, T0)), vec![2]);
        let c = p.belief_counters();
        assert_eq!(
            (c.belief_hits, c.home_routed),
            (2, 0),
            "both requests routed on belief"
        );
    }

    #[test]
    fn transfer_to_repoints_the_holder_belief() {
        let mut p = star_policy();
        let _ = p.route(&data(2, 0, None), 1, T0);
        // Consistency moves to host 7 (segment 3); requests from the
        // home segment itself need no anchor.
        let _ = p.route(&data(2, 0, Some(7)), 1, T0);
        assert_eq!(p.holder_port(PageId::new(0)), Some(3));
        assert_eq!(set(p.route(&req(0, 0), 0, T0)), vec![3]);
        assert_eq!(
            p.belief_counters().belief_repairs,
            1,
            "the transfer repointed an existing belief"
        );
    }

    #[test]
    fn request_from_the_holder_direction_is_not_bounced() {
        let mut p = star_policy();
        // Page 0 is homed on segment 0 and its holder broadcasts from
        // there: belief and home coincide.
        let _ = p.route(&data(0, 0, None), 0, T0);
        // A request arriving *from* that very direction: the holder (or
        // the next device toward it) already heard the frame on that
        // segment; bouncing it elsewhere is pure waste.
        assert!(p.route(&req(1, 0), 0, T0).is_empty());
    }

    #[test]
    fn superset_requests_always_flood() {
        let mut p = star_policy();
        let _ = p.route(&data(2, 0, None), 1, T0);
        // Any host with a full copy may answer a Superset request, so
        // the holder belief must not narrow it.
        assert_eq!(set(p.route(&superset_req(6, 0), 3, T0)), vec![0, 1, 2]);
        assert_eq!(
            p.belief_counters(),
            BridgeStats::default(),
            "superset floods are not belief events"
        );
    }

    #[test]
    fn stale_generation_replies_do_not_poison_the_holder_belief() {
        // The Superset hazard: a non-holder with a full copy answers a
        // Superset request, echoing a generation the holder has long
        // advanced past. That reply must not repoint the belief — the
        // next ordinary request still routes toward the live holder.
        let mut p = star_policy();
        let fresh = |from: u16, gen: u64, seg: usize, p: &mut BridgePolicy| {
            let pkt = Packet::PageData {
                from: HostId(from),
                page: PageId::new(0),
                length: PageLength::Short,
                generation: Generation(gen),
                transfer_to: None,
                data: Bytes::from(vec![0u8; 32]),
            };
            p.route(&pkt, seg, T0)
        };
        // The holder on segment 1 has published up to generation 5.
        let _ = fresh(2, 5, 1, &mut p);
        assert_eq!(p.holder_port(PageId::new(0)), Some(1));
        // A stale full-copy echo from segment 2 (generation 3).
        let _ = fresh(4, 3, 2, &mut p);
        assert_eq!(
            p.holder_port(PageId::new(0)),
            Some(1),
            "stale data must not repoint the belief"
        );
        // But it still registered segment 2's interest (it holds copies).
        assert!(p.interest(PageId::new(0), T0).contains(2));
        // A genuinely newer broadcast does move the belief.
        let _ = fresh(5, 6, 3, &mut p);
        assert_eq!(p.holder_port(PageId::new(0)), Some(3));
    }

    #[test]
    fn home_anchor_rescues_a_cold_poisoned_belief() {
        // Even when a stale echo is the *first* data a device ever sees
        // (nothing to gate against), the home anchor keeps requests
        // reaching the segment where the consistent copy is seeded.
        let mut p = star_policy();
        let _ = p.route(&data(4, 0, None), 2, T0); // first evidence: segment 2
        assert_eq!(p.holder_port(PageId::new(0)), Some(2));
        // Requests still reach home (segment 0) alongside the belief.
        assert_eq!(set(p.route(&req(6, 0), 3, T0)), vec![0, 2]);
    }

    // -----------------------------------------------------------------
    // Interest aging.
    // -----------------------------------------------------------------

    fn aging_star(horizon: AgeHorizon) -> BridgePolicy {
        BridgePolicy::new(
            layout_4x2(),
            Arc::new(BridgeTopology::star(4)),
            0,
            PageHomePolicy::Striped,
            horizon,
        )
    }

    #[test]
    fn idle_interest_ages_out_after_the_transit_horizon() {
        let mut p = aging_star(AgeHorizon::Transits(2));
        let _ = p.route(&req(4, 0), 2, T0); // segment 2 wants page 0
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
        // Two forwarded transits with no fresh demand from segment 2:
        // the horizon expires and the next transit stays home.
        assert!(p.route(&data(0, 0, None), 0, T0).is_empty());
    }

    #[test]
    fn reuse_reinstates_aged_interest() {
        let mut p = aging_star(AgeHorizon::Transits(1));
        let _ = p.route(&req(4, 0), 2, T0);
        let _ = p.route(&data(0, 0, None), 0, T0);
        let _ = p.route(&data(0, 0, None), 0, T0);
        assert!(
            p.route(&data(0, 0, None), 0, T0).is_empty(),
            "aged out after the horizon"
        );
        // A fresh request reinstates the entry through ordinary learning.
        let _ = p.route(&req(4, 0), 2, T0);
        assert_eq!(set(p.route(&data(0, 0, None), 0, T0)), vec![2]);
    }

    #[test]
    fn home_and_pins_never_age() {
        let mut p = aging_star(AgeHorizon::Transits(0));
        p.subscribe(PageId::new(1), 3);
        // Horizon 0: learned interest dies after every forwarded
        // transit; the home port (segment 1) and the pin (segment 3)
        // survive any number of them.
        for _ in 0..8 {
            assert_eq!(set(p.route(&data(0, 1, None), 0, T0)), vec![1, 3]);
        }
    }

    #[test]
    fn sim_time_horizon_ages_by_the_clock() {
        let mut p = aging_star(AgeHorizon::SimTime(SimDuration::from_millis(5)));
        let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let _ = p.route(&req(4, 0), 2, t(0));
        assert_eq!(set(p.route(&data(0, 0, None), 0, t(4))), vec![2]);
        assert!(
            p.route(&data(0, 0, None), 0, t(10)).is_empty(),
            "5 ms horizon expired"
        );
        let _ = p.route(&req(4, 0), 2, t(11));
        assert_eq!(set(p.route(&data(0, 0, None), 0, t(12))), vec![2]);
    }

    // -----------------------------------------------------------------
    // Multi-device trees: scoped ports, hop-by-hop interest.
    // -----------------------------------------------------------------

    fn tree_4_policies() -> Vec<BridgePolicy> {
        // 4 segments, fanout 2: device 0 = {0,1,2}, device 1 = {1,3}.
        let topology = Arc::new(BridgeTopology::balanced_tree(4, 2));
        (0..topology.bridges())
            .map(|d| {
                BridgePolicy::new(
                    layout_4x2(),
                    Arc::clone(&topology),
                    d,
                    PageHomePolicy::Striped,
                    AgeHorizon::Sticky,
                )
            })
            .collect()
    }

    #[test]
    fn tree_devices_flood_only_their_own_ports() {
        let mut ps = tree_4_policies();
        // A Superset request heard on segment 1 by device 0 ({0,1,2})
        // floods to {0,2}; the same frame heard by device 1 ({1,3})
        // floods to {3}.
        assert_eq!(set(ps[0].route(&superset_req(2, 0), 1, T0)), vec![0, 2]);
        assert_eq!(set(ps[1].route(&superset_req(2, 0), 1, T0)), vec![3]);
    }

    #[test]
    fn tree_home_port_points_along_the_path() {
        let ps = tree_4_policies();
        // Page 3 is homed on segment 3. Device 0 reaches it via port 1;
        // device 1 is adjacent.
        assert_eq!(ps[0].home_port(PageId::new(3)), Some(1));
        assert_eq!(ps[1].home_port(PageId::new(3)), Some(3));
        // Data for page 3 heard on segment 0 hops toward home.
        assert_eq!(set(ps[0].targets(&data(0, 3, None), 0, T0)), vec![1]);
    }

    #[test]
    fn tree_subscription_pins_the_port_toward_the_segment() {
        let mut ps = tree_4_policies();
        // Subscribe segment 3 to page 0 (homed on 0): device 0 pins its
        // port 1 (toward 3), device 1 pins port 3.
        for p in &mut ps {
            p.subscribe(PageId::new(0), 3);
        }
        assert_eq!(set(ps[0].targets(&data(0, 0, None), 0, T0)), vec![1]);
        assert_eq!(set(ps[1].targets(&data(0, 0, None), 1, T0)), vec![3]);
    }

    #[test]
    fn tree_holder_chase_turns_at_fresher_beliefs() {
        // Chain 0-1-2-3. Holder starts on segment 3; data flowed to
        // segment 0, so every device believes "holder toward 3". Then
        // the holder moves 3 → 2; only devices on that path (device 2)
        // hear the transfer. A request from segment 0 must still arrive:
        // devices 0 and 1 forward on their stale beliefs, device 2 turns
        // nothing — segment 2 *is* where the frame lands.
        let topology = Arc::new(BridgeTopology::chain(4));
        let mut ps: Vec<BridgePolicy> = (0..3)
            .map(|d| {
                BridgePolicy::new(
                    layout_4x2(),
                    Arc::clone(&topology),
                    d,
                    PageHomePolicy::Striped,
                    AgeHorizon::Sticky,
                )
            })
            .collect();
        // Reply data 3 → 0 teaches every device holder-toward-3.
        let _ = ps[2].route(&data(6, 0, None), 3, T0);
        let _ = ps[1].route(&data(6, 0, None), 2, T0);
        let _ = ps[0].route(&data(6, 0, None), 1, T0);
        // Holder transfer 3 → 2 (host 6 → host 4): seen on segment 3 by
        // device 2 only (it forwards to segment 2, where the move ends).
        assert_eq!(set(ps[2].route(&data(6, 0, Some(4)), 3, T0)), vec![2]);
        assert_eq!(ps[2].holder_port(PageId::new(0)), Some(2));
        // Request from segment 0 chases: device 0 → port 1 (stale but
        // correct direction), device 1 → port 2, device 2 hears it on
        // port 2 where its belief now points — the chase ends there, on
        // the holder's own segment.
        assert_eq!(set(ps[0].route(&req(0, 0), 0, T0)), vec![1]);
        assert_eq!(set(ps[1].route(&req(0, 0), 1, T0)), vec![2]);
        assert!(ps[2].route(&req(0, 0), 2, T0).is_empty());
    }

    // -----------------------------------------------------------------
    // The engine: timing, queueing, fault injection.
    // -----------------------------------------------------------------

    fn star_bridge(cfg: BridgeConfig) -> Bridge {
        Bridge::star(layout_4x2(), PageHomePolicy::Striped, cfg)
    }

    #[test]
    fn bridge_serialises_back_to_back_pickups() {
        let cfg = BridgeConfig::typical();
        let delay = cfg.forward_delay;
        let mut b = star_bridge(cfg);
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        // Two simultaneous pickups of frames that must cross (page 1 is
        // homed on segment 1, heard on segment 0).
        let first = b.pickup(&data(0, 1, None), 0, at).to_vec();
        let second = b.pickup(&data(1, 1, None), 0, at);
        assert_eq!(first, vec![(1, at + delay)]);
        assert_eq!(
            second,
            vec![(1, at + delay + delay)],
            "queued behind the first"
        );
        assert_eq!(b.stats().forwarded, 2);
        assert_eq!(
            b.stats().bytes_forwarded,
            2 * data(0, 1, None).wire_size() as u64
        );
        assert_eq!(b.stats().req_forwarded, 0, "no requests crossed");
    }

    #[test]
    fn bridge_filters_local_traffic() {
        let mut b = star_bridge(BridgeConfig::typical());
        let out = b.pickup(&data(0, 0, None), 0, SimTime::ZERO);
        assert!(out.is_empty());
        assert_eq!(b.stats().filtered, 1);
        assert_eq!(b.stats().heard, 1);
        assert_eq!(b.stats().forwarded, 0);
    }

    #[test]
    fn control_frames_never_enter_the_data_engine() {
        let mut b = star_bridge(BridgeConfig::typical());
        let pdu = b.policy_mut().pdu_for_emission();
        let out = b.pickup(&pdu, 0, SimTime::ZERO);
        assert!(out.is_empty());
        assert_eq!(b.stats().heard, 0, "not even counted as heard");
    }

    #[test]
    fn full_queue_tail_drops() {
        let cfg = BridgeConfig::typical().with_queue_frames(2);
        let mut b = star_bridge(cfg);
        let at = SimTime::ZERO;
        assert!(!b.pickup(&data(0, 1, None), 0, at).is_empty());
        assert!(!b.pickup(&data(0, 1, None), 0, at).is_empty());
        // Third simultaneous pickup: both slots still occupied.
        assert!(b.pickup(&data(0, 1, None), 0, at).is_empty());
        assert_eq!(b.stats().queue_drops, 1);
        // Once the backlog has drained, pickups flow again.
        let later = at + SimDuration::from_secs(1);
        assert!(!b.pickup(&data(0, 1, None), 0, later).is_empty());
    }

    #[test]
    fn drop_knob_discards_roughly_p() {
        let cfg = BridgeConfig::typical()
            .with_queue_frames(usize::MAX)
            .with_drop(0.3)
            .with_seed(42);
        let mut b = star_bridge(cfg);
        let n = 2000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now += SimDuration::from_millis(1);
            let _ = b.pickup(&data(0, 1, None), 0, now);
        }
        let rate = b.stats().dropped as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn duplicate_knob_emits_extra_copies() {
        let cfg = BridgeConfig::typical()
            .with_queue_frames(usize::MAX)
            .with_duplicate(1.0)
            .with_seed(7);
        let delay = cfg.forward_delay;
        let mut b = star_bridge(cfg);
        let out = b.pickup(&data(0, 1, None), 0, SimTime::ZERO);
        assert_eq!(
            out,
            vec![
                (1, SimTime::ZERO + delay),
                (1, SimTime::ZERO + delay + delay)
            ],
            "two copies, serialised through the engine"
        );
        assert_eq!(b.stats().duplicated, 1);
        assert_eq!(b.stats().forwarded, 2);
    }

    #[test]
    fn duplicated_copy_respects_the_queue_bound() {
        // A full-but-for-one-slot queue admits the first copy of a
        // duplicated frame and tail-drops the second: the backlog never
        // exceeds queue_frames.
        let cfg = BridgeConfig::typical()
            .with_queue_frames(1)
            .with_duplicate(1.0)
            .with_seed(7);
        let delay = cfg.forward_delay;
        let mut b = star_bridge(cfg);
        let out = b.pickup(&data(0, 1, None), 0, SimTime::ZERO);
        assert_eq!(
            out,
            vec![(1, SimTime::ZERO + delay)],
            "only the first copy fits the 1-frame queue"
        );
        assert_eq!(b.stats().queue_drops, 1, "the second copy tail-dropped");
        assert_eq!(b.stats().duplicated, 0, "no duplicate emission happened");
        assert_eq!(b.stats().forwarded, 1);
    }

    #[test]
    fn knob_builders_share_one_seed_field_explicitly() {
        let cfg = BridgeConfig::typical()
            .with_drop(0.1)
            .with_duplicate(0.2)
            .with_seed(5);
        assert_eq!(cfg.drop, 0.1);
        assert_eq!(cfg.duplicate, 0.2);
        assert_eq!(cfg.seed, 5);
    }

    // -----------------------------------------------------------------
    // The fabric: multi-device pickup and hop-by-hop forwarding.
    // -----------------------------------------------------------------

    #[test]
    fn fabric_offers_pickup_to_every_incident_device() {
        // Chain over 3 segments: devices {0,1} and {1,2}. A frame on
        // segment 1 is heard by both; page 2 is homed on segment 2, so
        // only device 1 forwards it.
        let layout = SegmentLayout::new(6, 3).unwrap();
        let mut f = Fabric::new(layout, FabricConfig::chain(3));
        let out = f.pickup(&data(2, 2, None), 1, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].device, out[0].dst), (1, 2));
        assert_eq!(f.device_stats()[0].filtered, 1, "device 0 kept it local");
        assert_eq!(f.device_stats()[1].forwarded, 1);
        assert_eq!(f.stats().heard, 2, "both devices heard the frame");
    }

    #[test]
    fn forwarded_frames_hop_onward_but_never_back() {
        // Chain 0-1-2: a request from segment 0 crosses device 0 onto
        // segment 1; the forwarded copy is offered to the *other*
        // devices on segment 1 (device 1) and hops on to segment 2.
        let layout = SegmentLayout::new(6, 3).unwrap();
        let mut f = Fabric::new(layout, FabricConfig::chain(3));
        let hop1 = f.pickup(&req(0, 5), 0, SimTime::ZERO).to_vec();
        assert_eq!(hop1.len(), 1);
        assert_eq!((hop1[0].device, hop1[0].dst), (0, 1));
        let hop2 = f
            .pickup_forwarded(&req(0, 5), 1, hop1[0].exit, hop1[0].device)
            .to_vec();
        assert_eq!(hop2.len(), 1, "device 0 excluded, device 1 carries on");
        assert_eq!((hop2[0].device, hop2[0].dst), (1, 2));
        let hop3 = f.pickup_forwarded(&req(0, 5), 2, hop2[0].exit, hop2[0].device);
        assert!(hop3.is_empty(), "segment 2 is a leaf: the walk ends");
    }

    #[test]
    fn fabric_subscribe_pins_every_device_toward_the_segment() {
        let layout = SegmentLayout::new(8, 4).unwrap();
        let mut f = Fabric::new(layout, FabricConfig::tree(4, 2));
        f.subscribe(PageId::new(0), 3);
        // Data on segment 0 (the home) now crosses device 0 toward
        // segment 1 (the direction of 3)...
        let out = f.pickup(&data(0, 0, None), 0, SimTime::ZERO).to_vec();
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].device, out[0].dst), (0, 1));
        // ...and hops across device 1 to segment 3 itself.
        let out2 = f.pickup_forwarded(&data(0, 0, None), 1, out[0].exit, 0);
        assert_eq!(out2.len(), 1);
        assert_eq!((out2[0].device, out2[0].dst), (1, 3));
    }

    #[test]
    fn fabric_star_matches_single_bridge_byte_for_byte() {
        // The 1-device fabric must reproduce PR 3's single bridge
        // exactly: same egress schedule, same counters.
        let layout = layout_4x2();
        let mut f = Fabric::new(layout, FabricConfig::star(4));
        let mut b = star_bridge(BridgeConfig::typical());
        let frames = [
            (req(6, 0), 3usize),
            (data(0, 0, None), 0),
            (data(0, 0, Some(5)), 0),
            (data(5, 0, None), 2),
            (req(2, 7), 1),
        ];
        let mut now = SimTime::ZERO;
        for (pkt, seg) in frames {
            now += SimDuration::from_micros(200);
            let fab: Vec<(usize, SimTime)> = f
                .pickup(&pkt, seg, now)
                .iter()
                .map(|fw| {
                    assert_eq!(fw.device, 0);
                    (fw.dst, fw.exit)
                })
                .collect();
            assert_eq!(fab, b.pickup(&pkt, seg, now));
        }
        assert_eq!(f.stats(), b.stats());
    }

    // -----------------------------------------------------------------
    // The election, wired through policy and fabric.
    // -----------------------------------------------------------------

    fn live_ring_fabric(segments: usize, hosts: usize) -> Fabric {
        let layout = SegmentLayout::new(hosts, segments).unwrap();
        Fabric::new(
            layout,
            FabricConfig::ring(segments).with_election(ElectionMode::live()),
        )
    }

    #[test]
    fn live_election_on_a_tree_is_the_static_tree() {
        // On a tree, the live election with optimistic views must
        // produce exactly the static forwarding state: every port
        // forwarding, identical next hops — the base case the PR 4
        // byte-identical pins ride on.
        let layout = SegmentLayout::new(8, 4).unwrap();
        let topo = BridgeTopology::balanced_tree(4, 2);
        let static_f = Fabric::new(layout, FabricConfig::new(topo.clone()));
        let live_f = Fabric::new(
            layout,
            FabricConfig::new(topo.clone()).with_election(ElectionMode::live()),
        );
        for d in 0..topo.bridges() {
            let s = static_f.device(d).policy().active();
            let l = live_f.device(d).policy().active();
            assert_eq!(s, l, "device {d} active tree");
            let all: HostMask = topo.ports(d).iter().copied().collect();
            assert_eq!(l.forwarding(d), all);
        }
    }

    #[test]
    fn ring_blocks_its_redundant_port_and_routes_around_it() {
        let mut f = live_ring_fabric(4, 8);
        // Healthy ring: the elected tree blocks exactly one port
        // (device 2's port on segment 3 for uniform priorities).
        let blocked: usize = (0..4)
            .map(|d| {
                let p = f.device(d).policy();
                2 - p.active().forwarding(d).len()
            })
            .sum();
        assert_eq!(blocked, 1, "one dormant redundant port");
        // Data for page 0 (homed segment 0) transmitted on segment 0
        // reaches nobody (no interest) — but a request from segment 2
        // crosses toward the holder without looping.
        let out = f.pickup(&req(4, 0), 2, SimTime::ZERO);
        assert!(!out.is_empty());
        for fw in out {
            assert_ne!(fw.dst, 2, "never forwarded back out the incoming port");
        }
    }

    #[test]
    fn hello_timeout_declares_a_dead_neighbour_and_reconverges() {
        let mut f = live_ring_fabric(4, 8);
        let ElectionMode::Live {
            hello_interval,
            hello_timeout,
            ..
        } = f.election()
        else {
            panic!("live fabric")
        };
        // Warm-up: everyone hellos at t = interval, hearing each other.
        let t1 = SimTime::ZERO + hello_interval;
        let mut frames: Vec<ControlOut> = Vec::new();
        for d in 0..4 {
            frames.extend(f.tick(d, t1));
        }
        assert!(!frames.is_empty(), "live devices emit hellos");
        for c in &frames {
            let more = f.hear_control(&c.pkt, c.seg, t1, c.device);
            for m in more {
                let _ = f.hear_control(&m.pkt, m.seg, t1, m.device);
            }
        }
        assert_eq!(f.reconvergences(), 0, "a healthy fabric never re-elects");
        // Device 0 dies; its neighbours stop hearing it.
        f.apply_event(FabricEvent::BridgeDown(0), t1);
        assert!(f.is_dead(0));
        let t_dead = t1 + hello_timeout + hello_interval + hello_interval;
        let mut changed = Vec::new();
        for d in 1..4 {
            changed.extend(f.tick(d, t_dead));
        }
        // Gossip the obituaries until quiet.
        let mut guard = 0;
        while !changed.is_empty() && guard < 64 {
            let c = changed.remove(0);
            changed.extend(f.hear_control(&c.pkt, c.seg, t_dead, c.device));
            guard += 1;
        }
        assert!(f.reconvergences() >= 1, "the survivors re-elected");
        // The surviving devices all agree device 0 is gone and route
        // around it: a request from segment 1 still reaches segment 0
        // the long way (1 → 2 → 3 → 0).
        for d in 1..4 {
            assert!(f.device(d).policy().active().fully_connected_from(d));
        }
    }

    #[test]
    fn contradictory_pdu_device_id_is_counted_and_ignored() {
        let mut f = live_ring_fabric(4, 8);
        let ElectionMode::Live { hello_interval, .. } = f.election() else {
            panic!("live fabric")
        };
        let t1 = SimTime::ZERO + hello_interval;
        let frames = f.tick(0, t1);
        let c = &frames[0];
        let Packet::BridgePdu { from, entries, .. } = c.pkt.clone() else {
            panic!("hellos are bridge PDUs")
        };
        // A genuine hello from device 0, but the wire claims device 1
        // emitted it: the embedded id contradicts the actual emitter.
        let lying = Packet::BridgePdu {
            from,
            device: 1,
            entries: entries.clone(),
        };
        assert!(f.hear_control(&lying, c.seg, t1, c.device).is_empty());
        assert_eq!(f.stats().malformed_pdus, 1);
        // An id naming no device of this fabric is rejected the same
        // way, even when it matches the claimed emitter.
        let alien = Packet::BridgePdu {
            from,
            device: 99,
            entries,
        };
        assert!(f.hear_control(&alien, c.seg, t1, 99).is_empty());
        assert_eq!(f.stats().malformed_pdus, 2);
        // Neither frame refreshed a neighbour's liveness stamp, so the
        // healthy fabric still has nothing to re-elect over.
        assert_eq!(f.reconvergences(), 0);
    }

    #[test]
    fn reconvergence_flushes_learned_state_on_changed_ports() {
        let mut f = live_ring_fabric(4, 8);
        let ElectionMode::Live {
            hello_interval,
            hello_timeout,
            hold_down,
        } = f.election()
        else {
            panic!("live fabric")
        };
        // Teach device 2 a holder belief for page 0 toward segment 2
        // (in from its forwarding port): data arriving on segment 2.
        let _ = f.pickup(&data(4, 0, None), 2, SimTime::ZERO);
        assert_eq!(f.device(2).policy().holder_port(PageId::new(0)), Some(2));
        // Kill device 0; survivors reconverge — device 2's blocked port
        // (segment 3) turns Forwarding, and flushes.
        let t1 = SimTime::ZERO + hello_interval;
        f.apply_event(FabricEvent::BridgeDown(0), t1);
        let t_dead = t1 + hello_timeout + hello_interval + hello_interval;
        let mut frames = Vec::new();
        for d in 1..4 {
            frames.extend(f.tick(d, t_dead));
        }
        let mut guard = 0;
        while !frames.is_empty() && guard < 64 {
            let c = frames.remove(0);
            frames.extend(f.hear_control(&c.pkt, c.seg, t_dead, c.device));
            guard += 1;
        }
        let p2 = f.device(2).policy();
        assert!(p2.election_epoch() >= 1);
        // Port 3 of device 2 changed role (Blocked → Forwarding): any
        // belief through an unchanged port survives, the changed port's
        // state is clean, and the port holds down before carrying data.
        assert!(p2.active().forwarding(2).contains(3));
        let held = p2.targets(&data(0, 1, None), 3, t_dead);
        assert!(held.is_empty(), "held-down ingress carries nothing");
        let after_hold = t_dead + hold_down + SimDuration::from_micros(1);
        let flowing = p2.targets(&data(0, 1, None), 3, after_hold);
        assert!(
            flowing.contains(2),
            "after the hold-down the new tree carries data toward home"
        );
    }

    #[test]
    fn bridge_up_revives_with_a_version_above_its_obituary() {
        let mut f = live_ring_fabric(4, 8);
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        f.apply_event(FabricEvent::BridgeDown(1), t);
        assert!(f.is_dead(1));
        let t2 = t + SimDuration::from_millis(10);
        f.apply_event(FabricEvent::BridgeUp(1), t2);
        assert!(!f.is_dead(1));
        // The revived device's hello asserts itself at version 2 —
        // above the version-1 obituary any neighbour may still be
        // gossiping.
        let outs = f.tick(1, t2 + SimDuration::from_millis(1));
        let Packet::BridgePdu { entries, .. } = &outs[0].pkt else {
            panic!("hellos are bridge PDUs")
        };
        let (_, own) = entries.iter().find(|(d, _)| *d == 1).expect("own view");
        assert_eq!(own.version, 2);
        assert!(own.alive);
        assert_eq!(f.timeline().len(), 2, "both events on the timeline");
    }

    #[test]
    fn revival_rejoins_held_down_stamped_and_with_its_history() {
        // The three revival transients, pinned: (a) a revived device's
        // ports boot in their hold-down — its optimistic construction
        // tree must not forward before the first hello exchange, or a
        // transient loop could close on the redundant wiring; (b) its
        // neighbour stamps start at the revival time, so its first tick
        // does NOT declare every neighbour dead off a zeroed clock;
        // (c) the run's traffic accounting survives the cold restart.
        let mut f = live_ring_fabric(4, 8);
        let ElectionMode::Live {
            hello_interval,
            hold_down,
            ..
        } = f.election()
        else {
            panic!("live fabric")
        };
        // Pre-kill traffic: device 1 ({1,2}) forwards a request from
        // segment 2 toward page 0's home (segment 1 → device 0 → 0).
        let _ = f.pickup(&req(4, 0), 2, SimTime::ZERO);
        let pre = f.device(1).stats();
        assert!(pre.forwarded > 0, "device 1 carried pre-kill traffic");
        // Kill late enough that a zeroed clock would look timed out.
        let t_down = SimTime::ZERO + SimDuration::from_millis(50);
        f.apply_event(FabricEvent::BridgeDown(1), t_down);
        let t_up = t_down + SimDuration::from_millis(100);
        f.apply_event(FabricEvent::BridgeUp(1), t_up);
        // (a) Every port held down: no data in or out until it expires.
        let during_hold = t_up + SimDuration::from_micros(10);
        assert!(
            f.device(1)
                .policy()
                .targets(&req(2, 0), 1, during_hold)
                .is_empty(),
            "held-down ports must not forward"
        );
        let after_hold = t_up + hold_down + SimDuration::from_micros(1);
        assert!(
            !f.device(1)
                .policy()
                .targets(&req(2, 0), 1, after_hold)
                .is_empty(),
            "forwarding resumes once the hold-down expires"
        );
        // (b) The first tick after revival raises no obituaries: the
        // neighbour stamps were reset to the revival time.
        let outs = f.tick(1, t_up + hello_interval);
        assert!(!outs.is_empty(), "the revived device hellos");
        let Packet::BridgePdu { entries, .. } = &outs[0].pkt else {
            panic!()
        };
        for (d, v) in entries {
            assert!(v.alive, "device {d} wrongly declared dead at revival");
        }
        // (c) The pre-kill counters carried over into the new life.
        let post = f.device(1).stats();
        assert!(post.forwarded >= pre.forwarded);
        assert!(post.heard >= pre.heard);
    }

    #[test]
    fn link_down_survives_a_revival() {
        let mut f = live_ring_fabric(4, 8);
        let t = SimTime::ZERO;
        f.apply_event(
            FabricEvent::LinkDown {
                device: 1,
                segment: 2,
            },
            t,
        );
        assert_eq!(set(f.device(1).policy().self_live_ports()), vec![1]);
        // Frames on the severed segment are no longer picked up by 1.
        let out = f.pickup(&req(4, 0), 2, t);
        assert!(out.iter().all(|fw| fw.device != 1));
        // Death and revival do not repair the cable.
        f.apply_event(FabricEvent::BridgeDown(1), t + SimDuration::from_millis(1));
        f.apply_event(FabricEvent::BridgeUp(1), t + SimDuration::from_millis(2));
        assert_eq!(set(f.device(1).policy().self_live_ports()), vec![1]);
    }

    #[test]
    fn repeated_and_no_op_events_change_nothing() {
        let mut f = live_ring_fabric(4, 8);
        let down = FabricEvent::LinkDown {
            device: 1,
            segment: 2,
        };
        assert!(f.apply_event(down, ms(1)));
        let version = f.device(1).policy().views()[1].version;
        let epoch = f.device(1).policy().election_epoch();
        let timeline = f.timeline().to_vec();
        // The link is already lost: the second LinkDown neither bumps
        // the self-version nor re-elects nor leaves a timeline entry.
        assert!(!f.apply_event(down, ms(2)));
        assert_eq!(f.device(1).policy().views()[1].version, version);
        assert_eq!(f.device(1).policy().election_epoch(), epoch);
        assert_eq!(f.timeline(), timeline);
        // The same for a BridgeDown of a dead device and a BridgeUp of
        // a live one.
        assert!(f.apply_event(FabricEvent::BridgeDown(3), ms(3)));
        let timeline = f.timeline().to_vec();
        assert!(!f.apply_event(FabricEvent::BridgeDown(3), ms(4)));
        assert!(!f.apply_event(FabricEvent::BridgeUp(0), ms(4)));
        assert_eq!(f.timeline(), timeline);
        assert_eq!(f.restarts(0), 0);
    }

    #[test]
    fn an_untimed_forward_routes_and_counts_like_a_pickup() {
        // Two copies of one fabric hear the same frames: one through the
        // timed pickup (no drop or duplicate knob), one device at a
        // time through the untimed forward. Both send each frame to the
        // same segments and count the same.
        let layout = SegmentLayout::new(8, 4).unwrap();
        let mut timed = Fabric::new(layout, FabricConfig::tree(4, 2));
        let mut untimed = Fabric::new(layout, FabricConfig::tree(4, 2));
        let frames = [
            (req(6, 0), 3),
            (reply(0, 0, None), 0),
            (req(2, 1), 1),
            (data(2, 1, Some(6)), 1),
            (req(4, 1), 2),
            (superset_req(0, 2), 0),
        ];
        for (n, (pkt, seg)) in frames.iter().enumerate() {
            let now = ms(n as u64 + 1);
            let mut want: Vec<(usize, usize)> = (timed.pickup(pkt, *seg, now).iter())
                .map(|fw| (fw.device, fw.dst))
                .collect();
            let mut got = Vec::new();
            for d in untimed.topology().bridges_on(*seg).to_vec() {
                got.extend(
                    untimed
                        .forward(d, pkt, *seg, now)
                        .iter()
                        .map(|&dst| (d, dst)),
                );
            }
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{pkt:?} on {seg}");
        }
        assert_eq!(untimed.device_stats(), timed.device_stats());
        // A severed attachment hears nothing, and the lost port is never
        // a destination: the election leaves it out.
        let lost = FabricEvent::LinkDown {
            device: 0,
            segment: 1,
        };
        untimed.apply_event(lost, ms(10));
        assert!(untimed.forward(0, &req(2, 0), 1, ms(11)).is_empty());
        for seg in [0, 2] {
            let out = untimed.forward(0, &superset_req(2 * seg as u16, 3), seg, ms(12));
            assert!(!out.contains(&1), "forwarded onto the lost port: {out:?}");
        }
    }

    #[test]
    fn each_device_counts_the_lying_hellos_it_hears() {
        // The per-device hearing a threaded runtime runs: each device
        // that hears a contradictory hello counts it in its own stats.
        let mut f = live_ring_fabric(4, 8);
        let frames = f.tick(0, ms(1));
        let Packet::BridgePdu { from, entries, .. } = frames[0].pkt.clone() else {
            panic!("hellos are bridge PDUs")
        };
        let seg = frames[0].seg;
        let lying = Packet::BridgePdu {
            from,
            device: 1,
            entries,
        };
        let hearer = *(f.topology().bridges_on(seg).iter())
            .find(|&&d| d != 0)
            .unwrap();
        assert!(f.hear_hello(hearer, &lying, seg, 0, ms(1)).is_empty());
        assert_eq!(f.device(hearer).stats().malformed_pdus, 1);
        assert_eq!(f.stats().malformed_pdus, 1);
        // The honest hello is heard: a fresh device's first news of its
        // neighbour changes nothing, so nothing is triggered either.
        let honest = frames[0].pkt.clone();
        assert!(f.hear_hello(hearer, &honest, seg, 0, ms(1)).is_empty());
        assert_eq!(f.stats().malformed_pdus, 1);
    }

    #[test]
    fn targets_is_the_same_walk_as_route_on_wide_devices() {
        // After a frame is routed, targets() of the same frame at the
        // same instant names exactly the ports route_into chose — on
        // the 16×16 mesh, whose segment ids run past a mask's inline
        // width, and on a 160-port star.
        let mut rng = StdRng::seed_from_u64(7);
        for topology in [BridgeTopology::mesh2d(16, 16), BridgeTopology::star(160)] {
            let topology = Arc::new(topology);
            let segments = topology.segments();
            let layout = SegmentLayout::new(2 * segments, segments).unwrap();
            let cfg = FabricConfig::new(BridgeTopology::clone(&topology));
            let boot = BootState::new(Arc::clone(&topology), Vec::new());
            let last = topology.bridges() - 1;
            for device in [0, last / 2, last] {
                let mut p = BridgePolicy::for_device(layout, &boot, device, &cfg);
                let ports = topology.ports(device);
                for step in 1..=200 {
                    let in_port = ports[rng.gen_range(0..ports.len() as u64) as usize];
                    let (from, page) = (host_on(in_port), rng.gen_range(0..300) as u32);
                    let pkt = match rng.gen_range(0..4) {
                        0 => req(from, page),
                        1 => superset_req(from, page),
                        kind => Packet::PageData {
                            from: HostId(from),
                            page: PageId::new(page),
                            length: PageLength::Short,
                            generation: Generation(kind),
                            transfer_to: (kind == 3)
                                .then(|| HostId(rng.gen_range(0..2 * segments as u64) as u16)),
                            data: Bytes::from(vec![0u8; 32]),
                        },
                    };
                    let now = ms(step);
                    let routed = p.route(&pkt, in_port, now);
                    assert_eq!(
                        routed,
                        p.targets(&pkt, in_port, now),
                        "{pkt:?} on {in_port}"
                    );
                }
            }
        }
    }

    #[test]
    fn static_election_ignores_the_control_plane() {
        let layout = SegmentLayout::new(8, 4).unwrap();
        let mut f = Fabric::new(layout, FabricConfig::tree(4, 2));
        assert!(f.tick(0, SimTime::ZERO).is_empty(), "no hellos");
        assert_eq!(f.election().hello_interval(), None);
        assert_eq!(f.reconvergences(), 0);
    }
}
