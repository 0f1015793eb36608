//! One bridge device: its policy and its store-and-forward engine.
//!
//! # Engine
//!
//! [`Bridge`] wraps one device's policy in the simulator's
//! store-and-forward timing: a forwarding delay, a bounded frame queue
//! that tail-drops under overload, and drop/duplicate fault-injection
//! knobs ([`BridgeConfig`]), accounted per device in [`BridgeStats`].
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
//!   one). [`Fabric::new`](super::Fabric::new) computes it once, every device boots on it
//!   by reference, and every cold revival boots on it again — no
//!   constructor elects per device. A device's view table and its
//!   active tree are held copy-on-write: the table is copied the first
//!   time one of *this* device's beliefs really changes (a merged
//!   hello is compared before anything is written), and the tree is
//!   replaced — never edited — when a re-election lands on a different
//!   one; a re-election that finds root and forwarding masks unchanged
//!   keeps the tree it has. Under [`ElectionMode::Static`](super::ElectionMode::Static) nothing
//!   ever diverges: a 480-device mesh carries one tree and one view
//!   table, not 480.
//! * **Per device, always private** — the page filters (holder
//!   beliefs) and the slab of demand stamps beside them, one row of
//!   ports per filter, whose written stamps are the learned interest;
//!   the pins, apart; neighbour liveness stamps and hold-downs, the
//!   election epoch, gossip watermarks, counters, and the engine's
//!   backlog and fault-injection RNG. A device keeps a filter only for
//!   the pages it has heard of: a sorted `(page, slot)` index (8 bytes
//!   per page heard) leads to compact filters and stamp rows, and a
//!   page without a slot answers every query as a default filter
//!   would. On the 480-device mesh most devices hear of a small share
//!   of the pages, so most would-be filters never exist.

use super::election::{BootState, Election, PduOutcome};
use super::policy::{Filters, PortStamp};
use super::{BridgeConfig, BridgeStats, FabricConfig};
use crate::time::SimTime;
use mether_core::{
    ActiveTree, DeviceView, Generation, HostMask, Packet, PageHomePolicy, PageId, SegmentLayout,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// One device's forwarding filter: which of its ports must hear a frame.
///
/// Time-free and transport-free: the [`Bridge`] engine wraps it in the
/// simulator's timing or forwards untimed for a threaded runtime. It
/// pairs the device's per-page filters (the bridge's `policy` module,
/// which holds the rules) with its slice of the election state (its
/// `election` module): its gossiped views, neighbour liveness stamps,
/// and the [`ActiveTree`] it currently forwards on. Routing reads the
/// election through a lent view; an election step that changes the tree
/// names the ports whose role changed, and the filters forget what they
/// learned through them.
#[derive(Debug, Clone)]
pub struct BridgePolicy {
    filters: Filters,
    election: Election,
}

impl BridgePolicy {
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
        let election = Election::new(boot, device, cfg.election);
        let ports = topology.ports(device);
        debug_assert!(ports.windows(2).all(|w| w[0] < w[1]), "port lists ascend");
        BridgePolicy {
            filters: Filters::new(
                layout,
                Arc::clone(topology),
                device,
                cfg.homes.clone(),
                cfg.aging,
            ),
            election,
        }
    }

    /// Marks this device as (re)joining an already-running fabric at
    /// `now` (see [`Election::rejoin`]).
    pub(crate) fn rejoin(&mut self, now: SimTime) {
        self.election.rejoin(now);
    }

    /// The single device of a 1-bridge star with sticky interest — the
    /// device of [`FabricConfig::star`].
    pub(crate) fn star(layout: SegmentLayout, homes: PageHomePolicy) -> Self {
        let cfg = FabricConfig::star(layout.segments()).with_homes(homes);
        let boot = BootState::new(Arc::new(cfg.topology.clone()), Vec::new());
        Self::for_device(layout, &boot, 0, &cfg)
    }

    /// The host layout the filter routes over.
    pub fn layout(&self) -> &SegmentLayout {
        self.filters.layout()
    }

    /// Which device of the topology this filter belongs to.
    pub fn device(&self) -> usize {
        self.filters.device()
    }

    /// The active forwarding tree currently routed on.
    pub fn active(&self) -> &ActiveTree {
        self.election.active()
    }

    /// How many times the active tree has changed since construction.
    pub fn election_epoch(&self) -> u64 {
        self.election.epoch()
    }

    /// Belief-quality counters: a [`BridgeStats`] with only
    /// `belief_hits`, `home_routed`, `belief_fallback_floods` and
    /// `belief_repairs` set, ready to [`BridgeStats::sum`] with the
    /// engine's traffic counters.
    pub(crate) fn belief_counters(&self) -> BridgeStats {
        self.filters.belief_counters()
    }

    /// The device's live ports: physical ports minus failed links (per
    /// its own self-view).
    pub fn self_live_ports(&self) -> HostMask {
        self.election.self_live_ports()
    }

    /// Whether `seg` is one of [`BridgePolicy::self_live_ports`], by
    /// borrow — the per-frame question the pickup loop asks of every
    /// device on a segment, which must not build a mask to answer.
    pub(crate) fn port_is_live(&self, seg: usize) -> bool {
        self.election.port_is_live(seg)
    }

    /// The home segment of `page`.
    pub fn home_of(&self, page: PageId) -> usize {
        self.filters.home_of(page)
    }

    /// The port of this device toward `page`'s home segment on the
    /// active tree — always interested, never aged. `None` while the
    /// home segment is partitioned away (no forwarding path exists).
    pub fn home_port(&self, page: PageId) -> Option<usize> {
        self.filters.home_port(page, self.election.tree())
    }

    /// Does port `port` want `page`'s publications at `now`? It does
    /// when it is a fresh learned port, a pin (resolved through the
    /// active tree) or the home port: the per-port test data forwarding
    /// applies.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a port of this device.
    pub fn interested(&self, page: PageId, port: usize, now: SimTime) -> bool {
        (self.filters).interested(page, port, now, self.election.tree())
    }

    /// The port toward the believed consistent holder of `page`, if any
    /// data transit or `transfer_to` has taught this device one.
    pub fn holder_port(&self, page: PageId) -> Option<usize> {
        self.filters.holder_port(page)
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
        self.election.ports_mask()
    }

    /// Transits this device has forwarded so far — the clock
    /// [`AgeHorizon::Transits`](super::AgeHorizon::Transits) freshness is
    /// measured against. Every per-port demand stamp was taken at or
    /// below this value.
    pub fn aging_clock(&self) -> u64 {
        self.filters.aging_clock()
    }

    /// The ids of the pages this device has heard of — those with a
    /// materialised filter — in ascending id order. A page the device
    /// never heard of has no filter and answers every query as a
    /// default one would.
    pub fn tracked_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.filters.tracked_pages()
    }

    /// The raw learned-interest port mask of `page` — the ports whose
    /// stamp is written, unaged; the effective, freshness-filtered view
    /// is [`BridgePolicy::interested`]. Built from the stamp row on each
    /// call, for the invariant observer and tests.
    pub fn learned(&self, page: PageId) -> HostMask {
        self.filters.learned(page)
    }

    /// The segments explicitly pinned to `page` via
    /// [`BridgePolicy::subscribe`]. Pins name segments, not ports; they
    /// resolve through the active tree at use time.
    pub fn pinned_segs(&self, page: PageId) -> &HostMask {
        self.filters.pinned_segs(page)
    }

    /// Last demand evidence of `page` per port of this device, parallel
    /// to `topology.ports(device)`. `None` while the page has no
    /// materialised filter.
    pub fn stamps(&self, page: PageId) -> Option<&[PortStamp]> {
        self.filters.stamps(page)
    }

    /// The newest data generation any transit has shown this device for
    /// `page` — the gate that keeps stale `Want::Superset` echoes from
    /// repointing the holder belief.
    pub fn newest_gen(&self, page: PageId) -> Option<Generation> {
        self.filters.newest_gen(page)
    }

    /// This device's gossiped liveness beliefs, indexed by device (its
    /// own entry included).
    pub fn views(&self) -> &[DeviceView] {
        self.election.views()
    }

    /// The ports still inside their post-election listening hold-down
    /// at `now` — forwarding-role ports the data plane must not use yet.
    pub fn held_ports(&self, now: SimTime) -> HostMask {
        self.election.held_ports(now)
    }

    /// Drains this device's dirty state for the incremental invariant
    /// observer: the pages whose filter state changed since the last
    /// drain (deduplicated), and whether structural state (views, port
    /// liveness, active tree, election epoch, hold-downs) changed.
    pub fn take_dirty(&mut self) -> (Vec<PageId>, bool) {
        let structural = self.election.take_dirty();
        (self.filters.take_dirty(), structural)
    }

    /// Test-only fault injection: forcibly stamps demand for `page` on
    /// this device's first port with a clock one transit ahead of the
    /// device's aging clock — learned interest no forwarded frame can
    /// have recorded, deliberately violating the stamp-clock bound the
    /// observer checks. Goes through the ordinary mutation path, so it
    /// registers in the dirty set like a real bug in the learning code
    /// would.
    #[doc(hidden)]
    pub fn corrupt_learned_for_test(&mut self, page: PageId) {
        self.filters.corrupt_learned_for_test(page);
    }

    /// Whether a missing holder belief on this device still proves the
    /// holder lies through the page's home port (the bridge's `policy`
    /// module, "The probable-owner trail"): from boot until the device's
    /// active tree changes or it rejoins a running fabric.
    pub fn trail_intact(&self) -> bool {
        self.election.trail_intact()
    }

    /// Test-only fault injection: forcibly points `page`'s holder
    /// belief at `segment` — which need not be a port of this device —
    /// or, with `None`, erases it. See
    /// [`BridgePolicy::corrupt_learned_for_test`].
    #[doc(hidden)]
    pub fn corrupt_holder_belief_for_test(&mut self, page: PageId, segment: Option<usize>) {
        self.filters.corrupt_holder_belief_for_test(page, segment);
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
        self.filters.subscribe(page, seg);
    }

    /// The consistent copy of `page` was just created on segment `seg`,
    /// before any frame of it has crossed the fabric: if this device
    /// lies between the page's home and `seg`, its holder belief now
    /// points toward `seg` (the bridge's `policy` module,
    /// "The probable-owner trail").
    pub fn seed_holder(&mut self, page: PageId, seg: usize) {
        (self.filters).seed_holder(page, seg, self.election.tree());
    }

    /// Routes one frame heard on `in_port` at `now`: updates the
    /// learning tables, leaves the ports the frame must be forwarded to
    /// in `out`, ascending (never `in_port`), and ticks the aging clock
    /// when the frame is forwarded. A frame heard on a Blocked (or
    /// held-down) port is neither learned from nor forwarded. What a
    /// [`Bridge`] calls for every frame it hears, with a buffer it
    /// reuses, so routing a frame allocates nothing.
    pub fn route_into(&mut self, pkt: &Packet, in_port: usize, now: SimTime, out: &mut Vec<usize>) {
        (self.filters).route_into(pkt, in_port, now, self.election.tree(), out);
    }

    /// The hello this device emits right now (see
    /// [`Election::pdu_for_emission`]).
    pub(crate) fn pdu_for_emission(&mut self) -> Packet {
        self.election.pdu_for_emission()
    }

    /// Ingests a hello from device `from_device` at `now` (see
    /// [`Election::hear_pdu`]), flushing what was learned through any
    /// port whose role the re-election changed.
    pub(crate) fn hear_pdu(
        &mut self,
        from_device: usize,
        entries: &[(u16, DeviceView)],
        now: SimTime,
    ) -> PduOutcome {
        let out = self.election.hear_pdu(from_device, entries, now);
        self.flush(out)
    }

    /// One hello-cadence tick at `now` (see [`Election::on_tick`]).
    pub(crate) fn on_tick(&mut self, now: SimTime) -> PduOutcome {
        let out = self.election.on_tick(now);
        self.flush(out)
    }

    /// Fails this device's attachment to `segment` (see
    /// [`Election::kill_port`]).
    pub(crate) fn kill_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        let out = self.election.kill_port(segment, now);
        self.flush(out)
    }

    /// Restores this device's attachment to `segment` (see
    /// [`Election::revive_port`]).
    pub(crate) fn revive_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        let out = self.election.revive_port(segment, now);
        self.flush(out)
    }

    /// Sets this device's self-assertion version — used when a device
    /// restarts, to start above any obituary still in circulation
    /// (`2 × restarts` keeps it even and strictly above the odd
    /// obituary of every previous life).
    pub fn set_self_version(&mut self, version: u64) {
        self.election.set_self_version(version);
    }

    /// [`BridgePolicy::route_into`] collected into a mask, for the unit
    /// tests: definitionally learn-then-`targets` (and, for a reply,
    /// clear the pending marks it answered), so the diagnostic mask can
    /// never drift from what the device actually forwards.
    #[cfg(test)]
    pub(super) fn route(&mut self, pkt: &Packet, in_port: usize, now: SimTime) -> HostMask {
        let mut ports = Vec::new();
        self.route_into(pkt, in_port, now, &mut ports);
        ports.into_iter().collect()
    }

    /// The forwarding mask of one frame, with no learning side effects,
    /// for the unit tests.
    #[cfg(test)]
    pub(super) fn targets(&self, pkt: &Packet, in_port: usize, now: SimTime) -> HostMask {
        (self.filters).targets(pkt, in_port, now, self.election.tree())
    }

    /// [`BridgePolicy::interested`] collected over every port, for the
    /// unit tests.
    #[cfg(test)]
    pub(super) fn interest(&self, page: PageId, now: SimTime) -> HostMask {
        (self.ports_mask().iter())
            .filter(|&port| self.interested(page, port, now))
            .collect()
    }

    /// [`Filters::flush_port`], for the unit tests.
    #[cfg(test)]
    pub(super) fn flush_port(&mut self, port: usize) {
        self.filters.flush_port(port);
    }

    /// Forgets what was learned through every port whose role `out`'s
    /// re-election changed: on the new tree those directions are
    /// meaningless.
    fn flush(&mut self, out: PduOutcome) -> PduOutcome {
        for port in out.changed_roles.iter() {
            self.filters.flush_port(port);
        }
        out
    }
}

/// One store-and-forward bridge device: a [`BridgePolicy`] wrapped in
/// the simulator's timing, queueing, and fault-injection engine.
#[derive(Debug)]
pub struct Bridge {
    cfg: BridgeConfig,
    pub(super) policy: BridgePolicy,
    /// When the forwarding engine next falls idle.
    free_at: SimTime,
    /// Exit times of frames currently queued in the device.
    backlog: VecDeque<SimTime>,
    rng: StdRng,
    pub(super) stats: BridgeStats,
    /// Counters inherited from this device's previous life (a revival
    /// cold-resets the filter, not the run's accounting).
    carryover: BridgeStats,
    /// The last pickup's target ports and egress schedule: buffers the
    /// device reuses, so a pickup allocates nothing.
    pub(super) targets: Vec<usize>,
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
    pub(crate) fn with_stats_base(mut self, base: BridgeStats) -> Self {
        self.carryover = base;
        self
    }

    /// The single device of a 1-bridge star over `layout`.
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
    /// engine; they are consumed by the control plane. The
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
    pub(super) fn route(&mut self, pkt: &Packet, in_port: usize, now: SimTime) -> bool {
        self.stats.heard += 1;
        self.policy.route_into(pkt, in_port, now, &mut self.targets);
        if self.targets.is_empty() {
            self.stats.filtered += 1;
        }
        !self.targets.is_empty()
    }

    /// Counts one copy of `pkt` leaving through every target port;
    /// `duplicate` marks the duplicate knob's extra copy.
    pub(super) fn count_emissions(&mut self, pkt: &Packet, duplicate: bool) {
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
