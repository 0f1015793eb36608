//! Every device of a topology, wired together.
//!
//! # Engine
//!
//! [`Fabric`] owns every device of a topology: their liveness, their
//! lost links, the control plane (hello ticks, control-frame gossip,
//! failure events), reconvergence and the stall probe. It is the one
//! fault plane, and two engines drive it. Both hand it each frame a
//! segment carried once, as one segment-level step, and it offers the
//! frame to every live device attached to the segment but the one that
//! emitted it there:
//!
//! * the simulator's step is timed ([`Fabric::pickup`],
//!   [`Fabric::pickup_forwarded`], [`Fabric::hear_control`]). Egress
//!   timing is the *exit* time from a device; the destination segment's
//!   own medium model then queues the frame like any other
//!   transmission, and the remaining devices on that segment hear it
//!   there;
//! * a threaded runtime's step is untimed ([`Fabric::carry`]): a data
//!   frame leaves as soon as it is routed, with no forward delay, queue
//!   bound or drop/duplicate injection, and a control frame is heard
//!   through [`Fabric::hear_control`]. The runtime puts what the step
//!   emits on the destination segments' media and steps again, in the
//!   transmitting thread.
//!
//! The per-device steps are carved out of the same loops the
//! simulator's fan-out runs (is the device alive and its port live,
//! route, count, probe the stall), and both engines inject faults
//! through [`Fabric::apply_event`], so a fault script means the same in
//! both.

use super::election::{checked_hello, BootState};
use super::{
    Bridge, BridgePolicy, BridgeStats, ElectionMode, FabricConfig, FabricEvent, BRIDGE_HOST_BASE,
};
use crate::time::{SimDuration, SimTime};
use mether_core::{BridgeTopology, HostMask, Packet, PageId, SegmentLayout};
use std::sync::Arc;

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

/// One frame a device wants transmitted on one of its segments: a
/// hello, periodic or triggered, or a data frame the runtime's untimed
/// step forwards ([`Fabric::carry`]). The caller clocks it out on the
/// segment's medium, and the other devices there hear it.
#[derive(Debug, Clone)]
pub struct Emission {
    /// The emitting device.
    pub device: usize,
    /// The segment to transmit on.
    pub seg: usize,
    /// The frame itself.
    pub pkt: Packet,
}

/// Every bridge device of a segmented deployment, wired per the
/// topology: data plane, control plane and fault plane, driven by the
/// simulator's event loop and by a threaded runtime's transmitting
/// threads alike (see the module docs, "Engine").
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
            timeline: Vec::new(),
            dirty_liveness: false,
            out: Vec::new(),
        };
        for device in 0..n {
            let bridge = fabric.build_device(device, 0, HostMask::EMPTY);
            fabric.devices.push(bridge);
        }
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

    /// The runtime's untimed step: frame `pkt`, emitted by device
    /// `emitter` (`None`: by a host) after crossing `hops` devices, was
    /// carried by segment `seg` at `now`. Every live device attached to
    /// `seg` but the emitter hears it, and `out` gets what they emit: a
    /// data frame goes at once onto each segment a device routes it to,
    /// with no forward delay, queue bound or drop/duplicate injection; a
    /// control frame is heard through [`Fabric::hear_control`], and its
    /// triggered hellos go out.
    ///
    /// A data frame that has already crossed as many devices as the
    /// fabric has segments goes no further: each device that would
    /// forward it counts it in [`BridgeStats::dropped`] instead. A
    /// loop-free active tree never reaches that bound; a transient loop
    /// under a live election can.
    pub fn carry(
        &mut self,
        pkt: &Packet,
        seg: usize,
        now: SimTime,
        emitter: Option<usize>,
        hops: usize,
        out: &mut Vec<Emission>,
    ) {
        if pkt.is_control() {
            // The emitter is the frame's fabric endpoint id, the one
            // sender identity a LAN frame carries.
            let from = usize::from(pkt.from().0.wrapping_sub(BRIDGE_HOST_BASE));
            out.extend(self.hear_control(pkt, seg, now, from));
            return;
        }
        let spent = hops >= self.layout.segments();
        for i in 0..self.boot.topology.bridges_on(seg).len() {
            let device = self.boot.topology.bridges_on(seg)[i];
            if Some(device) == emitter || !self.hears(device, seg) {
                continue;
            }
            let bridge = &mut self.devices[device];
            if !bridge.route(pkt, seg, now) {
                continue;
            }
            if spent {
                bridge.stats.dropped += 1;
                continue;
            }
            bridge.count_emissions(pkt, false);
            out.extend(bridge.targets.iter().map(|&dst| Emission {
                device,
                seg: dst,
                pkt: pkt.clone(),
            }));
            self.probe_stall(device, pkt, now);
        }
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
    pub fn tick(&mut self, device: usize, now: SimTime) -> Vec<Emission> {
        if self.dead[device] || self.cfg.election == ElectionMode::Static {
            return Vec::new();
        }
        let outcome = self.devices[device].policy_mut().on_tick(now);
        if outcome.active_changed {
            self.reconvergences += 1;
        }
        self.emissions(device)
    }

    /// A control frame from `from_device` was delivered on `seg` at
    /// `arrival`: every device attached to `seg` but the emitter hears
    /// it and ingests what it tells, and any device whose beliefs
    /// changed emits a triggered hello on all its live ports (the
    /// TC-style fast propagation). A frame whose `device` field
    /// contradicts `from_device` or names no device of the fabric is
    /// counted by each device that hears it, and ignored.
    pub fn hear_control(
        &mut self,
        pkt: &Packet,
        seg: usize,
        arrival: SimTime,
        from_device: usize,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        for i in 0..self.boot.topology.bridges_on(seg).len() {
            let d = self.boot.topology.bridges_on(seg)[i];
            if d == from_device || !self.hears(d, seg) {
                continue;
            }
            let Some(entries) = checked_hello(pkt, from_device, self.devices.len()) else {
                self.devices[d].stats.malformed_pdus += 1;
                continue;
            };
            let r = self.devices[d]
                .policy
                .hear_pdu(from_device, entries, arrival);
            self.reconvergences += u64::from(r.active_changed);
            if r.view_changed {
                out.extend(self.emissions(d));
            }
        }
        out
    }

    /// The hellos device `device` would emit right now: one per live
    /// port. One [`BridgePolicy::pdu_for_emission`] call per emission —
    /// the same hello goes out on every live port, so the gossip
    /// watermarks advance once per emission, not once per port.
    fn emissions(&mut self, device: usize) -> Vec<Emission> {
        let pkt = self.devices[device].policy_mut().pdu_for_emission();
        self.devices[device]
            .policy()
            .self_live_ports()
            .iter()
            .map(|seg| Emission {
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
            d.policy.subscribe(page, seg);
        }
    }

    /// `page` was just created on segment `seg`: every device between
    /// the page's home and `seg` points its holder belief toward `seg`
    /// (see [`BridgePolicy::seed_holder`]). A page created on its home
    /// segment costs one check and nothing else: no device needs
    /// telling.
    pub fn seed_holder(&mut self, page: PageId, seg: usize) {
        if self.cfg.homes.home_of(page, self.layout.segments()) != seg {
            for d in &mut self.devices {
                d.policy_mut().seed_holder(page, seg);
            }
        }
    }

    /// Fabric-wide traffic counters: the per-device counters summed.
    pub fn stats(&self) -> BridgeStats {
        BridgeStats::sum(self.devices.iter().map(Bridge::stats))
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
}
