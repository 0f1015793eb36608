//! The device's control plane: gossip, timeouts, re-election.
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
//! forwarding or blocked port states, and next-hop tables
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
//!   On a tree topology this reproduces a fabric routed by the tree's
//!   own next-hop tables *exactly* (every port forwards, identical next
//!   hops — regression-pinned byte-identical), and on a graph it simply
//!   freezes one spanning tree.
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
//! Failures are injected as [`FabricEvent`](super::FabricEvent)s ([`FabricEvent::BridgeDown`](super::FabricEvent::BridgeDown),
//! [`FabricEvent::BridgeUp`](super::FabricEvent::BridgeUp), [`FabricEvent::LinkDown`](super::FabricEvent::LinkDown),
//! [`FabricEvent::LinkUp`](super::FabricEvent::LinkUp)): a dead device
//! stops emitting hellos and stops forwarding, its neighbours notice the
//! silence, declare it dead (versioned gossip: a neighbour's obituary is
//! `version + 1`; self-assertions advance by 2 so a live device always
//! out-versions its own obituary), and the fabric reconverges around the
//! redundancy. [`Fabric`](super::Fabric) measures the **reconvergence stall**: the sim
//! time from a `BridgeDown` to the first page copy (publication or
//! reply) forwarded by a re-elected device — the window during which
//! cross-fabric pages were unreachable.

use super::policy::Tree;
use super::{ElectionMode, BRIDGE_HOST_BASE};
use crate::time::SimTime;
use mether_core::{ActiveTree, BridgeTopology, DeviceView, HostId, HostMask, Packet};
use std::sync::Arc;

/// What one control-plane step changed at a device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PduOutcome {
    /// The device's gossiped beliefs changed (propagate: emit a
    /// triggered hello).
    pub(crate) view_changed: bool,
    /// The re-election changed the active tree (count a reconvergence).
    pub(crate) active_changed: bool,
    /// Own ports whose role the re-election changed: the device
    /// flushes what was learned through them.
    pub(crate) changed_roles: HostMask,
}

/// The gossip entries of hello `pkt`, heard from device `emitter` of a
/// fabric of `devices` devices — or `None` when `pkt` is no hello, or its
/// `device` field contradicts the emitter or names no device of the
/// fabric. That field is wire-decoded, so on a real transport it is
/// untrusted input: ingesting such a frame would refresh the wrong
/// neighbour's liveness stamp. Both engines count a `None` in
/// [`BridgeStats::malformed_pdus`](super::BridgeStats::malformed_pdus)
/// and ignore the frame.
pub(super) fn checked_hello(
    pkt: &Packet,
    emitter: usize,
    devices: usize,
) -> Option<&[(u16, DeviceView)]> {
    match pkt {
        Packet::BridgePdu {
            device, entries, ..
        } if *device as usize == emitter && emitter < devices => Some(entries),
        _ => None,
    }
}

/// Anti-entropy window width: the unchanged entries each hello carries
/// on top of its own view and its news. A fabric of at most this many
/// devices hears every view in every hello.
pub(super) const GOSSIP_WINDOW: usize = 8;

/// What every device of one fabric boots from, computed **once per
/// fabric** and shared: the wiring, the configured priorities, the
/// optimistic everybody-alive views ([`BridgeTopology::fresh_views`])
/// and the one tree they elect. The wiring is a validated connected
/// graph, so every observer of those views elects the identical tree —
/// there is nothing per-device to compute at a cold boot or a cold
/// revival, and nothing to copy until a device's beliefs diverge (see
/// the bridge's `device` module, "Per fabric, per device").
#[derive(Debug)]
pub struct BootState {
    pub(super) topology: Arc<BridgeTopology>,
    priorities: Arc<Vec<u64>>,
    views: Arc<Vec<DeviceView>>,
    pub(super) active: Arc<ActiveTree>,
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

/// One device's slice of the spanning-tree election: its gossiped
/// views, neighbour liveness stamps, hold-downs and the [`ActiveTree`]
/// it forwards on. Routing reads it through [`Election::tree`]; a step
/// that changes the tree reports the ports whose role changed, and the
/// device flushes what its filters learned through them.
#[derive(Debug, Clone)]
pub(crate) struct Election {
    topology: Arc<BridgeTopology>,
    device: usize,
    /// The device's physical ports as a segment-id bitmask.
    ports_mask: HostMask,
    mode: ElectionMode,
    priorities: Arc<Vec<u64>>,
    /// This device's beliefs about every device (itself included):
    /// the fabric's one boot table until a belief of *this* device
    /// really changes, its own copy from then on.
    views: Arc<Vec<DeviceView>>,
    /// One `(device, stamp)` per *neighbour* — a device sharing a
    /// segment with this one, taken from the topology — ascending by
    /// device: when it was last heard from, the hello-timeout input.
    /// Only a neighbour's hellos reach this device, so on the 16 × 16
    /// mesh's 480 devices each holds at most 6 stamps, not 480.
    last_heard: Vec<(usize, SimTime)>,
    /// Per own-port-index: data embargo until this time (the listening
    /// hold-down after a Blocked→Forwarding transition). Empty under
    /// static election, which never holds a port down.
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
    /// Observable state changed since the last [`Election::take_dirty`]
    /// drain: views, port liveness, active tree, election epoch, or
    /// hold-downs.
    dirty: bool,
    /// Per device: the view version as of this device's last hello —
    /// a hello needs to re-announce only entries newer than this. One
    /// global watermark (not per-port) suffices because every hello
    /// goes out on all live ports at once. Empty until the device's
    /// first [`Election::pdu_for_emission`], so a device that never
    /// speaks (static election) holds no watermark.
    last_gossiped: Vec<u64>,
    /// Round-robin anti-entropy cursor: each hello also carries the
    /// next `GOSSIP_WINDOW` unchanged entries, so a peer that missed
    /// history (a revived device) resyncs within
    /// `devices / GOSSIP_WINDOW` hellos.
    gossip_cursor: usize,
}

impl Election {
    /// Device `device`'s election under `mode`, booted on the fabric's
    /// shared `boot` tree and views, by reference.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub(crate) fn new(boot: &BootState, device: usize, mode: ElectionMode) -> Self {
        let topology = &boot.topology;
        assert!(device < topology.bridges(), "device {device} out of range");
        let ports = topology.ports(device);
        let mut neighbours: Vec<usize> = ports
            .iter()
            .flat_map(|&seg| topology.bridges_on(seg))
            .copied()
            .filter(|&d| d != device)
            .collect();
        neighbours.sort_unstable();
        neighbours.dedup();
        Election {
            topology: Arc::clone(topology),
            device,
            ports_mask: ports.iter().copied().collect(),
            mode,
            priorities: Arc::clone(&boot.priorities),
            views: Arc::clone(&boot.views),
            last_heard: neighbours.into_iter().map(|d| (d, SimTime::ZERO)).collect(),
            hold_until: match mode {
                ElectionMode::Static => Vec::new(),
                ElectionMode::Live { .. } => vec![SimTime::ZERO; ports.len()],
            },
            active: Arc::clone(&boot.active),
            epoch: 0,
            trail_intact: true,
            dirty: false,
            last_gossiped: Vec::new(),
            gossip_cursor: 0,
        }
    }

    /// What routing reads of this election right now.
    pub(crate) fn tree(&self) -> Tree<'_> {
        Tree {
            active: &self.active,
            hold_until: &self.hold_until,
            trail_intact: self.trail_intact,
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
    pub(crate) fn rejoin(&mut self, now: SimTime) {
        self.trail_intact = false;
        for (_, t) in &mut self.last_heard {
            *t = now;
        }
        if let ElectionMode::Live { hold_down, .. } = self.mode {
            for h in &mut self.hold_until {
                *h = now + hold_down;
            }
        }
        self.dirty = true;
    }

    /// The active forwarding tree currently routed on.
    pub(crate) fn active(&self) -> &ActiveTree {
        &self.active
    }

    /// How many times the active tree has changed since construction.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The device's physical ports, failed links included.
    pub(crate) fn ports_mask(&self) -> &HostMask {
        &self.ports_mask
    }

    /// The device's live ports: physical ports minus failed links.
    pub(crate) fn self_live_ports(&self) -> HostMask {
        self.ports_mask.intersection(&self.views[self.device].ports)
    }

    /// Whether `seg` is one of [`Election::self_live_ports`], by borrow.
    pub(crate) fn port_is_live(&self, seg: usize) -> bool {
        self.ports_mask.contains(seg) && self.views[self.device].ports.contains(seg)
    }

    /// Drains the dirty flag: whether views, port liveness, the active
    /// tree, the election epoch or hold-downs changed since the last
    /// drain.
    pub(crate) fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// This device's gossiped liveness beliefs, indexed by device.
    pub(crate) fn views(&self) -> &[DeviceView] {
        &self.views
    }

    /// The ports still inside their listening hold-down at `now`.
    pub(crate) fn held_ports(&self, now: SimTime) -> HostMask {
        (self
            .topology
            .ports(self.device)
            .iter()
            .zip(&self.hold_until))
        .filter(|&(_, &until)| until > now)
        .map(|(&port, _)| port)
        .collect()
    }

    /// Whether a missing holder belief still proves the holder homeward.
    pub(crate) fn trail_intact(&self) -> bool {
        self.trail_intact
    }

    /// The hello this device emits right now, spoken as its fabric
    /// endpoint id: a sparse [`Packet::BridgePdu`] carrying the device's
    /// own view, every view whose version advanced since the previous
    /// emission, and the next `GOSSIP_WINDOW` entries of a rotating
    /// anti-entropy window; the announcement watermarks advance as a
    /// side effect.
    pub(crate) fn pdu_for_emission(&mut self) -> Packet {
        let n = self.views.len();
        if self.last_gossiped.is_empty() {
            self.last_gossiped = vec![0; n];
        }
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
    pub(crate) fn hear_pdu(
        &mut self,
        from_device: usize,
        entries: &[(u16, DeviceView)],
        now: SimTime,
    ) -> PduOutcome {
        let mut view_changed = false;
        if let Ok(i) = self
            .last_heard
            .binary_search_by_key(&from_device, |&(d, _)| d)
        {
            self.last_heard[i].1 = now;
        }
        for (d, theirs) in entries {
            let d = *d as usize;
            if d >= self.views.len() {
                continue;
            }
            view_changed |= self.merge_gossiped(d, theirs);
        }
        self.settle(view_changed, now)
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
    pub(crate) fn on_tick(&mut self, now: SimTime) -> PduOutcome {
        let ElectionMode::Live { hello_timeout, .. } = self.mode else {
            return PduOutcome::default();
        };
        let mut view_changed = false;
        let my_live = self.self_live_ports();
        // Only neighbours — devices we'd hear hellos from directly — are
        // subject to *our* timeout; everyone else's liveness is gossip.
        for i in 0..self.last_heard.len() {
            let (d, heard) = self.last_heard[i];
            if !self.views[d].alive {
                continue;
            }
            // A neighbour that shares no segment with us over ports
            // both of us still have live is not ours to time out.
            let shares: HostMask = self.topology.ports(d).iter().copied().collect();
            if shares
                .intersection(&self.views[d].ports)
                .intersection(&my_live)
                .is_empty()
            {
                continue;
            }
            if now.since(heard) > hello_timeout {
                let v = &mut Arc::make_mut(&mut self.views)[d];
                v.version += 1; // the odd obituary version
                v.alive = false;
                view_changed = true;
            }
        }
        self.settle(view_changed, now)
    }

    /// Fails this device's attachment to `segment`: the port drops out
    /// of its live set (self-version advances by 2, staying even), and
    /// the device re-elects over its surviving ports.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of this device.
    pub(crate) fn kill_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        assert!(
            self.ports_mask.contains(segment),
            "device {} has no port on segment {segment}",
            self.device
        );
        let v = &mut Arc::make_mut(&mut self.views)[self.device];
        v.ports.remove(segment);
        v.version += 2;
        self.settle(true, now)
    }

    /// Restores this device's attachment to `segment` after a
    /// [`Election::kill_port`]: the port rejoins its live set
    /// (self-version advances by 2, staying even) and the device
    /// re-elects over the restored wiring — any port whose role changes
    /// arms its hold-down exactly as after a hello-driven re-election.
    /// A no-op (beyond the version bump) if the port was already live.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of this device.
    pub(crate) fn revive_port(&mut self, segment: usize, now: SimTime) -> PduOutcome {
        assert!(
            self.ports_mask.contains(segment),
            "device {} has no port on segment {segment}",
            self.device
        );
        let v = &mut Arc::make_mut(&mut self.views)[self.device];
        v.ports.insert(segment);
        v.version += 2;
        self.settle(true, now)
    }

    /// Sets this device's self-assertion version (see
    /// `BridgePolicy::set_self_version`).
    pub(crate) fn set_self_version(&mut self, version: u64) {
        // A first boot asserts the version the shared boot views
        // already carry; only a revival has something to write.
        if self.views[self.device].version != version {
            Arc::make_mut(&mut self.views)[self.device].version = version;
        }
        self.dirty = true;
    }

    /// Ends a step that may have changed this device's views: when it
    /// did, marks the state dirty and re-elects.
    fn settle(&mut self, view_changed: bool, now: SimTime) -> PduOutcome {
        let mut out = PduOutcome {
            view_changed,
            ..PduOutcome::default()
        };
        if view_changed {
            self.dirty = true;
            if let Some(changed_roles) = self.recompute(now) {
                out.active_changed = true;
                out.changed_roles = changed_roles;
            }
        }
        out
    }

    /// Re-runs the election over the current views; on an active-tree
    /// change, arms the hold-down on ports that just started
    /// forwarding, and from then on floods requests it holds no belief
    /// for. Returns the own ports whose role changed (the caller
    /// flushes what was learned through them), or `None` when the tree
    /// did not change.
    fn recompute(&mut self, now: SimTime) -> Option<HostMask> {
        // Incremental: hello chatter re-elects constantly, and almost
        // always lands on the identical tree — elect_from then skips
        // filling a fresh next-hop table and says so, and the
        // tree this device holds (often still the fabric's shared one)
        // stays where it is.
        let new =
            self.topology
                .elect_from(&self.priorities, &self.views, self.device, &self.active)?;
        let old_fwd = self.active.forwarding(self.device);
        let new_fwd = new.forwarding(self.device);
        let changed_roles = old_fwd.symmetric_difference(&new_fwd);
        if let ElectionMode::Live { hold_down, .. } = self.mode {
            let ports = self.topology.ports(self.device);
            for (i, &port) in ports.iter().enumerate() {
                if changed_roles.contains(port) && new_fwd.contains(port) {
                    self.hold_until[i] = now + hold_down;
                }
            }
        }
        self.active = Arc::new(new);
        self.epoch += 1;
        self.trail_intact = false;
        self.dirty = true;
        Some(changed_roles)
    }
}
