//! A cluster: several Mether nodes on one or more in-process LANs.
//!
//! With no fabric (the default of every named constructor) the cluster
//! is the paper's testbed — all nodes on one broadcast [`Lan`]. With a
//! [`FabricConfig`] the nodes are split into contiguous blocks
//! ([`SegmentLayout`]), one `Lan` per block, joined by *bridge threads*:
//! one thread per bridge device of the fabric's
//! [`mether_core::BridgeTopology`], each snooping the device's ports and
//! re-broadcasting each frame onto exactly the ports the device's
//! [`BridgePolicy`] filter says must hear it (page homes, learned
//! interest with optional aging, flooded or holder-directed requests —
//! the same per-device policy the discrete-event simulator's fabric
//! runs, so the two network models filter and route identically). A
//! forwarded frame is emitted *from the forwarding device's own
//! port on the destination segment*, so that device never hears it
//! back, while the *other* devices on the segment do — hop-by-hop
//! forwarding along the fabric's **active tree**.
//!
//! Under [`mether_net::ElectionMode::Live`] the bridge threads also run
//! the spanning-tree control plane in real time: each thread emits
//! [`mether_core::Packet::BridgePdu`] hellos on its ports at the hello
//! cadence (1 sim-ms ≙ 1 wall-ms here), ingests its peers' hellos,
//! times out silent neighbours, and re-elects — so a redundant wiring
//! (ring, mesh) stays loop-free and **recovers from a killed bridge
//! thread**. [`Cluster::stop_bridge`] kills one device's thread (and
//! joins it — failure injection must not leak threads; shutdown used to
//! be join-on-drop only), [`Cluster::restart_bridge`] revives it cold:
//! fresh filter tables, fresh optimistic views, a self-version above
//! any obituary its neighbours still gossip — exactly the simulator's
//! `BridgeUp` semantics. Nodes never see control frames' content: the
//! Mether page table ignores [`mether_core::Packet::BridgePdu`] the way
//! a real NIC filters BPDU multicasts.
//!
//! # The runtime fault plane
//!
//! Every fault the simulator's fabric can inject is injectable here, on
//! live threads, through the same [`FabricEvent`] vocabulary
//! ([`Cluster::apply_fabric_event`], or scripted via
//! `mether_runtime::FaultPlan`):
//!
//! - **`BridgeDown` / `BridgeUp`** — [`Cluster::stop_bridge`] /
//!   [`Cluster::restart_bridge`]. Stopping a device also arms the
//!   *reconvergence stall probe*: the wall-clock window from the kill
//!   to the first `PageData` frame forwarded by a device whose election
//!   epoch has advanced past its pre-failure snapshot — the period
//!   during which cross-fabric pages were unreachable
//!   ([`Cluster::fabric_stall`], the threaded twin of the simulator's
//!   probe).
//! - **`LinkDown` / `LinkUp`** — [`Cluster::link_down`] /
//!   [`Cluster::link_up`]: one (device, segment) attachment fails while
//!   the device keeps forwarding on its surviving ports. The lost port
//!   is gated at the *port level* in the device's thread (frames
//!   arriving on it are discarded, nothing is emitted onto it) and the
//!   policy gossips the reduced port set exactly as the simulator's
//!   `kill_port` does. Lost links are cluster state, not thread state:
//!   they **survive [`Cluster::restart_bridge`]** — a revived device
//!   re-severs its dead attachments before it says hello, matching the
//!   sim's "LinkDowns survive revival" semantics.
//! - **Frame loss** — [`Cluster::set_loss`] retargets a segment's
//!   Bernoulli loss rate at runtime (the `LanConfig::loss` knob made
//!   live), so a soak can run phases of clean and lossy wire.
//!
//! Telemetry that previously existed only inside the policy is
//! surfaced: [`Cluster::bridge_stats`] (per-device [`BridgeStats`]
//! persisting across restarts), [`Cluster::fabric_reconvergences`]
//! (active-tree changes summed over all devices), and
//! [`Cluster::fabric_timeline`] (every injected event with its
//! wall-clock offset).
//!
//! The fabric's engine knobs ([`mether_net::BridgeConfig`] — forward
//! delay, queue bound, fault injection) model the simulator's
//! store-and-forward device and are not applied here: a bridge thread
//! forwards as fast as it runs, like PR 3's.
//!
//! Traffic counters stay per segment ([`Cluster::segment_stats`]), so
//! losses and decode errors are attributable to the wire they happened
//! on; [`Cluster::net_stats`] sums them for the old whole-network view.

use crate::node::Node;
use mether_core::{HostId, MetherConfig, Packet, PageId, SegmentLayout};
use mether_net::bridge::{BootState, BridgePolicy, FabricConfig, BRIDGE_HOST_BASE};
use mether_net::rt::{Inbox, Lan, LanConfig, Port};
use mether_net::{BridgeStats, FabricEvent, NetStats, SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A set of Mether nodes sharing a broadcast segment (or several bridged
/// ones).
///
/// # Example
///
/// ```
/// use mether_runtime::{Cluster, ClusterConfig};
/// use mether_core::{MapMode, PageId, VAddr, View};
///
/// let cluster = Cluster::new(ClusterConfig::fast(2))?;
/// let page = PageId::new(0);
/// cluster.node(0).create_owned(page);
///
/// let addr = VAddr::new(page, View::short_demand(), 0)?;
/// cluster.node(0).write_u32(addr, 42)?;
/// // Node 1 demand-fetches an inconsistent copy.
/// let v = cluster.node(1).read_u32(addr, MapMode::ReadOnly)?;
/// assert_eq!(v, 42);
/// # Ok::<(), mether_core::Error>(())
/// ```
pub struct Cluster {
    lans: Vec<Lan>,
    nodes: Vec<Node>,
    layout: Option<SegmentLayout>,
    bridge: Option<BridgeThreads>,
}

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// LAN shaping (latency, bandwidth, loss), applied to every segment;
    /// loss seeds are derived per segment.
    pub lan: LanConfig,
    /// Mether page parameters.
    pub mether: MetherConfig,
    /// The bridge fabric joining the segments; `None` runs every node on
    /// one flat LAN. The segment count is `fabric.topology.segments()`.
    pub fabric: Option<FabricConfig>,
}

impl ClusterConfig {
    /// `n` nodes on an unshaped LAN — protocol behaviour at full speed.
    pub fn fast(n: usize) -> Self {
        ClusterConfig {
            nodes: n,
            lan: LanConfig::fast(),
            mether: MetherConfig::new(),
            fabric: None,
        }
    }

    /// `n` nodes on a 10 Mbit/s-shaped LAN (timing-realistic demos).
    pub fn ten_megabit(n: usize) -> Self {
        ClusterConfig {
            nodes: n,
            lan: LanConfig::ten_megabit(),
            mether: MetherConfig::new(),
            fabric: None,
        }
    }

    /// `n` nodes split over `segments` bridged fast LANs joined by a
    /// 1-bridge star (PR 3's wiring: flooded requests, sticky interest,
    /// striped homes). `segments == 1` builds a flat cluster — no
    /// bridge thread — exactly as it always has.
    pub fn segmented(n: usize, segments: usize) -> Self {
        ClusterConfig {
            fabric: (segments > 1).then(|| FabricConfig::star(segments)),
            ..Self::fast(n)
        }
    }

    /// `n` nodes on fast LANs joined by an explicit fabric.
    pub fn fabric(n: usize, fabric: FabricConfig) -> Self {
        ClusterConfig {
            fabric: Some(fabric),
            ..Self::fast(n)
        }
    }
}

/// One bridge device's thread slot: the inbox its thread waits on
/// (closing it stops the thread), join handle (taken when stopped),
/// filter, and restart count.
struct DeviceSlot {
    inbox: Inbox,
    handle: Option<JoinHandle<()>>,
    policy: Arc<Mutex<BridgePolicy>>,
    restarts: u64,
}

/// Fault-injection state shared by the cluster API and every bridge
/// thread: the stall probe, the reconvergence counter, and the injected
/// timeline. Lock order is slot → policy → stats → fault; no code path
/// takes a policy (or slot) lock while holding this one. Transmitting
/// takes a LAN's medium and then its listeners' inboxes, which take
/// nothing further: a device thread may do it under its policy lock
/// (a triggered hello does), never under stats or fault.
struct FaultState {
    /// Armed by [`Cluster::stop_bridge`]: when the kill happened, until
    /// a data frame forwarded by an epoch-advanced device resolves it.
    down_at: Option<Instant>,
    /// Per-device election epochs snapshotted at the kill.
    epochs_at_down: Vec<u64>,
    /// The measured reconvergence stall of the most recent kill.
    stall: Option<Duration>,
    /// Active-tree changes summed across devices (0 under static
    /// election or an undisturbed fabric).
    reconvergences: u64,
    /// Every injected fault, with its wall-clock offset from cluster
    /// start.
    timeline: Vec<(Duration, FabricEvent)>,
}

/// The fabric's bridge threads — one per device — plus everything
/// needed to respawn one (the kill/restart failure-injection path).
struct BridgeThreads {
    lans: Vec<Lan>,
    layout: SegmentLayout,
    fabric: FabricConfig,
    /// What every bridge thread's policy boots from, first spawn and
    /// every restart alike: one wiring, one election per cluster.
    boot: BootState,
    /// Wall-clock epoch of the cluster: bridge threads translate
    /// `Instant` elapsed into `SimTime` for the shared, transport-free
    /// policy (1 wall-ns ≙ 1 sim-ns).
    start: Instant,
    devices: Vec<Mutex<DeviceSlot>>,
    /// Per-device forwarding counters, **persisting across restarts**
    /// (a revival cold-resets the filter, not the run's accounting —
    /// the same carryover the simulator's engine keeps).
    stats: Vec<Arc<Mutex<BridgeStats>>>,
    /// Per-device lost-port bitmask (bit = segment id). Cluster state,
    /// not thread state: `spawn_device` re-severs these on revival, and
    /// the thread gates its ports against the current mask on every
    /// frame. Fault injection caps segments at 64 (the fabric itself
    /// has no such cap).
    lost: Vec<Arc<AtomicU64>>,
    fault: Arc<Mutex<FaultState>>,
}

impl BridgeThreads {
    fn start(lans: &[Lan], layout: SegmentLayout, fabric: &FabricConfig) -> BridgeThreads {
        let n = fabric.topology.bridges();
        let mut this = BridgeThreads {
            lans: lans.to_vec(),
            layout,
            fabric: fabric.clone(),
            boot: BootState::new(Arc::new(fabric.topology.clone()), fabric.priorities.clone()),
            start: Instant::now(),
            devices: Vec::new(),
            stats: (0..n)
                .map(|_| Arc::new(Mutex::new(BridgeStats::default())))
                .collect(),
            lost: (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            fault: Arc::new(Mutex::new(FaultState {
                down_at: None,
                epochs_at_down: vec![0; n],
                stall: None,
                reconvergences: 0,
                timeline: Vec::new(),
            })),
        };
        for device in 0..n {
            let slot = this.spawn_device(device, 0);
            this.devices.push(Mutex::new(slot));
        }
        this
    }

    /// The cluster's wall clock as the policies' SimTime.
    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Builds a fresh policy and spawns the device's thread. A non-zero
    /// `restarts` makes this a cold revival: empty filter tables,
    /// optimistic views, a self-version (`2 × restarts`) above the
    /// obituary of every previous life, and a *rejoin* at the current
    /// wall clock — neighbour stamps start now (no spurious obituaries
    /// from a zeroed clock) and every port boots in its hold-down so
    /// the optimistic construction tree cannot close a transient loop
    /// against the converged fabric around it. Links lost before the
    /// revival stay lost: the fresh policy re-severs them before the
    /// first hello.
    fn spawn_device(&self, device: usize, restarts: u64) -> DeviceSlot {
        let mut p = BridgePolicy::for_device(self.layout, &self.boot, device, &self.fabric);
        p.set_self_version(2 * restarts);
        if restarts > 0 {
            p.rejoin(self.now());
        }
        let segs = self.fabric.topology.ports(device);
        // Re-sever attachments lost in a previous life (LinkDown is
        // cluster state, surviving restart_bridge like the sim's).
        let lost0 = self.lost[device].load(Ordering::Relaxed);
        for &seg in segs {
            if seg < 64 && lost0 & (1u64 << seg) != 0 {
                let _ = p.kill_port(seg, self.now());
            }
        }
        let policy = Arc::new(Mutex::new(p));
        // The device's attachment to each of its port segments, all
        // heard on one inbox, each frame tagged with the segment it
        // arrived on. Forwarding to segment `s` transmits *from* this
        // device's port on `s`, so the device never hears its own
        // forwards, while the other devices on `s` (distinct host ids)
        // do — and carry the frame onward.
        let inbox = Inbox::new();
        let host = HostId(BRIDGE_HOST_BASE + device as u16);
        let ports: Vec<Port> = segs
            .iter()
            .map(|&seg| self.lans[seg].attach(host, &inbox, seg))
            .collect();
        let hello_every = self
            .fabric
            .election
            .hello_interval()
            .map(|d| Duration::from_nanos(d.as_nanos()));
        let epoch = self.start;
        let thread_policy = Arc::clone(&policy);
        let thread_inbox = inbox.clone();
        let thread_stats = Arc::clone(&self.stats[device]);
        let thread_lost = Arc::clone(&self.lost[device]);
        let thread_fault = Arc::clone(&self.fault);
        let handle = thread::Builder::new()
            .name(format!("mether-bridge-{device}"))
            .spawn(move || {
                let policy = thread_policy;
                let inbox = thread_inbox;
                let stats = thread_stats;
                let lost = thread_lost;
                let fault = thread_fault;
                // The threaded fabric's clock: wall time since cluster
                // start, as SimTime — so the shared policy's hello
                // timeouts and SimTime aging horizons tick in real
                // milliseconds here and simulated ones in mether-sim.
                let now =
                    || SimTime::ZERO + SimDuration::from_nanos(epoch.elapsed().as_nanos() as u64);
                let gated = |mask: u64, seg: usize| seg < 64 && mask & (1u64 << seg) != 0;
                let port_on = |seg: usize| ports.iter().find(|p| p.port() == seg);
                let broadcast_hello = |p: &mut BridgePolicy, lost_now: u64| {
                    let pdu = p.pdu_for_emission();
                    for seg in p.self_live_ports() {
                        if gated(lost_now, seg) {
                            continue;
                        }
                        if let Some(port) = port_on(seg) {
                            let _ = port.broadcast(&pdu);
                        }
                    }
                };
                let dispatch = |seg: usize, pkt: &Packet| {
                    let lost_now = lost.load(Ordering::Relaxed);
                    if gated(lost_now, seg) {
                        // The link is down: frames still draining out of
                        // the inbox fell on a dead wire.
                        return;
                    }
                    if pkt.is_control() {
                        let mut p = policy.lock();
                        let r = match pkt {
                            Packet::BridgePdu {
                                device: from,
                                views,
                                ..
                            } => p.hear_pdu(*from as usize, views, seg, now()),
                            Packet::BridgePduDelta {
                                device: from,
                                entries,
                                ..
                            } => p.hear_pdu_sparse(*from as usize, entries, seg, now()),
                            _ => unreachable!("is_control covers exactly the PDU variants"),
                        };
                        if r.active_changed {
                            fault.lock().reconvergences += 1;
                        }
                        if r.view_changed {
                            // Triggered hello: propagate the news now,
                            // not a cadence later.
                            broadcast_hello(&mut p, lost_now);
                        }
                        return;
                    }
                    let (targets, election_epoch) = {
                        let mut p = policy.lock();
                        let t = p.route(pkt, seg, now());
                        (t, p.election_epoch())
                    };
                    let out: Vec<&Port> = targets
                        .into_iter()
                        .filter(|&dst| !gated(lost_now, dst))
                        .map(|dst| port_on(dst).expect("targets are scoped to the ports"))
                        .collect();
                    let forwarded = out.len() as u64;
                    // Count before transmitting: a receiver woken by the
                    // forwarded frame may inspect `bridge_stats`
                    // immediately, and must see this crossing.
                    {
                        let mut s = stats.lock();
                        s.heard += 1;
                        if forwarded == 0 {
                            s.filtered += 1;
                        } else {
                            s.forwarded += forwarded;
                            s.bytes_forwarded += forwarded * pkt.wire_size() as u64;
                            if matches!(pkt, Packet::PageRequest { .. }) {
                                s.req_forwarded += forwarded;
                            }
                        }
                    }
                    for port in out {
                        let _ = port.broadcast(pkt);
                    }
                    if forwarded > 0 && pkt.is_data() {
                        // Resolve the reconvergence stall probe: the
                        // first data frame carried cross-fabric by a
                        // device whose election moved past its pre-kill
                        // snapshot ends the unreachable window.
                        let mut f = fault.lock();
                        if let Some(t0) = f.down_at {
                            if election_epoch > f.epochs_at_down[device] {
                                f.stall = Some(t0.elapsed());
                                f.down_at = None;
                            }
                        }
                    }
                };
                // One blocking wait on all ports at once: an idle device
                // sleeps in the kernel, a frame on any port wakes it, and
                // closing the inbox ([`BridgeThreads::stop_device`]) ends
                // the loop from whichever receive sees it first. Under
                // live election the wait is capped at half the hello
                // interval so the control plane keeps its cadence under
                // silence.
                let idle = hello_every
                    .map(|h| (h / 2).clamp(Duration::from_micros(250), Duration::from_millis(5)));
                let mut last_hello = Instant::now();
                'run: loop {
                    let heard = match idle {
                        Some(idle) => inbox.recv_timeout(idle),
                        None => inbox.recv(),
                    };
                    match heard {
                        Ok((seg, pkt)) => {
                            dispatch(seg, &pkt);
                            // The burst behind it, capped per sweep:
                            // under a frame storm (e.g. a transient
                            // forwarding loop on a redundant fabric) the
                            // inbox never goes quiet, and an unbounded
                            // drain would keep this thread from ever
                            // sending hellos again.
                            for _ in 0..1024 {
                                match inbox.try_recv() {
                                    Ok(Some((seg, pkt))) => dispatch(seg, &pkt),
                                    Ok(None) => break,
                                    Err(_) => break 'run,
                                }
                            }
                        }
                        Err(mether_core::Error::Timeout) => {}
                        Err(_) => break 'run,
                    }
                    if let Some(every) = hello_every {
                        if last_hello.elapsed() >= every {
                            last_hello = Instant::now();
                            let mut p = policy.lock();
                            let r = p.on_tick(now());
                            if r.active_changed {
                                fault.lock().reconvergences += 1;
                            }
                            broadcast_hello(&mut p, lost.load(Ordering::Relaxed));
                        }
                    }
                }
            })
            .expect("spawn bridge thread");
        DeviceSlot {
            inbox,
            handle: Some(handle),
            policy,
            restarts,
        }
    }

    /// Signals device `d`'s thread to stop — closing its inbox wakes it
    /// at once — and joins it. Returns true if a running thread was
    /// stopped.
    fn stop_device(&self, d: usize) -> bool {
        // Holding the slot lock across the join is safe: bridge threads
        // never take slot locks (only policy/stats/fault).
        let mut slot = self.devices[d].lock();
        let Some(handle) = slot.handle.take() else {
            return false;
        };
        slot.inbox.close();
        let _ = handle.join();
        true
    }

    /// Respawns device `d` cold (its thread must be stopped). Returns
    /// true if a stopped device was revived.
    fn restart_device(&self, d: usize) -> bool {
        let mut slot = self.devices[d].lock();
        if slot.handle.is_some() {
            return false;
        }
        let restarts = slot.restarts + 1;
        *slot = self.spawn_device(d, restarts);
        true
    }

    /// Stops every device thread: all are told first, then joined, so
    /// they wind down side by side.
    fn stop(&self) {
        for slot in &self.devices {
            slot.lock().inbox.close();
        }
        for d in 0..self.devices.len() {
            let _ = self.stop_device(d);
        }
    }

    fn record(&self, ev: FabricEvent) {
        let at = self.start.elapsed();
        self.fault.lock().timeline.push((at, ev));
    }
}

impl Drop for BridgeThreads {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Cluster {
    /// Brings up the LAN(s), the bridge fabric (if any), and all nodes.
    ///
    /// # Errors
    ///
    /// Returns [`mether_core::Error::InvalidConfig`] for a zero-node
    /// cluster or an invalid segment layout (more segments than nodes).
    /// There is no node-count cap: the snoop sets are variable-length
    /// masks, so 1024-node fabrics lay out fine.
    ///
    /// A 1-segment fabric is normalised to the flat wiring: one LAN, no
    /// bridge thread (a single-port device could only ever filter) — so
    /// `segmented(n, 1)` keeps meaning what it always has.
    pub fn new(cfg: ClusterConfig) -> mether_core::Result<Cluster> {
        if cfg.nodes == 0 {
            return Err(mether_core::Error::InvalidConfig(
                "cluster needs at least one node".into(),
            ));
        }
        let Some(fabric) = cfg.fabric.filter(|f| f.topology.segments() > 1) else {
            let lan = Lan::new(cfg.lan);
            let nodes = (0..cfg.nodes)
                .map(|i| {
                    let host = HostId(i as u16);
                    Node::start(host, lan.endpoint(host), cfg.mether.clone())
                })
                .collect();
            return Ok(Cluster {
                lans: vec![lan],
                nodes,
                layout: None,
                bridge: None,
            });
        };
        let segments = fabric.topology.segments();
        let layout = SegmentLayout::new(cfg.nodes, segments)?;
        let lans: Vec<Lan> = (0..segments)
            .map(|s| {
                let mut lan_cfg = cfg.lan.clone();
                lan_cfg.seed = lan_cfg.seed.wrapping_add(s as u64);
                Lan::new(lan_cfg)
            })
            .collect();
        let bridge = BridgeThreads::start(&lans, layout, &fabric);
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let host = HostId(i as u16);
                let lan = &lans[layout.segment_of(i)];
                Node::start(host, lan.endpoint(host), cfg.mether.clone())
            })
            .collect();
        Ok(Cluster {
            lans,
            nodes,
            layout: Some(layout),
            bridge: Some(bridge),
        })
    }

    /// The `i`-th node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a node-less cluster (never constructible; for API parity).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of bridged segments (1 for a flat cluster).
    pub fn segment_count(&self) -> usize {
        self.lans.len()
    }

    /// Number of bridge devices in the fabric (0 for a flat cluster).
    pub fn bridge_count(&self) -> usize {
        self.bridge.as_ref().map_or(0, |b| b.devices.len())
    }

    /// Kills bridge device `device`'s thread — the fabric-failure
    /// injection path. The thread is signalled **and joined** (not
    /// leaked to a join-on-drop); under live election its neighbours
    /// hello-timeout the silence, gossip the obituary, and re-elect
    /// around the hole. Arms the reconvergence stall probe
    /// ([`Cluster::fabric_stall`]) against every device's pre-failure
    /// election epoch. Returns true if a running device was stopped.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range on a bridged cluster; returns
    /// false on a flat cluster.
    pub fn stop_bridge(&self, device: usize) -> bool {
        let Some(b) = self.bridge.as_ref() else {
            return false;
        };
        if !b.stop_device(device) {
            return false;
        }
        // Snapshot epochs first (slot → policy), then write the fault
        // state — never the fault lock while reaching for a policy.
        let epochs: Vec<u64> = b
            .devices
            .iter()
            .map(|slot| slot.lock().policy.lock().election_epoch())
            .collect();
        {
            let mut f = b.fault.lock();
            f.down_at = Some(Instant::now());
            f.stall = None;
            f.epochs_at_down = epochs;
        }
        b.record(FabricEvent::BridgeDown(device));
        true
    }

    /// Revives a stopped bridge device cold: fresh filter tables (pins
    /// and learned interest are gone, like a power-cycled bridge),
    /// fresh optimistic views, and a self-assertion version above any
    /// obituary its neighbours still gossip — the threaded counterpart
    /// of the simulator's `BridgeUp`. Links taken down with
    /// [`Cluster::link_down`] stay down across the revival. Returns
    /// true if a stopped device was revived.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range on a bridged cluster; returns
    /// false on a flat cluster.
    pub fn restart_bridge(&self, device: usize) -> bool {
        let Some(b) = self.bridge.as_ref() else {
            return false;
        };
        if !b.restart_device(device) {
            return false;
        }
        b.record(FabricEvent::BridgeUp(device));
        true
    }

    /// Fails the (device, segment) attachment: the device stops hearing
    /// and emitting frames on that port (port-level gating in its
    /// thread) and gossips the reduced port set, exactly like the
    /// simulator's `LinkDown`. The loss is cluster state — it survives
    /// [`Cluster::restart_bridge`] until [`Cluster::link_up`] undoes
    /// it. Returns true if a live link was severed (false when already
    /// down, or on a flat cluster).
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of `device`, or if
    /// `segment >= 64` (fault injection's mask cap; the fabric itself
    /// has no such limit).
    pub fn link_down(&self, device: usize, segment: usize) -> bool {
        let Some(b) = self.bridge.as_ref() else {
            return false;
        };
        assert!(
            b.fabric.topology.ports(device).contains(&segment),
            "device {device} has no port on segment {segment}"
        );
        assert!(segment < 64, "link fault injection caps segments at 64");
        let bit = 1u64 << segment;
        if b.lost[device].fetch_or(bit, Ordering::Relaxed) & bit != 0 {
            return false;
        }
        let slot = b.devices[device].lock();
        if slot.handle.is_some() {
            let r = slot.policy.lock().kill_port(segment, b.now());
            if r.active_changed {
                b.fault.lock().reconvergences += 1;
            }
        }
        drop(slot);
        b.record(FabricEvent::LinkDown { device, segment });
        true
    }

    /// Restores a failed (device, segment) attachment: the port rejoins
    /// the device's gossiped view and the fabric may re-elect over the
    /// restored wiring. Returns true if a downed link came back (false
    /// when it was not down, or on a flat cluster).
    ///
    /// # Panics
    ///
    /// As [`Cluster::link_down`].
    pub fn link_up(&self, device: usize, segment: usize) -> bool {
        let Some(b) = self.bridge.as_ref() else {
            return false;
        };
        assert!(
            b.fabric.topology.ports(device).contains(&segment),
            "device {device} has no port on segment {segment}"
        );
        assert!(segment < 64, "link fault injection caps segments at 64");
        let bit = 1u64 << segment;
        if b.lost[device].fetch_and(!bit, Ordering::Relaxed) & bit == 0 {
            return false;
        }
        let slot = b.devices[device].lock();
        if slot.handle.is_some() {
            let r = slot.policy.lock().revive_port(segment, b.now());
            if r.active_changed {
                b.fault.lock().reconvergences += 1;
            }
        }
        drop(slot);
        b.record(FabricEvent::LinkUp { device, segment });
        true
    }

    /// Applies one [`FabricEvent`] to the live cluster — the runtime
    /// twin of the simulator's scripted fault injection, and the unit
    /// [`crate::FaultPlan`] scripts are made of. Returns whether the
    /// event changed anything (a `BridgeDown` of an already-dead
    /// device, say, is a no-op).
    pub fn apply_fabric_event(&self, ev: FabricEvent) -> bool {
        match ev {
            FabricEvent::BridgeDown(d) => self.stop_bridge(d),
            FabricEvent::BridgeUp(d) => self.restart_bridge(d),
            FabricEvent::LinkDown { device, segment } => self.link_down(device, segment),
            FabricEvent::LinkUp { device, segment } => self.link_up(device, segment),
        }
    }

    /// Retargets segment `seg`'s Bernoulli frame-loss rate, effective
    /// for every frame clocked out after the call — the
    /// `LanConfig::loss` knob made runtime-mutable, so a soak can phase
    /// between clean and lossy wire.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range or `loss` is outside `[0, 1]`.
    pub fn set_loss(&self, seg: usize, loss: f64) {
        self.lans[seg].set_loss(loss);
    }

    /// Per-device forwarding counters, **persisting across restarts**:
    /// frames heard/forwarded/filtered plus the policy's live belief
    /// counters — the telemetry that previously existed only inside
    /// the policy, surfaced for parity with the simulator's per-device
    /// [`BridgeStats`].
    ///
    /// # Panics
    ///
    /// Panics on a flat cluster or an out-of-range device.
    pub fn bridge_stats(&self, device: usize) -> BridgeStats {
        let b = self
            .bridge
            .as_ref()
            .expect("bridge_stats needs a segmented cluster");
        let mut s = *b.stats[device].lock();
        let (hits, floods, repairs) = b.devices[device].lock().policy.lock().belief_counters();
        s.belief_hits = hits;
        s.belief_fallback_floods = floods;
        s.belief_repairs = repairs;
        s
    }

    /// Active-tree changes summed across every bridge device since
    /// cluster start (0 under static election, an undisturbed fabric,
    /// or a flat cluster).
    pub fn fabric_reconvergences(&self) -> u64 {
        self.bridge
            .as_ref()
            .map_or(0, |b| b.fault.lock().reconvergences)
    }

    /// The measured reconvergence stall: wall time from the most recent
    /// [`Cluster::stop_bridge`] to the first `PageData` frame forwarded
    /// by a device whose election epoch advanced past its pre-kill
    /// snapshot — the window during which cross-fabric pages were
    /// unreachable. `None` when nothing was killed (or nothing crossed
    /// afterwards); the threaded twin of the simulator's probe.
    pub fn fabric_stall(&self) -> Option<Duration> {
        self.bridge.as_ref().and_then(|b| b.fault.lock().stall)
    }

    /// Every fault injected so far, with its wall-clock offset from
    /// cluster start (empty on a flat or undisturbed cluster).
    pub fn fabric_timeline(&self) -> Vec<(Duration, FabricEvent)> {
        self.bridge
            .as_ref()
            .map_or(Vec::new(), |b| b.fault.lock().timeline.clone())
    }

    /// Page requests dropped in node receive paths because an identical
    /// request was already pending in the same drained batch (summed
    /// over nodes) — the runtime's counterpart of the simulator's
    /// NIC-level request coalescing, so the two engines' reports line
    /// up column-for-column.
    pub fn requests_coalesced(&self) -> u64 {
        self.nodes.iter().map(Node::requests_coalesced).sum()
    }

    /// The segment node `i` sits on (0 for every node of a flat cluster).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range on a segmented cluster.
    pub fn segment_of(&self, i: usize) -> usize {
        self.layout.map_or(0, |l| l.segment_of(i))
    }

    /// Whole-network traffic counters: the per-segment counters summed
    /// (the view existing flat-cluster callers expect).
    pub fn net_stats(&self) -> NetStats {
        NetStats::sum(&self.lans.iter().map(Lan::stats).collect::<Vec<_>>())
    }

    /// Traffic counters of segment `seg` alone.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_stats(&self, seg: usize) -> NetStats {
        self.lans[seg].stats()
    }

    /// Statically subscribes segment `seg` to `page`'s transits at every
    /// bridge device (see [`BridgePolicy::subscribe`]); needed for
    /// segments whose only consumers of the page are data-driven readers.
    ///
    /// # Panics
    ///
    /// Panics on a flat cluster or an out-of-range segment.
    pub fn subscribe_segment(&self, page: PageId, seg: usize) {
        let bridge = self
            .bridge
            .as_ref()
            .expect("subscribe_segment needs a segmented cluster");
        for slot in &bridge.devices {
            slot.lock().policy.lock().subscribe(page, seg);
        }
    }

    /// Stops the bridge threads and every node's receiver thread: all of
    /// them are signalled first and joined afterwards, so they wind down
    /// side by side. Called automatically on drop.
    pub fn shutdown(&mut self) {
        for n in &self.nodes {
            n.signal_shutdown();
        }
        if let Some(b) = self.bridge.as_ref() {
            b.stop();
        }
        for n in &mut self.nodes {
            n.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cluster(nodes={}, segments={}, bridges={})",
            self.nodes.len(),
            self.lans.len(),
            self.bridge_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::{MapMode, PageLength, VAddr, View};
    use mether_net::RequestRouting;

    #[test]
    fn flat_cluster_has_one_segment() {
        let mut c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        assert_eq!(c.segment_count(), 1);
        assert_eq!(c.segment_of(1), 0);
        assert_eq!(c.bridge_count(), 0);
        c.shutdown();
    }

    #[test]
    fn segmented_layout_is_rejected_when_invalid() {
        assert!(Cluster::new(ClusterConfig::segmented(2, 3)).is_err());
        assert!(Cluster::new(ClusterConfig::fast(0)).is_err());
    }

    #[test]
    fn one_segment_cluster_is_flat() {
        // segmented(n, 1) has always meant the flat wiring: no bridge
        // thread, no mask-capacity cap. A 1-segment fabric passed
        // explicitly normalises the same way.
        let mut c = Cluster::new(ClusterConfig::segmented(2, 1)).unwrap();
        assert_eq!(c.segment_count(), 1);
        assert_eq!(c.bridge_count(), 0, "no bridge device on one segment");
        c.shutdown();
        let mut c = Cluster::new(ClusterConfig::fabric(2, FabricConfig::star(1))).unwrap();
        assert_eq!(c.bridge_count(), 0);
        c.shutdown();
    }

    #[test]
    fn cross_segment_demand_fetch_routes_via_bridge() {
        // 4 nodes, 2 segments: {0,1} and {2,3}.
        let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
        assert_eq!(c.segment_count(), 2);
        assert_eq!(c.bridge_count(), 1);
        assert_eq!(c.segment_of(1), 0);
        assert_eq!(c.segment_of(2), 1);
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 7).unwrap();
        // Node 2 sits on the other segment: its request floods across
        // the bridge, the reply follows the learned interest back.
        let v = c.node(2).read_u32(addr, MapMode::ReadOnly).unwrap();
        assert_eq!(v, 7);
        assert!(c.segment_stats(0).packets >= 1, "reply on segment 0");
        assert!(c.segment_stats(1).packets >= 1, "request on segment 1");
        assert_eq!(
            c.net_stats().packets,
            c.segment_stats(0).packets + c.segment_stats(1).packets,
            "summed view equals per-segment counters"
        );
        // The new stats surface: the one device heard and forwarded the
        // cross-segment request/reply pair.
        let s = c.bridge_stats(0);
        assert!(s.heard >= 2, "device heard request and reply");
        assert!(s.forwarded >= 2, "request and reply crossed");
        c.shutdown();
    }

    #[test]
    fn a_crossing_waits_on_no_timeout() {
        // The device blocks on all its ports at once, so a cross-segment
        // round trip costs thread hand-offs, not a wait for the device to
        // come round to the right port (which made it milliseconds).
        let mut c = Cluster::new(ClusterConfig::segmented(2, 2)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 7).unwrap();
        let crossing = || {
            let t = Instant::now();
            c.node(1)
                .purge(page, MapMode::ReadOnly, PageLength::Short)
                .unwrap();
            assert_eq!(c.node(1).read_u32(addr, MapMode::ReadOnly).unwrap(), 7);
            t.elapsed()
        };
        for _ in 0..15 {
            crossing();
        }
        let mut took: Vec<Duration> = (0..50).map(|_| crossing()).collect();
        took.sort_unstable();
        assert!(
            took[25] < Duration::from_millis(1),
            "median crossing took {:?}",
            took[25]
        );
        let s = c.bridge_stats(0);
        assert_eq!(s.heard, s.forwarded, "every frame heard was a crossing");
        c.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_out_a_poll() {
        // 16 receiver threads and a bridge device: each is woken by the
        // close of its inbox, none sleeps out a receive timeout first.
        let mut c = Cluster::new(ClusterConfig::segmented(16, 4)).unwrap();
        let t = Instant::now();
        c.shutdown();
        assert!(
            t.elapsed() < Duration::from_millis(250),
            "shutdown took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn cross_segment_fetch_works_on_a_routed_chain() {
        // 6 nodes over 3 chained segments ({0,1} {2,3} {4,5}), with
        // holder-directed request routing: node 4's demand fetch of a
        // page held on segment 0 crosses two devices hop by hop, and
        // the reply retraces the learned interest.
        let fabric = FabricConfig::chain(3).with_routing(RequestRouting::HolderDirected);
        let mut c = Cluster::new(ClusterConfig::fabric(6, fabric)).unwrap();
        assert_eq!(c.segment_count(), 3);
        assert_eq!(c.bridge_count(), 2);
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 41).unwrap();
        let v = c.node(4).read_u32(addr, MapMode::ReadOnly).unwrap();
        assert_eq!(v, 41);
        // The middle segment carried both the request and the reply.
        assert!(c.segment_stats(1).packets >= 2, "chain hops via segment 1");
        c.shutdown();
    }

    #[test]
    fn local_purge_traffic_stays_on_its_segment() {
        // Page 0 is homed on segment 0 (Striped) and only segment-0
        // nodes touch it: its purge broadcasts must never appear on
        // segment 1's wire.
        let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        for i in 1..=8u32 {
            c.node(0).write_u32(addr, i).unwrap();
            c.node(0)
                .purge(page, MapMode::Writeable, PageLength::Short)
                .unwrap();
        }
        assert_eq!(
            c.segment_stats(0).packets,
            8,
            "local broadcasts on segment 0"
        );
        // Wait for the device to have looked at all eight, so a misrouted
        // forward would have appeared by now.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.bridge_stats(0).heard < 8 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.bridge_stats(0).filtered, 8, "the device filtered each");
        assert_eq!(
            c.segment_stats(1).packets,
            0,
            "no remote interest: nothing crossed the bridge"
        );
        c.shutdown();
    }

    #[test]
    fn subscription_feeds_silent_segments() {
        let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
        let page = PageId::new(0);
        c.subscribe_segment(page, 1);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 3).unwrap();
        c.node(0)
            .purge(page, MapMode::Writeable, PageLength::Short)
            .unwrap();
        // Nobody on segment 1 ever transmitted a thing, yet the purge
        // broadcast crosses the bridge purely because of the static
        // subscription — the hook purely-data-driven readers rely on.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.segment_stats(1).data_packets == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(
            c.segment_stats(1).data_packets >= 1,
            "subscribed segment hears the data transit"
        );
        c.shutdown();
    }

    #[test]
    fn stop_bridge_partitions_and_restart_heals_static_fabrics() {
        // Static election on the 2-segment star: killing the one bridge
        // thread partitions the cluster (no election to save it); a
        // restart resumes forwarding. stop_bridge joins the thread —
        // failure injection must not leak it to join-on-drop.
        let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 5).unwrap();
        assert_eq!(c.node(2).read_u32(addr, MapMode::ReadOnly).unwrap(), 5);
        assert!(c.stop_bridge(0), "running device stopped and joined");
        assert!(!c.stop_bridge(0), "second stop is a no-op");
        // The fabric is down: a cross-segment fetch times out (the
        // reader purges first so the read must fault).
        c.node(2)
            .purge(page, MapMode::ReadOnly, PageLength::Short)
            .unwrap();
        assert!(matches!(
            c.node(2)
                .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(200)),
            Err(mether_core::Error::Timeout)
        ));
        // Revive: the retried fetch crosses again (the fresh policy
        // re-learns interest from the retransmitted request).
        assert!(c.restart_bridge(0));
        assert!(!c.restart_bridge(0), "second restart is a no-op");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match c
                .node(2)
                .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(200))
            {
                Ok(v) => {
                    assert_eq!(v, 5);
                    break;
                }
                Err(_) => assert!(
                    std::time::Instant::now() < deadline,
                    "restarted bridge never resumed forwarding"
                ),
            }
        }
        // The timeline remembers both injections in order.
        let tl = c.fabric_timeline();
        assert!(matches!(tl[0].1, FabricEvent::BridgeDown(0)));
        assert!(matches!(tl[1].1, FabricEvent::BridgeUp(0)));
        c.shutdown();
    }

    #[test]
    fn live_ring_survives_killing_the_root_bridge() {
        use mether_net::ElectionMode;

        // 8 nodes over a 4-segment ring under live election. Killing
        // device 0 (the elected root at uniform priorities) leaves the
        // redundant link to carry traffic once the survivors
        // hello-timeout the corpse and re-elect: reads from every
        // segment keep succeeding, they just stall through the
        // reconvergence window.
        let fabric = FabricConfig::ring(4).with_election(ElectionMode::live());
        let mut c = Cluster::new(ClusterConfig::fabric(8, fabric)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 11).unwrap();
        // Warm path: a reader on segment 1 (node 2) fetches fine.
        let read_fresh = |c: &Cluster, node: usize, want: u32| {
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            loop {
                c.node(node)
                    .purge(page, MapMode::ReadOnly, PageLength::Short)
                    .unwrap();
                match c.node(node).read_u32_timeout(
                    addr,
                    MapMode::ReadOnly,
                    Duration::from_millis(250),
                ) {
                    Ok(v) if v == want => return,
                    Ok(_) | Err(_) => assert!(
                        std::time::Instant::now() < deadline,
                        "node {node} never saw {want}"
                    ),
                }
            }
        };
        read_fresh(&c, 2, 11);
        // Kill the root. The ring's dormant link must take over.
        assert!(c.stop_bridge(0));
        c.node(0).write_u32(addr, 12).unwrap();
        // Node 2 sits on segment 1, whose path to segment 0 went
        // through the dead device; after reconvergence it goes the
        // long way round (1 → 2 → 3 → 0).
        read_fresh(&c, 2, 12);
        // And a revival heals the short path again without loops.
        assert!(c.restart_bridge(0));
        c.node(0).write_u32(addr, 13).unwrap();
        read_fresh(&c, 2, 13);
        read_fresh(&c, 4, 13);
        c.shutdown();
    }

    #[test]
    fn subscription_crosses_a_tree_hop_by_hop() {
        // 8 nodes over a 4-segment fanout-2 tree (devices {0,1,2} and
        // {1,3}): a subscription for segment 3 must carry segment 0's
        // purge broadcasts across *two* devices.
        let mut c = Cluster::new(ClusterConfig::fabric(8, FabricConfig::tree(4, 2))).unwrap();
        let page = PageId::new(0);
        c.subscribe_segment(page, 3);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 9).unwrap();
        c.node(0)
            .purge(page, MapMode::Writeable, PageLength::Short)
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.segment_stats(3).data_packets == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(
            c.segment_stats(3).data_packets >= 1,
            "leaf segment hears the transit through two devices"
        );
        // Segment 2 never asked and is off the path to 3: silent.
        assert_eq!(c.segment_stats(2).packets, 0, "segment 2 stays silent");
        c.shutdown();
    }
}
