//! A cluster: several Mether nodes on one or more in-process LANs.
//!
//! With no fabric (the default of every named constructor) the cluster
//! is the paper's testbed — all nodes on one broadcast [`Lan`]. With a
//! [`FabricConfig`] the nodes are split into contiguous blocks
//! ([`SegmentLayout`]), one `Lan` per block, joined by *bridge threads*:
//! one thread per bridge device of the fabric's
//! [`mether_core::BridgeTopology`], each snooping the device's ports and
//! re-broadcasting each frame onto exactly the ports the device's filter
//! says must hear it (page homes, learned interest with optional aging,
//! requests routed toward the holder). The threads drive the one
//! [`Fabric`] the discrete-event simulator runs, so the two network
//! models filter, route, elect and fail the same way: each thread asks
//! the fabric about its own device. A forwarded frame is emitted *from
//! the forwarding device's own port on the destination segment*, so
//! that device never hears it back, while the *other* devices on the
//! segment do — hop-by-hop forwarding along the fabric's **active
//! tree**.
//!
//! Under [`mether_net::ElectionMode::Live`] the bridge threads also run
//! the spanning-tree control plane in real time: each thread emits the
//! same sparse [`mether_core::Packet::BridgePdu`] hellos as the
//! simulator's devices on its ports at the hello cadence (1 sim-ms ≙
//! 1 wall-ms here), ingests its peers' hellos, times out silent
//! neighbours, and re-elects — so a redundant wiring (ring, mesh) stays
//! loop-free and **recovers from a killed bridge thread**. A hello
//! whose `device` field contradicts its sender is counted in the
//! hearing device's [`BridgeStats::malformed_pdus`], not ingested
//! ([`Fabric::hear_hello`]). Nodes never see control frames' content:
//! the Mether page table ignores [`mether_core::Packet::BridgePdu`] the
//! way a real NIC filters BPDU multicasts.
//!
//! # The runtime fault plane
//!
//! Every fault the simulator's fabric can inject is injectable here, on
//! live threads, through the same [`FabricEvent`] vocabulary
//! ([`Cluster::apply_fabric_event`], or scripted via
//! `mether_runtime::FaultPlan`), and means what it means there: each
//! event is [`Fabric::apply_event`] at the cluster's wall clock, which
//! also says whether the event changed anything (a repeated event is a
//! no-op and leaves no timeline entry).
//!
//! - **`BridgeDown` / `BridgeUp`** — [`Cluster::stop_bridge`] /
//!   [`Cluster::restart_bridge`]. Stopping a device marks it dead in the
//!   fabric, then stops **and joins** its thread (failure injection must
//!   not leak threads). The fabric arms its *reconvergence stall
//!   probe*: the window from the kill to the first page-copy frame
//!   forwarded by a device whose election epoch has advanced past its
//!   pre-failure snapshot ([`Cluster::fabric_stall`]). Restarting
//!   revives the device cold — fresh filter tables, fresh optimistic
//!   views, a self-version above any obituary its neighbours still
//!   gossip, its counters carried over — and spawns a fresh thread.
//! - **`LinkDown` / `LinkUp`** — [`Cluster::link_down`] /
//!   [`Cluster::link_up`]: one (device, segment) attachment fails while
//!   the device keeps forwarding on its surviving ports. The device
//!   gossips the reduced port set and re-elects; the fabric hears
//!   nothing on the lost port, and the election leaves it out of every
//!   forward and hello, so the thread needs no gate of its own. There
//!   is no cap on the segment id. Lost links are fabric state: they
//!   **survive [`Cluster::restart_bridge`]**.
//! - **Frame loss** — [`Cluster::set_loss`] retargets a segment's
//!   Bernoulli loss rate at runtime (the `LanConfig::loss` knob made
//!   live), so a soak can run phases of clean and lossy wire.
//!
//! The fabric's telemetry is surfaced: [`Cluster::bridge_stats`]
//! (per-device [`BridgeStats`], persisting across restarts),
//! [`Cluster::fabric_reconvergences`] (active-tree changes summed over
//! all devices), and [`Cluster::fabric_timeline`] (every event that
//! changed the fabric, with its wall-clock offset).
//!
//! A bridge thread forwards a frame the moment it hears it
//! ([`Fabric::forward`]): the fabric's engine knobs
//! ([`mether_net::BridgeConfig`] — forward delay, queue bound, fault
//! injection) model the simulator's store-and-forward device and are
//! not applied here.
//!
//! Traffic counters stay per segment ([`Cluster::segment_stats`]), so
//! losses and decode errors are attributable to the wire they happened
//! on; [`Cluster::net_stats`] sums them for the old whole-network view.

use crate::node::Node;
use mether_core::{HostId, MetherConfig, Packet, PageId, SegmentLayout};
use mether_net::bridge::{ControlOut, Fabric, FabricConfig, BRIDGE_HOST_BASE};
use mether_net::rt::{lock, Inbox, Lan, LanConfig, Port};
use mether_net::{BridgeStats, FabricEvent, NetStats, SimDuration, SimTime};
use std::sync::{Arc, Mutex};
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
    /// Shared with every node, which announces the pages it creates.
    bridge: Option<Arc<BridgeThreads>>,
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
    /// 1-bridge star (PR 3's wiring: sticky interest, striped homes).
    /// `segments == 1` builds a flat cluster — no bridge thread —
    /// exactly as it always has.
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
/// (closing it stops the thread) and its join handle (taken when the
/// thread is stopped).
struct DeviceSlot {
    inbox: Inbox,
    handle: Option<JoinHandle<()>>,
}

impl DeviceSlot {
    /// Stops the slot's thread, if it runs, and joins it.
    fn stop(&mut self) {
        self.inbox.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The fabric's bridge threads — one per device — and the one [`Fabric`]
/// they drive. The fabric holds every device's filter, election state,
/// liveness, lost links and counters; a thread holds nothing but its
/// ports. Lock order is slot → fabric. A device thread takes the fabric
/// lock once per frame: it counts the frame under the lock and
/// transmits after releasing it. No device thread is joined while the
/// fabric lock is held, since the thread may be waiting for it.
struct BridgeThreads {
    lans: Vec<Lan>,
    /// Wall-clock epoch of the cluster: the fabric runs on the wall time
    /// since, as `SimTime` (1 wall-ns ≙ 1 sim-ns).
    start: Instant,
    devices: Vec<Mutex<DeviceSlot>>,
    fabric: Arc<Mutex<Fabric>>,
}

/// The wall time since `start` as the fabric's `SimTime`.
fn sim_time(start: Instant) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(start.elapsed().as_nanos() as u64)
}

impl BridgeThreads {
    fn start(lans: &[Lan], layout: SegmentLayout, fabric: &FabricConfig) -> BridgeThreads {
        let mut this = BridgeThreads {
            lans: lans.to_vec(),
            start: Instant::now(),
            devices: Vec::new(),
            fabric: Arc::new(Mutex::new(Fabric::new(layout, fabric.clone()))),
        };
        this.devices = (0..fabric.topology.bridges())
            .map(|device| Mutex::new(this.spawn_device(device)))
            .collect();
        this
    }

    /// Spawns device `device`'s thread, attached to each of its port
    /// segments, all heard on one inbox, each frame tagged with the
    /// segment it arrived on. Forwarding to segment `s` transmits *from*
    /// this device's port on `s`, so the device never hears its own
    /// forwards, while the other devices on `s` (distinct host ids) do
    /// — and carry the frame onward.
    fn spawn_device(&self, device: usize) -> DeviceSlot {
        let (segs, hello_every) = {
            let f = lock(&self.fabric);
            (
                f.topology().ports(device).to_vec(),
                f.election().hello_interval(),
            )
        };
        let inbox = Inbox::new();
        let host = HostId(BRIDGE_HOST_BASE + device as u16);
        let ports: Vec<Port> = segs
            .iter()
            .map(|&seg| self.lans[seg].attach(host, &inbox, seg))
            .collect();
        let hello_every = hello_every.map(|d| Duration::from_nanos(d.as_nanos()));
        let start = self.start;
        let fabric = Arc::clone(&self.fabric);
        let thread_inbox = inbox.clone();
        let handle = thread::Builder::new()
            .name(format!("mether-bridge-{device}"))
            .spawn(move || {
                let inbox = thread_inbox;
                let port_on = |seg: usize| {
                    (ports.iter().find(|p| p.port() == seg))
                        .expect("the fabric names only the device's own ports")
                };
                let transmit = |hellos: Vec<ControlOut>| {
                    for hello in hellos {
                        let _ = port_on(hello.seg).broadcast(&hello.pkt);
                    }
                };
                // The ports a frame leaves through: one buffer for the
                // thread's life, so forwarding a frame allocates nothing.
                let mut targets: Vec<usize> = Vec::new();
                // Each fabric step reads the clock under the fabric lock
                // (the receiver is evaluated before the arguments), so
                // the fabric sees time run forward.
                let mut dispatch = |seg: usize, pkt: &Packet| {
                    if pkt.is_control() {
                        // The emitter is the frame's fabric endpoint id,
                        // the one sender identity a LAN frame carries.
                        let emitter = usize::from(pkt.from().0.wrapping_sub(BRIDGE_HOST_BASE));
                        let hellos =
                            lock(&fabric).hear_hello(device, pkt, seg, emitter, sim_time(start));
                        transmit(hellos);
                        return;
                    }
                    // Counted before transmitting: a receiver woken by
                    // the forwarded frame may inspect `bridge_stats`
                    // immediately, and must see this crossing.
                    targets.clear();
                    targets.extend_from_slice(lock(&fabric).forward(
                        device,
                        pkt,
                        seg,
                        sim_time(start),
                    ));
                    for &dst in &targets {
                        let _ = port_on(dst).broadcast(pkt);
                    }
                };
                // One blocking wait on all ports at once: an idle device
                // sleeps in the kernel, a frame on any port wakes it, and
                // closing the inbox ([`DeviceSlot::stop`]) ends the loop
                // from whichever receive sees it first. Under live
                // election the wait is capped at half the hello interval
                // so the control plane keeps its cadence under silence.
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
                            let hellos = lock(&fabric).tick(device, sim_time(start));
                            transmit(hellos);
                        }
                    }
                }
            })
            .expect("spawn bridge thread");
        DeviceSlot {
            inbox,
            handle: Some(handle),
        }
    }

    /// Applies `ev` to the fabric at the cluster's wall clock. Returns
    /// whether it changed anything.
    fn apply(&self, ev: FabricEvent) -> bool {
        lock(&self.fabric).apply_event(ev, sim_time(self.start))
    }

    /// Kills device `d`: the fabric marks it dead, then its thread is
    /// stopped and joined. Returns true if a live device was killed.
    fn kill(&self, d: usize) -> bool {
        let mut slot = lock(&self.devices[d]);
        let killed = self.apply(FabricEvent::BridgeDown(d));
        if killed {
            slot.stop();
        }
        killed
    }

    /// Revives device `d` cold in the fabric and spawns its thread
    /// afresh. Returns true if a dead device was revived.
    fn revive(&self, d: usize) -> bool {
        let mut slot = lock(&self.devices[d]);
        let revived = self.apply(FabricEvent::BridgeUp(d));
        if revived {
            *slot = self.spawn_device(d);
        }
        revived
    }

    /// Stops every device thread: all are told first, then joined, so
    /// they wind down side by side. The fabric is left as it is.
    fn stop(&self) {
        for slot in &self.devices {
            lock(slot).inbox.close();
        }
        for slot in &self.devices {
            lock(slot).stop();
        }
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
                    Node::start(host, lan.endpoint(host), cfg.mether.clone(), None)
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
        let bridge = Arc::new(BridgeThreads::start(&lans, layout, &fabric));
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let host = HostId(i as u16);
                let seg = layout.segment_of(i);
                let threads = Arc::clone(&bridge);
                let announce = Box::new(move |page| lock(&threads.fabric).seed_holder(page, seg));
                Node::start(
                    host,
                    lans[seg].endpoint(host),
                    cfg.mether.clone(),
                    Some(announce),
                )
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

    /// Kills bridge device `device` — the fabric-failure injection
    /// path. The fabric marks the device dead, and its thread is
    /// signalled **and joined** (not leaked to a join-on-drop); under
    /// live election its neighbours hello-timeout the silence, gossip
    /// the obituary, and re-elect around the hole. Arms the
    /// reconvergence stall probe ([`Cluster::fabric_stall`]) against
    /// every device's pre-failure election epoch. Returns true if a
    /// running device was stopped.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range on a bridged cluster; returns
    /// false on a flat cluster.
    pub fn stop_bridge(&self, device: usize) -> bool {
        self.bridge.as_ref().is_some_and(|b| b.kill(device))
    }

    /// Revives a stopped bridge device cold: fresh filter tables (pins
    /// and learned interest are gone, like a power-cycled bridge),
    /// fresh optimistic views, and a self-assertion version above any
    /// obituary its neighbours still gossip — the fabric's `BridgeUp`.
    /// Its counters carry over, and links taken down with
    /// [`Cluster::link_down`] stay down. Returns true if a stopped
    /// device was revived.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range on a bridged cluster; returns
    /// false on a flat cluster.
    pub fn restart_bridge(&self, device: usize) -> bool {
        self.bridge.as_ref().is_some_and(|b| b.revive(device))
    }

    /// Fails the (device, segment) attachment: the device stops hearing
    /// and emitting frames on that port and gossips the reduced port
    /// set — the fabric's `LinkDown`. The loss survives
    /// [`Cluster::restart_bridge`] until [`Cluster::link_up`] undoes it.
    /// Returns true if a live link was severed (false when already down,
    /// or on a flat cluster).
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a physical port of `device`.
    pub fn link_down(&self, device: usize, segment: usize) -> bool {
        self.apply_fabric_event(FabricEvent::LinkDown { device, segment })
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
        self.apply_fabric_event(FabricEvent::LinkUp { device, segment })
    }

    /// Applies one [`FabricEvent`] to the live cluster — the fabric's
    /// [`Fabric::apply_event`] at the cluster's wall clock, and the unit
    /// [`crate::FaultPlan`] scripts are made of. Returns whether the
    /// event changed anything (a `BridgeDown` of an already-dead
    /// device, say, is a no-op). Always false on a flat cluster.
    pub fn apply_fabric_event(&self, ev: FabricEvent) -> bool {
        let Some(b) = self.bridge.as_ref() else {
            return false;
        };
        match ev {
            FabricEvent::BridgeDown(d) => b.kill(d),
            FabricEvent::BridgeUp(d) => b.revive(d),
            FabricEvent::LinkDown { .. } | FabricEvent::LinkUp { .. } => b.apply(ev),
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
    /// frames heard/forwarded/filtered and the belief counters, as the
    /// fabric keeps them ([`mether_net::Bridge::stats`]).
    ///
    /// # Panics
    ///
    /// Panics on a flat cluster or an out-of-range device.
    pub fn bridge_stats(&self, device: usize) -> BridgeStats {
        let b = self
            .bridge
            .as_ref()
            .expect("bridge_stats needs a segmented cluster");
        lock(&b.fabric).device(device).stats()
    }

    /// Active-tree changes summed across every bridge device since
    /// cluster start (0 under static election, an undisturbed fabric,
    /// or a flat cluster).
    pub fn fabric_reconvergences(&self) -> u64 {
        (self.bridge.as_ref()).map_or(0, |b| lock(&b.fabric).reconvergences())
    }

    /// The measured reconvergence stall: wall time from the most recent
    /// [`Cluster::stop_bridge`] to the first page-copy frame forwarded
    /// by a device whose election epoch advanced past its pre-kill
    /// snapshot — the window during which cross-fabric pages were
    /// unreachable. `None` when nothing was killed (or nothing crossed
    /// afterwards); the fabric's own probe ([`Fabric::stall`]).
    pub fn fabric_stall(&self) -> Option<Duration> {
        let b = self.bridge.as_ref()?;
        let stall = lock(&b.fabric).stall()?;
        Some(Duration::from_nanos(stall.as_nanos()))
    }

    /// Every fault injected so far that changed the fabric, with its
    /// wall-clock offset from cluster start (empty on a flat or
    /// undisturbed cluster).
    pub fn fabric_timeline(&self) -> Vec<(Duration, FabricEvent)> {
        self.bridge.as_ref().map_or(Vec::new(), |b| {
            (lock(&b.fabric).timeline().iter())
                .map(|&(at, ev)| (Duration::from_nanos(at.as_nanos()), ev))
                .collect()
        })
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
    /// bridge device (see [`Fabric::subscribe`]); needed for segments
    /// whose only consumers of the page are data-driven readers.
    ///
    /// # Panics
    ///
    /// Panics on a flat cluster or an out-of-range segment.
    pub fn subscribe_segment(&self, page: PageId, seg: usize) {
        let bridge = self
            .bridge
            .as_ref()
            .expect("subscribe_segment needs a segmented cluster");
        lock(&bridge.fabric).subscribe(page, seg);
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
        // Node 2 sits on the other segment: its request crosses the
        // bridge toward the page's home, the reply follows the learned
        // interest back.
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
        // 6 nodes over 3 chained segments ({0,1} {2,3} {4,5}): node 4's
        // demand fetch of a page held on segment 0 crosses two devices
        // hop by hop toward the page's home, and the reply retraces the
        // learned interest.
        let mut c = Cluster::new(ClusterConfig::fabric(6, FabricConfig::chain(3))).unwrap();
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
    fn belief_counters_survive_a_revival() {
        // A revival cold-resets the device's filter, not the run's
        // accounting: the belief counters a device ran up before a
        // kill are still in its stats after the restart, as the
        // simulator's engine carries them.
        let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
        let page = PageId::new(0);
        c.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        c.node(0).write_u32(addr, 3).unwrap();
        let beliefs = |s: BridgeStats| {
            [
                s.belief_hits,
                s.home_routed,
                s.belief_fallback_floods,
                s.belief_repairs,
            ]
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while beliefs(c.bridge_stats(0)).iter().all(|&n| n == 0) {
            assert!(Instant::now() < deadline, "no request was ever routed");
            c.node(2)
                .purge(page, MapMode::ReadOnly, PageLength::Short)
                .unwrap();
            assert_eq!(c.node(2).read_u32(addr, MapMode::ReadOnly).unwrap(), 3);
        }
        let before = beliefs(c.bridge_stats(0));
        assert!(c.stop_bridge(0));
        assert!(c.restart_bridge(0));
        let after = beliefs(c.bridge_stats(0));
        for (name, (a, b)) in ["belief_hits", "home_routed", "fallback_floods", "repairs"]
            .iter()
            .zip(after.iter().zip(&before))
        {
            assert!(a >= b, "{name} ran backwards over the revival: {b} -> {a}");
        }
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
    fn a_lying_hello_is_counted_and_ignored() {
        use mether_core::{DeviceView, HostMask};

        // Segment 1 of a 4-segment ring joins devices 0 and 1. A hello
        // that speaks as device 0's endpoint but names device 1 in its
        // `device` field contradicts its emitter: both devices count it
        // and neither ingests its obituary of device 3.
        let mut c = Cluster::new(ClusterConfig::fabric(8, FabricConfig::ring(4))).unwrap();
        let b = Arc::clone(c.bridge.as_ref().unwrap());
        let views = |d: usize| lock(&b.fabric).device(d).policy().views().to_vec();
        let boot: Vec<_> = (0..4).map(views).collect();
        let wire = c.lans[1].endpoint(HostId(0xFFF0));
        let hello = |device| Packet::BridgePdu {
            from: HostId(BRIDGE_HOST_BASE),
            device,
            entries: vec![(
                3,
                DeviceView {
                    version: 99,
                    alive: false,
                    ports: HostMask::EMPTY,
                },
            )],
        };
        wire.broadcast(&hello(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while (0..2).any(|d| c.bridge_stats(d).malformed_pdus == 0) {
            assert!(
                Instant::now() < deadline,
                "the lying hello was never counted"
            );
            thread::sleep(Duration::from_millis(1));
        }
        for (d, boot) in boot.iter().enumerate() {
            assert_eq!(&views(d), boot, "device {d}'s views moved");
        }
        // The same news told truthfully is ingested.
        wire.broadcast(&hello(0)).unwrap();
        while views(1)[3].version < 99 {
            assert!(
                Instant::now() < deadline,
                "the honest hello was never heard"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.bridge_stats(1).malformed_pdus, 1);
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
