//! Runtime fault-injection parity: the simulator's scripted
//! [`FabricEvent`] vocabulary driven against a live threaded cluster,
//! whose bridge devices are the simulator's own `Fabric`, carried by
//! the threads that transmit.
//!
//! Each test exercises one leg of the runtime fault plane
//! (`mether_runtime::Cluster`):
//!
//! * `LinkDown` fails one (device, segment) attachment in the cluster's
//!   one `Fabric`: the device drops the lost port from its gossiped view
//!   and re-elects over its surviving ports, and the fabric hears
//!   nothing that reaches the device on the lost port. The lost port is
//!   fabric state, so it survives a `restart_bridge` of the device,
//!   exactly as in the simulator: the fabric rebuilds the revived
//!   device with the port already out of its election.
//! * Killing the elected root of a redundant ring leaves a measurable,
//!   **finite** reconvergence stall ([`Cluster::fabric_stall`]): the
//!   wall-clock window from the kill to the first data frame forwarded
//!   by a re-elected device — the runtime twin of the simulator's
//!   stall probe.
//! * A [`FaultPlan`] replays a scripted timeline against the cluster in
//!   real time, through the same `apply_fabric_event` entry point the
//!   tests above use directly.

use mether_core::{MapMode, PageId, PageLength, VAddr, View};
use mether_net::bridge::FabricConfig;
use mether_net::{ElectionMode, FabricEvent};
use mether_runtime::{Cluster, ClusterConfig, FaultPlan};
use std::time::{Duration, Instant};

/// Demand-fetches `addr` fresh (purge first) until it reads `want`,
/// panicking after `secs` seconds.
fn read_fresh(c: &Cluster, node: usize, page: PageId, addr: VAddr, want: u32, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        c.node(node)
            .purge(page, MapMode::ReadOnly, PageLength::Short)
            .unwrap();
        match c
            .node(node)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(250))
        {
            Ok(v) if v == want => return,
            Ok(_) | Err(_) => assert!(
                Instant::now() < deadline,
                "node {node} never saw {want} through the fabric"
            ),
        }
    }
}

/// True once a fresh demand fetch of `addr` times out — the link (or
/// fabric) is effectively severed for `node`.
fn is_partitioned(c: &Cluster, node: usize, page: PageId, addr: VAddr) -> bool {
    c.node(node)
        .purge(page, MapMode::ReadOnly, PageLength::Short)
        .unwrap();
    matches!(
        c.node(node)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(250)),
        Err(mether_core::Error::Timeout)
    )
}

#[test]
fn link_down_survives_bridge_restart() {
    // Star(2), static election: device 0 is the only path between the
    // segments. Severing its segment-1 attachment partitions the
    // cluster; a kill + revive of the device must NOT resurrect the
    // link (lost links are cluster state); only link_up heals it.
    let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
    let page = PageId::new(0);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.node(0).write_u32(addr, 21).unwrap();
    read_fresh(&c, 2, page, addr, 21, 10);

    assert!(c.link_down(0, 1), "live link severed");
    assert!(!c.link_down(0, 1), "second severing is a no-op");
    assert!(is_partitioned(&c, 2, page, addr), "link down partitions");

    // Kill and revive the device: the revived policy must re-sever the
    // dead attachment before its first hello.
    assert!(c.stop_bridge(0));
    assert!(c.restart_bridge(0));
    // The revived device forwards from the next frame on: the first
    // fetch would cross if it (wrongly) had the link back.
    assert!(
        is_partitioned(&c, 2, page, addr),
        "LinkDown must survive restart_bridge"
    );

    assert!(c.link_up(0, 1), "downed link revived");
    assert!(!c.link_up(0, 1), "second revival is a no-op");
    c.node(0).write_u32(addr, 22).unwrap();
    read_fresh(&c, 2, page, addr, 22, 10);

    // The timeline remembers the whole injected history, in order.
    let evs: Vec<FabricEvent> = c.fabric_timeline().into_iter().map(|(_, ev)| ev).collect();
    assert_eq!(
        evs,
        vec![
            FabricEvent::LinkDown {
                device: 0,
                segment: 1
            },
            FabricEvent::BridgeDown(0),
            FabricEvent::BridgeUp(0),
            FabricEvent::LinkUp {
                device: 0,
                segment: 1
            },
        ]
    );
    c.shutdown();
}

#[test]
fn ring_root_kill_measures_finite_reconvergence_stall() {
    // 8 nodes over a 4-segment ring under live election — the runtime
    // twin of the simulator's ring-failover stall probe (8.53 ms of
    // simulated unreachability there). Killing the elected root arms
    // the probe; the first data frame forwarded by a device whose
    // election epoch advanced past its pre-kill snapshot resolves it.
    // Jitter-tolerant cadence, not `ElectionMode::live()`: the default
    // 1 ms/4 ms is virtual-time tuned, and on a loaded box a 4 ms
    // scheduling gap spuriously "kills" a live neighbour — which, on a
    // cyclic fabric, can unblock the redundant path into a forwarding
    // loop. The real kill below is still detected, just ~100 ms later.
    let fabric = FabricConfig::ring(4).with_election(ElectionMode::Live {
        hello_interval: mether_net::SimDuration::from_millis(10),
        hello_timeout: mether_net::SimDuration::from_millis(100),
        hold_down: mether_net::SimDuration::from_millis(50),
    });
    let mut c = Cluster::new(ClusterConfig::fabric(8, fabric)).unwrap();
    let page = PageId::new(0);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.node(0).write_u32(addr, 7).unwrap();
    read_fresh(&c, 2, page, addr, 7, 20);
    assert_eq!(c.fabric_stall(), None, "probe unarmed before any kill");

    // Kill device 0 (the root at uniform priorities) and keep reading
    // across the fabric: the reads stall through reconvergence, then
    // go the long way round — and the first such crossing stamps the
    // stall.
    assert!(c.stop_bridge(0));
    c.node(0).write_u32(addr, 8).unwrap();
    read_fresh(&c, 2, page, addr, 8, 30);
    let stall = c
        .fabric_stall()
        .expect("a re-elected device forwarded data");
    assert!(
        stall > Duration::ZERO && stall < Duration::from_secs(30),
        "stall must be finite and measured: {stall:?}"
    );
    assert!(
        c.fabric_reconvergences() > 0,
        "the survivors re-elected around the corpse"
    );
    // The telemetry surface: some surviving device carried the data.
    let carried: u64 = (1..c.bridge_count())
        .map(|d| c.bridge_stats(d).forwarded)
        .sum();
    assert!(carried > 0, "surviving devices forwarded the detour");
    c.shutdown();
}

#[test]
fn fault_plan_replays_a_scripted_timeline() {
    // The scripted path end to end: kill device 0 at 50 ms, revive it
    // at 250 ms, all from a FaultPlan thread while the main thread
    // drives traffic. Events against already-dead devices don't count.
    let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
    let page = PageId::new(0);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.node(0).write_u32(addr, 5).unwrap();
    read_fresh(&c, 2, page, addr, 5, 10);

    let plan = FaultPlan::new()
        .at(Duration::from_millis(50), FabricEvent::BridgeDown(0))
        .at(
            Duration::from_millis(60),
            FabricEvent::BridgeDown(0), // no-op: already dead
        )
        .at(Duration::from_millis(250), FabricEvent::BridgeUp(0));
    let applied = plan.run(&c);
    assert_eq!(applied, 2, "the duplicate kill is a no-op");

    // After the plan the fabric is healed: cross-segment reads work.
    c.node(0).write_u32(addr, 6).unwrap();
    read_fresh(&c, 2, page, addr, 6, 10);
    let evs: Vec<FabricEvent> = c.fabric_timeline().into_iter().map(|(_, ev)| ev).collect();
    assert_eq!(
        evs,
        vec![FabricEvent::BridgeDown(0), FabricEvent::BridgeUp(0)],
        "no-op events leave no timeline entry"
    );
    c.shutdown();
}

#[test]
fn runtime_loss_is_retargetable_at_runtime() {
    // Cluster::set_loss makes LanConfig::loss live: a clean wire
    // drops nothing, then a 100%-lossy phase drops everything (the
    // demand fetch times out), then clean again recovers.
    let mut c = Cluster::new(ClusterConfig::segmented(4, 2)).unwrap();
    let page = PageId::new(0);
    c.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    c.node(0).write_u32(addr, 1).unwrap();
    read_fresh(&c, 2, page, addr, 1, 10);

    c.set_loss(0, 1.0);
    c.set_loss(1, 1.0);
    assert!(
        is_partitioned(&c, 2, page, addr),
        "a fully lossy wire delivers nothing"
    );
    c.set_loss(0, 0.0);
    c.set_loss(1, 0.0);
    c.node(0).write_u32(addr, 2).unwrap();
    read_fresh(&c, 2, page, addr, 2, 10);
    let lost = c.net_stats().lost;
    assert!(lost > 0, "the lossy phase dropped frames: {lost}");
    c.shutdown();
}
