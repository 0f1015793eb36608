//! Broadcast-Ethernet substrates for the Mether DSM reproduction.
//!
//! The paper runs Mether over a 10 Mbit/s Ethernet using broadcast
//! datagrams. This crate provides two interchangeable stand-ins:
//!
//! * [`sim::EtherSim`] — an analytical model of a shared-medium Ethernet
//!   for the discrete-event simulator (`mether-sim`): serialised medium,
//!   store-and-forward transmission time, inter-frame gap, optional packet
//!   loss, and full traffic accounting. The simulator asks it *when* a
//!   packet transmitted "now" is delivered.
//! * [`rt::Lan`] — a real, threaded in-process broadcast LAN for the
//!   `mether-runtime` crate: transmitters take turns on one medium lock,
//!   which serialises broadcasts exactly like a shared segment would,
//!   with configurable latency, bandwidth and loss.
//!
//! Deployments larger than one broadcast domain instantiate *several* of
//! either substrate — one per segment — joined by the routed bridge
//! fabric in [`bridge`]: a connected graph of bridge devices
//! ([`mether_core::BridgeTopology`]) that elects a spanning tree and
//! forwards hop by hop along it. Each device runs a
//! [`bridge::BridgePolicy`], shared by both substrates: its per-page
//! filters (page homes, learned interest with optional aging, requests
//! routed toward the believed holder) paired with its slice of the
//! election. [`bridge::Bridge`] adds the simulator's per-device
//! store-and-forward timing, queueing, and fault-injection knobs, and
//! [`bridge::Fabric`] wires every device of a topology together and runs
//! its control and fault planes, for both substrates. On the threaded
//! one, [`rt::Bridges`] joins the LANs through it, and the thread that
//! transmits a frame carries it across.
//!
//! All of them charge traffic using [`mether_core::Packet::wire_size`], so
//! the network-load numbers produced by the simulator and the runtime are
//! directly comparable to the paper's (e.g. Figure 4's 66 kbytes/second).
//! On a segmented network the counters are kept per segment; sum them
//! with [`NetStats::sum`] for the whole-network view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod rt;
pub mod sim;
pub mod stats;
pub mod time;

pub use bridge::{
    AgeHorizon, BootState, Bridge, BridgeConfig, BridgePolicy, BridgeStats, ElectionMode, Emission,
    Fabric, FabricConfig, FabricEvent, Forward, PortStamp, BRIDGE_HOST_BASE,
};
pub use sim::{EtherConfig, EtherSim};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
