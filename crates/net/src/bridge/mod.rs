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
//! # Modules
//!
//! * `config`: what a fabric is built from ([`FabricConfig`],
//!   [`BridgeConfig`], [`AgeHorizon`], [`ElectionMode`]), driven by
//!   ([`FabricEvent`]) and counts ([`BridgeStats`]).
//! * `policy`: one device's per-page filters and forwarding rules. It
//!   reads the election through a lent view, so it runs without one.
//! * `election`: one device's slice of the spanning-tree election, and
//!   the [`BootState`] a fabric's devices share.
//! * `device`: [`BridgePolicy`], a device's filters paired with its
//!   election, and [`Bridge`], its store-and-forward engine.
//! * `fabric`: [`Fabric`], every device of a topology with its control
//!   and fault planes, for the simulator and a threaded runtime alike.

mod config;
mod device;
mod election;
mod fabric;
mod policy;

pub use config::{
    AgeHorizon, BridgeConfig, BridgeStats, ElectionMode, FabricConfig, FabricEvent,
    BRIDGE_HOST_BASE,
};
pub use device::{Bridge, BridgePolicy};
pub use election::BootState;
pub use fabric::{Emission, Fabric, Forward};
pub use policy::PortStamp;

#[cfg(test)]
mod tests;
