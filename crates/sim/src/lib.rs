//! Discrete-event simulator of SunOS 4.0 workstations running the Mether
//! distributed shared memory over a 10 Mbit/s Ethernet.
//!
//! The simulator reproduces the host-side dynamics the paper identifies as
//! decisive: the user-level server competing with spinning applications
//! for one CPU, millisecond context switches, and per-leg server costs.
//! User programs are [`Workload`] state machines; their DSM operations run
//! against the exact protocol logic in [`mether_core::PageTable`].
//!
//! # Example
//!
//! ```
//! use mether_sim::{Simulation, SimConfig, RunLimits, Step, StepCtx, Workload};
//! use mether_net::SimDuration;
//!
//! struct Idle(u32);
//! impl Workload for Idle {
//!     fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
//!         if self.0 == 0 {
//!             Step::Done
//!         } else {
//!             self.0 -= 1;
//!             Step::Compute(SimDuration::from_micros(50))
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::paper(1));
//! sim.add_process(0, Box::new(Idle(100)));
//! let outcome = sim.run(RunLimits::default());
//! assert!(outcome.finished);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod hist;
pub mod host;
pub mod metrics;
pub mod process;
mod sim;

pub use calib::Calib;
pub use hist::LatencyHistogram;
pub use host::{ArrivalStream, HostSim, OpenAccess, ProcState, ProcTimes, ServerKind, ServerTally};
pub use metrics::ProtocolMetrics;
pub use process::{DsmOp, OpResult, Step, StepCtx, Workload, WorkloadCounters};
pub use sim::{
    EventKind, EventPops, EventStats, ObserverStats, ParallelMode, Recipients, RunLimits,
    RunOutcome, SimConfig, Simulation, Topology,
};
