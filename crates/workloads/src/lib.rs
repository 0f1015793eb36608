//! Workloads from the Mether paper: the §4 counting protocols (Figures
//! 4–9), the sparse-solver send/receive application (§3), and the
//! experiment harness that regenerates each figure.
//!
//! The [`segments`] module scales those workloads past one broadcast
//! domain, onto the routed bridge fabric of `mether_net::bridge`. Worker
//! placement there is automatic where it can be: a
//! [`WriteGraph`] records which host writes which page and derives
//! [`mether_core::PageHomePolicy::FromWorkload`] — each page homed on
//! its dominant writer's segment — so the ablation harness
//! ([`sweep_segmented_solver`]) varies segment count × bridge topology
//! (star / chain / balanced tree) without hand-aligning pages and
//! striping. [`PollingReader`] supplies the holder-stable request
//! workload the fabric's request routing is measured with.
//!
//! The rest drive the same protocols under stress rather than at paper
//! scale: [`fabric`] kills and revives bridge devices under readers,
//! [`openloop`] offers seeded arrival-driven load and reports
//! fault-latency percentiles against an SLO, [`publisher`] is the
//! broadcast-heaviest host, and [`soak`] draws whole scenarios —
//! topology, fault schedule, mix, loss — from one replayable seed and
//! runs them on either engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod counting;
pub mod fabric;
pub mod openloop;
pub mod protocols;
pub mod publisher;
pub mod segments;
pub mod soak;
pub mod solver;

pub use ablations::{
    run_kernel_server, run_purge_vs_invalidate, run_short_size_sweep, run_snoop_ablation,
};
pub use counting::{CountingConfig, DisjointPageCounter, LossPolicy, SharedPageCounter};
pub use fabric::{
    build_ring_failover, run_past_last_event, run_ring_failover, sweep_age_horizons, AgePoint,
    FailoverConfig, FailoverReport, PollUntilReader, PostRecovery, ReturningReader,
};
pub use openloop::{
    ArrivalProcess, BusiestTimer, OpenLoopConfig, OpenLoopReport, OpenLoopScenario, OpenLoopShape,
};
pub use protocols::{build_counting, run_counting, run_paper_protocol, Protocol};
pub use publisher::{build_publisher_sim, Publisher};
pub use segments::{
    build_cross_segment_counting, build_fabric_readers, build_segmented_counting_pairs,
    build_segmented_publisher, build_segmented_solver, build_segmented_solver_on, run_segmented,
    sweep_segmented_solver, PollingReader, SegmentedReport, SweepPoint, WriteGraph,
};
pub use soak::{
    base_seed_from_env, run_cross_engine_soak, run_soak, runtime_metrics, scenario_count_from_env,
    state_digest, CrossEngineReport, RuntimeSoakReport, SoakMix, SoakReport, SoakScenario,
    SoakShape,
};
pub use solver::{
    jacobi_step, run_solver_speedup, SolverConfig, SolverWorker, SparseMatrix, SpeedupPoint,
};
