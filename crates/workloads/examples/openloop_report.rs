//! Prints the open-loop SLO report pairs (serving optimization off,
//! then on) for both topology classes — the measurement run behind
//! `_meta_pr10` in `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p mether-workloads --example openloop_report
//! cargo run --release -p mether-workloads --example openloop_report -- 7
//! ```
//!
//! The optional argument reseeds both scenarios (default seed 1, the
//! seed the CI SLO job pins). Runs are deterministic: re-running at one
//! seed reproduces every figure, including the digest.

use mether_workloads::{OpenLoopConfig, OpenLoopScenario};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(1);
    let cfg = OpenLoopConfig::seeded(seed);
    for scenario in [
        OpenLoopScenario::tree_4x8(cfg),
        OpenLoopScenario::tree_4x8(cfg).with_piggyback(),
        OpenLoopScenario::mesh_16x16(cfg),
        OpenLoopScenario::mesh_16x16(cfg).with_piggyback(),
    ] {
        let report = scenario.run(None);
        println!("{report}");
        println!();
    }
}
