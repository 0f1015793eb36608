//! Prints the open-loop SLO report of both topology classes, the 4×8
//! tree and the 16×16 mesh, each on the hardened profile every
//! open-loop scenario runs.
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
        OpenLoopScenario::mesh_16x16(cfg),
    ] {
        let report = scenario.run(None);
        println!("{report}");
        println!();
    }
}
