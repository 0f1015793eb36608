//! Heap bytes of the open-loop workloads at one seed: what each build
//! keeps, and the peak of build plus run, counted by a counting global
//! allocator.
//!
//! ```text
//! cargo run --release -p mether-tests --example heap_footprint [seed]
//! ```

use mether_tests::heap::{measure, Counting};
use mether_workloads::{OpenLoopConfig, OpenLoopScenario};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("seed is a number"));
    let tree = |write_fraction| {
        let mut cfg = OpenLoopConfig::seeded(seed);
        cfg.write_fraction = write_fraction;
        OpenLoopScenario::tree_4x8(cfg)
    };
    let mb = |bytes: usize| bytes as f64 / 1e6;
    println!("seed {seed}: heap MB, build kept / build+run peak");
    for (name, scenario) in [
        ("tree, 10% writes", tree(0.1)),
        ("tree, 50% writes", tree(0.5)),
        (
            "mesh",
            OpenLoopScenario::mesh_16x16(OpenLoopConfig::seeded(seed)),
        ),
    ] {
        let (sim, kept, _) = measure(|| scenario.build());
        drop(sim);
        let (_, _, peak) = measure(|| scenario.run(None));
        println!("{name:<18} {:>6.2} / {:>6.2}", mb(kept), mb(peak));
    }
}
