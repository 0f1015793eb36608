//! Heap bytes of the open-loop workloads at one seed: what each build
//! keeps, and the peak of build plus run, counted by a counting global
//! allocator. Then the mesh at the benchmark's nominal load (5 accesses
//! per driver), stage by stage: what the build keeps, what the run adds
//! and in how many allocation calls, and the transient peak of the
//! closing invariant sweep.
//!
//! ```text
//! cargo run --release -p mether-tests --example heap_footprint [seed]
//! ```

use mether_tests::heap::{allocations, measure, Counting};
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

    let mut cfg = OpenLoopConfig::seeded(seed);
    cfg.accesses_per_host = 5;
    let mesh = OpenLoopScenario::mesh_16x16(cfg);
    let (mut sim, build, _) = measure(|| mesh.build());
    let calls = allocations();
    let (_, run, _) = measure(|| sim.run(mesh.limits()));
    let calls = allocations() - calls;
    let (_, _, sweep) = measure(|| sim.check_invariants());
    println!(
        "mesh, 5 accesses: build keeps {:.2}, run keeps {:.2} more ({calls} allocation calls), \
         closing sweep peaks {:.2} above that",
        mb(build),
        mb(run),
        mb(sweep)
    );
}
