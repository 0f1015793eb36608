//! Heap footprint of the open-loop builds and of a mesh run, gated: the
//! bytes each built deployment keeps live, and what the mesh run adds,
//! counted by a counting global allocator. Its own test binary with one
//! test, so no other test allocates while it counts.
//!
//! Created pages share one zero page and a page holds only its valid
//! bytes; a build that gives every created page a private 8 KiB extent
//! reads 0.57 MB on the tree and 3.81 MB on the mesh.
//!
//! A bridge device keeps its learned interest in its stamp rows, its
//! pins apart and its page index sized by the pages it heard of; the
//! mesh run at the benchmark's nominal load keeps about 2.4 MB. With a
//! learned and a pinned segment mask in every page filter and an index
//! word for every page id up to the highest heard, it kept 4.07 MB.

use mether_tests::heap::{measure, Counting};
use mether_workloads::{OpenLoopConfig, OpenLoopScenario};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn open_loop_builds_keep_only_the_bytes_they_touch() {
    let (_, tree, tree_peak) =
        measure(|| OpenLoopScenario::tree_4x8(OpenLoopConfig::seeded(1)).build());
    let (_, mesh, mesh_peak) =
        measure(|| OpenLoopScenario::mesh_16x16(OpenLoopConfig::seeded(1)).build());
    let report = format!(
        "tree_4x8 keeps {tree} B (peak {tree_peak} B), mesh_16x16 keeps {mesh} B (peak {mesh_peak} B)"
    );
    eprintln!("{report}");
    assert!(tree < 128 << 10, "tree over 128 KiB: {report}");
    assert!(mesh < 2_500_000, "mesh over 2.5 MB: {report}");

    // The benchmark's `ol-mesh` load: 5 accesses per driver at the
    // mesh's own 2.5 s mean Poisson gap, run as the benchmark runs it:
    // with the sampling invariant observer off, which a debug build
    // turns on and whose maps of every page swept would count too.
    // This binary runs this one test, so nothing else reads the
    // environment.
    std::env::set_var("METHER_OBSERVE", "0");
    let mut cfg = OpenLoopConfig::seeded(1);
    cfg.accesses_per_host = 5;
    let scenario = OpenLoopScenario::mesh_16x16(cfg);
    let mut sim = scenario.build();
    let (outcome, run, _) = measure(|| sim.run(scenario.limits()));
    assert!(outcome.finished, "the mesh run did not finish");
    assert!(
        run < 3_000_000,
        "the mesh run keeps {run} B beyond its build, over 3.0 MB"
    );
}
