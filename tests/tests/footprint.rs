//! Heap footprint of the open-loop builds, gated: the bytes each built
//! deployment keeps live, counted by a counting global allocator. Its
//! own test binary with one test, so no other test allocates while it
//! counts.
//!
//! Created pages share one zero page and a page holds only its valid
//! bytes; a build that gives every created page a private 8 KiB extent
//! reads 0.57 MB on the tree and 3.81 MB on the mesh.

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
}
