//! Integration-test-only crate.
//!
//! The actual tests live in `tests/tests/*.rs` and span every crate of
//! the workspace:
//!
//! * `protocol_orderings` — the paper's qualitative findings end to end
//!   on the discrete-event simulator;
//! * `memnet_equivalence` — the §6 "same best protocol" claim across
//!   the software and hardware DSMs;
//! * `runtime_lossy` — failure injection: channels over a lossy LAN;
//! * `sim_runtime_agreement` — the simulator and the threaded runtime
//!   agree on protocol-level facts;
//! * `invariants` — property-based soup testing of the single-
//!   consistent-holder invariant;
//! * `event_engine_regression` — per-transit delivery and 1-segment
//!   bridged topologies pinned byte-identical to their predecessors at
//!   fixed seeds;
//! * `segmented_topology` — the multi-segment scaling claim (≥3× fewer
//!   frames snooped per host on 4×8 segments vs 1×32 flat), bridge
//!   fault knobs, and the `HostMask`/`Recipients::Subset` properties;
//! * `wire_roundtrip` / `zero_copy_fanout` — codec framing equivalence
//!   and the zero-copy page-data path.
//! * `footprint` — the heap the open-loop builds keep, gated, counted
//!   by [`heap::Counting`]; `examples/heap_footprint.rs` prints the same
//!   counts for whole runs.

pub mod heap {
    //! A counting global allocator: a binary installs [`Counting`] with
    //! `#[global_allocator]` and reads live and peak heap bytes around
    //! the work it measures with [`measure`], and allocation calls with
    //! [`allocations`]. Counts are process-wide, so measure with nothing
    //! else allocating.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// The system allocator, counting live bytes and their peak.
    pub struct Counting;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);
    static CALLS: AtomicUsize = AtomicUsize::new(0);

    fn grew(bytes: usize) {
        CALLS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }

    // SAFETY: every call forwards to `System` unchanged; the counters
    // only observe the layouts.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            grew(layout.size());
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            grew(layout.size());
            System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Relaxed);
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Runs `work` and returns what it built with `(kept, peak)`: the
    /// heap bytes its result holds and the most it held at once, both
    /// above the level before it started. Reads zeros unless
    /// [`Counting`] is the global allocator.
    pub fn measure<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let out = work();
        let kept = LIVE.load(Relaxed) - before;
        (out, kept, PEAK.load(Relaxed) - before)
    }

    /// Allocation and reallocation calls so far, process-wide. Reads 0
    /// unless [`Counting`] is the global allocator.
    pub fn allocations() -> usize {
        CALLS.load(Relaxed)
    }
}
