//! The broadcast-heaviest workload a host can run: write a page, PURGE
//! it (one broadcast), repeat.
//!
//! This is the paper's "publish" idiom reduced to its wire footprint —
//! every cycle puts exactly one `PageData` broadcast on the segment for
//! the other N−1 hosts to snoop. The event-engine acceptance test
//! (`tests/tests/event_engine_regression.rs`) and the
//! `event_queue/broadcast_heap_16` microbench both drive this same
//! workload so the heap-shrink numbers in `BENCH_baseline.json` measure
//! exactly what the test pins.

use mether_core::{MapMode, PageId, PageLength, View};
use mether_net::SimDuration;
use mether_sim::{DsmOp, SimConfig, Simulation, Step, StepCtx, Workload};

/// Writes its page then PURGEs it (one broadcast per cycle), `cycles`
/// times, then exits. [`Publisher::paced`] adds a kernel sleep between
/// cycles, for scenarios that need the publisher alive across a window
/// of sim time (the fabric-failover experiments) rather than blasting
/// as fast as the scheduler allows.
pub struct Publisher {
    page: PageId,
    left: u32,
    value: u32,
    write_next: bool,
    pace: SimDuration,
    rest_next: bool,
}

impl Publisher {
    /// A publisher of `page`, broadcasting `cycles` times as fast as it
    /// is scheduled (the PR 2/PR 3 acceptance workload — byte-identical
    /// to always: no sleep steps are ever emitted at zero pace).
    pub fn new(page: PageId, cycles: u32) -> Self {
        Self::paced(page, cycles, SimDuration::ZERO)
    }

    /// A publisher sleeping `pace` between broadcast cycles. The final
    /// value written is `cycles` — scenario code can wait for readers
    /// to observe it.
    pub fn paced(page: PageId, cycles: u32, pace: SimDuration) -> Self {
        Publisher {
            page,
            left: cycles,
            value: 0,
            write_next: true,
            pace,
            rest_next: false,
        }
    }
}

impl Workload for Publisher {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.rest_next {
            self.rest_next = false;
            return Step::Sleep(self.pace);
        }
        if self.left == 0 {
            return Step::Done;
        }
        if self.write_next {
            self.write_next = false;
            self.value += 1;
            Step::Op(DsmOp::Write {
                page: self.page,
                view: View::short_demand(),
                offset: 0,
                value: self.value,
            })
        } else {
            self.write_next = true;
            self.left -= 1;
            // Pace between cycles (never after the last: the run ends
            // when the last purge lands, not a sleep later).
            self.rest_next = self.pace > SimDuration::ZERO && self.left > 0;
            Step::Op(DsmOp::Purge {
                page: self.page,
                mode: MapMode::Writeable,
                length: PageLength::Short,
            })
        }
    }

    fn label(&self) -> &str {
        "publisher"
    }
}

/// A paper-testbed deployment of `hosts` workstations with one
/// [`Publisher`] of `cycles` broadcasts on host 0 — the shared
/// broadcast-heavy harness behind the event-queue bench and its
/// acceptance test. The caller runs it.
pub fn build_publisher_sim(hosts: usize, cycles: u32) -> Simulation {
    let mut sim = Simulation::new(SimConfig::paper(hosts));
    let page = PageId::new(0);
    sim.create_owned(0, page);
    sim.add_process(0, Box::new(Publisher::new(page, cycles)));
    sim
}
