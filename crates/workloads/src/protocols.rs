//! Protocol descriptors and the harness that runs each paper figure.
//!
//! [`Protocol`] enumerates the experiments of §4 (Figures 4–9) plus the
//! two local calibration baselines. [`run_counting`] wires the right
//! workloads, pages, and hosts into a [`Simulation`] and returns the
//! paper-shaped metrics table.

use crate::counting::{CountingConfig, DisjointPageCounter, SharedPageCounter};
use mether_core::PageId;
use mether_net::SimDuration;
use mether_sim::{ProtocolMetrics, RunLimits, SimConfig, Simulation};

/// One §4 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Calibration: one process counting alone on one host (~50 ms).
    BaselineSingle,
    /// Calibration: two processes on one host (81 s wall, 37 s CPU).
    BaselineLocal,
    /// Figure 4 — increment on the full-size page.
    P1,
    /// Figure 5 — spin on the short page.
    P2,
    /// Figure 6 — spin on disjoint pages, one read-only (degenerates).
    P3,
    /// Figure 7 — protocol 3 with purge-after-N-losses hysteresis.
    P3Hysteresis(u64),
    /// Figure 8 — spin on the short page, data driven.
    P4,
    /// Figure 9 — the final protocol: disjoint pages, one data driven.
    P5,
}

impl Protocol {
    /// Display label matching the paper's figure captions.
    pub fn label(&self) -> String {
        match self {
            Protocol::BaselineSingle => "baseline: one process, one host".into(),
            Protocol::BaselineLocal => "baseline: two processes, one host".into(),
            Protocol::P1 => "protocol 1: increment on full-size page (Figure 4)".into(),
            Protocol::P2 => "protocol 2: spin on short page (Figure 5)".into(),
            Protocol::P3 => "protocol 3: spin on disjoint pages, one read-only (Figure 6)".into(),
            Protocol::P3Hysteresis(h) => {
                format!("protocol 3 with hysteresis {h} (Figure 7)")
            }
            Protocol::P4 => "protocol 4: spin on short page, data driven (Figure 8)".into(),
            Protocol::P5 => {
                "final protocol: spin on disjoint pages, one data driven (Figure 9)".into()
            }
        }
    }

    /// The paper's "Space" row: pages of Mether address space used.
    pub fn space_pages(&self) -> u32 {
        match self {
            Protocol::P3 | Protocol::P3Hysteresis(_) | Protocol::P5 => 2,
            _ => 1,
        }
    }

    /// All protocols in paper order, with the paper's two hysteresis
    /// settings.
    pub fn paper_sequence() -> Vec<Protocol> {
        vec![
            Protocol::BaselineSingle,
            Protocol::BaselineLocal,
            Protocol::P1,
            Protocol::P2,
            Protocol::P3,
            Protocol::P3Hysteresis(10_000),
            Protocol::P4,
            Protocol::P5,
        ]
    }
}

/// Builds the simulation for `protocol` (hosts, pages, processes) without
/// running it — exposed so benches can time construction separately and
/// tests can poke at the initial state.
pub fn build_counting(protocol: Protocol, cfg: &CountingConfig, sim_cfg: SimConfig) -> Simulation {
    let page0 = PageId::new(0);
    let page1 = PageId::new(1);
    match protocol {
        Protocol::BaselineSingle => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 1,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            let single = CountingConfig {
                processes: 1,
                ..*cfg
            };
            sim.add_process(0, Box::new(SharedPageCounter::baseline(single, 0, page0)));
            sim
        }
        Protocol::BaselineLocal => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 1,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.add_process(0, Box::new(SharedPageCounter::baseline(*cfg, 0, page0)));
            sim.add_process(0, Box::new(SharedPageCounter::baseline(*cfg, 1, page0)));
            sim
        }
        Protocol::P1 => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.add_process(0, Box::new(SharedPageCounter::protocol1(*cfg, 0, page0)));
            sim.add_process(1, Box::new(SharedPageCounter::protocol1(*cfg, 1, page0)));
            sim
        }
        Protocol::P2 => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.add_process(0, Box::new(SharedPageCounter::protocol2(*cfg, 0, page0)));
            sim.add_process(1, Box::new(SharedPageCounter::protocol2(*cfg, 1, page0)));
            sim
        }
        Protocol::P3 => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.create_owned(1, page1);
            // Protocol 3 predates the realisation that the whole loop must
            // be cheap: readers purge and refetch full pages on every loss.
            sim.add_process(
                0,
                Box::new(DisjointPageCounter::protocol3(*cfg, 0, page0, page1).with_full_pages()),
            );
            sim.add_process(
                1,
                Box::new(DisjointPageCounter::protocol3(*cfg, 1, page1, page0).with_full_pages()),
            );
            sim
        }
        Protocol::P3Hysteresis(h) => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.create_owned(1, page1);
            sim.add_process(
                0,
                Box::new(DisjointPageCounter::protocol3_hysteresis(
                    *cfg, 0, page0, page1, h,
                )),
            );
            sim.add_process(
                1,
                Box::new(DisjointPageCounter::protocol3_hysteresis(
                    *cfg, 1, page1, page0, h,
                )),
            );
            sim
        }
        Protocol::P4 => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.add_process(0, Box::new(SharedPageCounter::protocol4(*cfg, 0, page0)));
            sim.add_process(1, Box::new(SharedPageCounter::protocol4(*cfg, 1, page0)));
            sim
        }
        Protocol::P5 => {
            let mut sim = Simulation::new(SimConfig {
                hosts: 2,
                ..sim_cfg
            });
            sim.create_owned(0, page0);
            sim.create_owned(1, page1);
            sim.add_process(
                0,
                Box::new(DisjointPageCounter::protocol5(*cfg, 0, page0, page1)),
            );
            sim.add_process(
                1,
                Box::new(DisjointPageCounter::protocol5(*cfg, 1, page1, page0)),
            );
            sim
        }
    }
}

/// Runs one §4 experiment end to end and returns the figure table.
pub fn run_counting(
    protocol: Protocol,
    cfg: &CountingConfig,
    sim_cfg: SimConfig,
    limits: RunLimits,
) -> ProtocolMetrics {
    let mut sim = build_counting(protocol, cfg, sim_cfg);
    let outcome = sim.run(limits);
    sim.metrics(&protocol.label(), outcome.finished, protocol.space_pages())
}

/// Runs a protocol with the paper's parameters and a protocol-appropriate
/// time cap (protocol 3 is cut off rather than waited out).
pub fn run_paper_protocol(protocol: Protocol) -> ProtocolMetrics {
    let cfg = match protocol {
        Protocol::BaselineSingle => CountingConfig::single(),
        _ => CountingConfig::paper(),
    };
    let limits = match protocol {
        // Figure 6 "never finished": protocol 3 is cut off at 150
        // simulated seconds, by which point every other protocol has
        // completed the full count. (Left to run, it takes ~173 s — the
        // worst of all protocols; the paper's total divergence came from
        // UDP drops under the packet storm, which a loss-free closed-loop
        // model bounds; `repro fig6` prints the cut-off run.)
        Protocol::P3 => RunLimits {
            max_sim_time: SimDuration::from_secs(150),
            ..RunLimits::default()
        },
        _ => RunLimits::default(),
    };
    run_counting(protocol, &cfg, SimConfig::paper(2), limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_reference_figures() {
        assert!(Protocol::P1.label().contains("Figure 4"));
        assert!(Protocol::P5.label().contains("Figure 9"));
        assert!(Protocol::P3Hysteresis(100).label().contains("100"));
    }

    #[test]
    fn space_rows_match_paper() {
        assert_eq!(Protocol::P2.space_pages(), 1);
        assert_eq!(Protocol::P4.space_pages(), 1);
        assert_eq!(Protocol::P3Hysteresis(100).space_pages(), 2);
        assert_eq!(Protocol::P5.space_pages(), 2);
    }

    #[test]
    fn baseline_single_runs_in_about_50_ms() {
        let m = run_paper_protocol(Protocol::BaselineSingle);
        assert!(m.finished);
        let ms = m.wall.as_millis_f64();
        assert!(
            (30.0..90.0).contains(&ms),
            "single-process baseline took {ms} ms"
        );
        assert_eq!(m.additions, 1024);
    }

    #[test]
    fn p5_completes_quickly() {
        let m = run_paper_protocol(Protocol::P5);
        assert!(m.finished, "{m}");
        assert_eq!(m.additions, 1024);
        // One data packet per addition, essentially no requests.
        assert!(
            m.net.requests <= 8,
            "final protocol sends ~no requests: {}",
            m.net.requests
        );
    }
}
