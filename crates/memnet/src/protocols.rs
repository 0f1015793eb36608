//! The §4 protocol shapes re-expressed as MemNet programs.
//!
//! On MemNet the full/short page distinction vanishes (everything is a
//! 32-byte chunk), so the five Mether protocols collapse to three
//! structural shapes:
//!
//! | Mether protocol | MemNet shape |
//! |---|---|
//! | P1, P2 (shared page, consistent copy ping-pongs) | [`MemNetProtocol::SharedChunk`] |
//! | P3, P3-hysteresis (disjoint pages, reader purges + refetches) | [`MemNetProtocol::OneWayFlush`] |
//! | P5 (disjoint pages, passive data-driven reader) | [`MemNetProtocol::OneWayUpdate`] |
//!
//! (P4's single-page data-driven hybrid has no hardware analogue: a
//! MemNet reader cannot block on a chunk its own cache holds, which is
//! the same reason P4 loses on Mether.)
//!
//! The paper's §6 claim is that the best Mether protocol and the best
//! MemNet protocol are *the same shape* — the one-way, stationary-writer,
//! passive-reader design. The ranking experiment verifies it.

use crate::ring::RingStats;

/// A counting-protocol shape on MemNet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemNetProtocol {
    /// Both hosts read and write one shared chunk; ownership ping-pongs
    /// (write-invalidate). The Mether P1/P2 analogue.
    SharedChunk,
    /// One-way chunks; the reader flushes its cached copy after
    /// `hysteresis` consecutive losses and refetches. `hysteresis: 1` is
    /// the Mether P3 storm; larger values are Figure 7.
    OneWayFlush {
        /// Flush after this many consecutive losses.
        hysteresis: u64,
    },
    /// One-way chunks under write-update: the reader spins locally and
    /// the writer's update refreshes its copy in place. The Mether P5
    /// (data-driven) analogue — and MemNet's best protocol.
    OneWayUpdate,
}

impl MemNetProtocol {
    /// The shapes compared in the ranking experiment, in Mether order.
    pub fn all() -> Vec<MemNetProtocol> {
        vec![
            MemNetProtocol::SharedChunk,
            MemNetProtocol::OneWayFlush { hysteresis: 1 },
            MemNetProtocol::OneWayFlush { hysteresis: 10_000 },
            MemNetProtocol::OneWayUpdate,
        ]
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            MemNetProtocol::SharedChunk => "shared chunk (P1/P2 analogue)".into(),
            MemNetProtocol::OneWayFlush { hysteresis: 1 } => {
                "one-way chunks, flush every loss (P3 analogue)".into()
            }
            MemNetProtocol::OneWayFlush { hysteresis } => {
                format!("one-way chunks, flush after {hysteresis} losses (P3h analogue)")
            }
            MemNetProtocol::OneWayUpdate => "one-way chunks, write-update (P5 analogue)".into(),
        }
    }
}

/// Result of one MemNet counting run.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// The shape that ran.
    pub protocol: MemNetProtocol,
    /// Whether the count completed.
    pub finished: bool,
    /// Virtual wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Ring traffic.
    pub ring: RingStats,
    /// Increments completed.
    pub additions: u64,
    /// Checks that saw an unchanged value.
    pub losses: u64,
    /// Checks that saw a changed value.
    pub wins: u64,
    /// Mean fetch latency, nanoseconds.
    pub avg_miss_ns: u64,
    /// Ring transactions per increment — the ranking metric.
    pub messages_per_addition: f64,
}

impl std::fmt::Display for ProtocolReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "── MemNet: {} ──", self.protocol.label())?;
        writeln!(
            f,
            "  {:<24} {:.3} ms",
            "Wallclock Time",
            self.wall_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "  {:<24} {:.2} per addition ({} fetch / {} inval / {} update)",
            "Ring messages",
            self.messages_per_addition,
            self.ring.fetches,
            self.ring.invalidates,
            self.ring.updates
        )?;
        writeln!(
            f,
            "  {:<24} {:.2} µs",
            "Average miss latency",
            self.avg_miss_ns as f64 / 1e3
        )?;
        writeln!(
            f,
            "  {:<24} {:.1}",
            "Losses/Wins",
            if self.wins == 0 {
                f64::INFINITY
            } else {
                self.losses as f64 / self.wins as f64
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            MemNetProtocol::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn display_has_ranking_metric() {
        let r = crate::run_counting(
            MemNetProtocol::OneWayUpdate,
            &crate::CountingParams::paper(),
        );
        let s = r.to_string();
        assert!(s.contains("Ring messages"));
        assert!(s.contains("per addition"));
    }
}
