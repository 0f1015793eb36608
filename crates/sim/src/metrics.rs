//! Experiment metrics: the columns of the paper's Figures 4–9.
//!
//! Every counting-protocol run produces a [`ProtocolMetrics`], whose
//! `Display` impl prints a table in the same shape as the paper's figures
//! (operation → cost), plus reproduction-specific extras (bytes per
//! addition, server queue depth).

use crate::sim::ObserverStats;
use mether_net::{BridgeStats, FabricEvent, NetStats, SimDuration};
use std::fmt;

/// Measured costs of one user protocol run (one paper figure).
#[derive(Debug, Clone)]
pub struct ProtocolMetrics {
    /// Protocol name, e.g. `"P1: increment on full-size page"`.
    pub label: String,
    /// Whether the workload completed within the run limits. Figure 6's
    /// protocol 3 "never finished".
    pub finished: bool,
    /// Virtual wall-clock time at completion (or at the cap).
    pub wall: SimDuration,
    /// Mean per-host user CPU time of the application processes.
    pub user: SimDuration,
    /// Mean per-host system time (application traps + the user-level
    /// server's work, which is mostly syscalls on this platform).
    pub sys: SimDuration,
    /// Network traffic counters for the whole run (all segments summed —
    /// the flat-network view existing consumers expect).
    pub net: NetStats,
    /// Per-segment traffic counters (one entry on a flat topology;
    /// `net` is their sum). Losses and decode errors stay attributable
    /// to the wire they happened on.
    pub net_segments: Vec<NetStats>,
    /// Fabric-wide bridge counters (per-device counters summed):
    /// cross-segment traffic, forwarded requests, filtered (kept-local)
    /// frames, drops and queue tail-drops. All zero on a flat topology.
    pub bridge: BridgeStats,
    /// Per-device bridge counters, indexed by device of the
    /// [`mether_core::BridgeTopology`] (`bridge` is their sum). Empty on
    /// a flat topology; one entry for PR 3's star.
    pub bridge_devices: Vec<BridgeStats>,
    /// Fabric failures/recoveries injected during the run, with the sim
    /// time (from run start) each fired at. Empty on flat topologies
    /// and undisturbed fabrics.
    pub fabric_events: Vec<(SimDuration, FabricEvent)>,
    /// Spanning-tree reconvergences: active-tree changes summed across
    /// all bridge devices (0 under static election).
    pub fabric_reconvergences: u64,
    /// The measured reconvergence stall: sim time from the most recent
    /// `BridgeDown` to the first page copy forwarded by a re-elected
    /// device — the window during which cross-fabric pages were
    /// unreachable. `None` when nothing was killed (or nothing crossed
    /// afterwards).
    pub reconvergence_stall: Option<SimDuration>,
    /// Mean frames snooped per host — the paper's per-host network load
    /// in frame terms; the number segment filtering shrinks.
    pub frames_heard_mean: f64,
    /// Frames snooped by the busiest host.
    pub frames_heard_max: u64,
    /// Offered network load in bytes/second (wire bytes ÷ wall).
    pub net_load_bps: f64,
    /// Wire bytes per completed addition.
    pub bytes_per_addition: f64,
    /// Total context switches across all hosts.
    pub ctx_switches: u64,
    /// Context switches per completed addition.
    pub ctx_per_addition: f64,
    /// Mean page-fault service time (block → wake).
    pub avg_latency: SimDuration,
    /// Total checks that saw an unchanged variable.
    pub losses: u64,
    /// Total checks that saw a changed variable.
    pub wins: u64,
    /// Synchronisation operations completed (the paper's 1024 additions).
    pub additions: u64,
    /// Pages of Mether address space the protocol uses.
    pub space_pages: u32,
    /// Peak server work-queue depth across hosts (degeneration marker).
    pub max_server_queue: usize,
    /// Page requests dropped at host NICs because an identical request
    /// was already queued (`Calib::with_nic_filter`; the runtime counts
    /// the same condition in its node receive path). 0 when the NIC
    /// filter is off.
    pub requests_coalesced: u64,
    /// Queued page requests dropped at serve time because the reply
    /// just broadcast for an identical request satisfies them too
    /// (`Calib::with_reply_piggyback`). 0 when piggybacking is off.
    pub requests_piggybacked: u64,
    /// Open-loop accesses issued across all hosts (0 when no open-loop
    /// stream was attached).
    pub open_accesses: u64,
    /// Open-loop accesses that missed and faulted (stamped at issue;
    /// satisfied ones fill the latency histogram).
    pub open_faults: u64,
    /// Open-loop fault-latency median, from the merged histogram.
    pub open_p50: SimDuration,
    /// Open-loop fault-latency 99th percentile.
    pub open_p99: SimDuration,
    /// Open-loop fault-latency 99.9th percentile.
    pub open_p999: SimDuration,
    /// Exact maximum open-loop fault latency.
    pub open_max: SimDuration,
    /// Per-segment server-queue high-water marks: the deepest server
    /// work queue any member host saw (one entry on a flat topology) —
    /// the hot-home-segment diagnostic the open-loop lens reads.
    pub server_queue_high_water: Vec<u64>,
    /// Invariant-observer coverage for the run (sweeps run, entities
    /// checked, dirty-set high-water mark, effective stride) — what the
    /// verification layer actually looked at, instead of it being
    /// invisible. All zero when the observer is off (release builds
    /// without `METHER_OBSERVE=1`) or on the threaded runtime, which
    /// has no event-sampled observer.
    pub observer: ObserverStats,
}

impl ProtocolMetrics {
    /// losses ÷ wins (`inf` when no wins — total starvation).
    pub fn loss_win_ratio(&self) -> f64 {
        if self.wins == 0 {
            f64::INFINITY
        } else {
            self.losses as f64 / self.wins as f64
        }
    }
}

impl fmt::Display for ProtocolMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── {} ──", self.label)?;
        if !self.finished {
            writeln!(f, "  (did not finish; cut off at the run limit)")?;
        }
        writeln!(f, "  {:<24} {}", "Wallclock Time", self.wall)?;
        writeln!(f, "  {:<24} {}", "User Time", self.user)?;
        writeln!(f, "  {:<24} {}", "Sys Time", self.sys)?;
        writeln!(
            f,
            "  {:<24} {:.1} kbytes/second ({:.0} bytes/addition)",
            "Network Load",
            self.net_load_bps / 1000.0,
            self.bytes_per_addition
        )?;
        writeln!(
            f,
            "  {:<24} {:.1} per addition",
            "Context Switches", self.ctx_per_addition
        )?;
        writeln!(f, "  {:<24} {} pages", "Space", self.space_pages)?;
        writeln!(f, "  {:<24} {}", "Average Latency", self.avg_latency)?;
        writeln!(f, "  {:<24} {:.1}", "Losses/Wins", self.loss_win_ratio())?;
        writeln!(
            f,
            "  {:<24} {} pkts ({} req / {} data), peak server queue {}",
            "Packets",
            self.net.packets,
            self.net.requests,
            self.net.data_packets,
            self.max_server_queue
        )?;
        if self.requests_coalesced > 0 {
            writeln!(
                f,
                "  {:<24} {} requests",
                "Coalesced at NIC", self.requests_coalesced
            )?;
        }
        if self.requests_piggybacked > 0 {
            writeln!(
                f,
                "  {:<24} {} requests",
                "Piggybacked at serve", self.requests_piggybacked
            )?;
        }
        if self.open_accesses > 0 {
            writeln!(
                f,
                "  {:<24} {} accesses, {} faults",
                "Open-loop traffic", self.open_accesses, self.open_faults
            )?;
            writeln!(
                f,
                "  {:<24} p50 {} / p99 {} / p999 {} / max {}",
                "Open-loop fault latency",
                self.open_p50,
                self.open_p99,
                self.open_p999,
                self.open_max
            )?;
            let hot = self
                .server_queue_high_water
                .iter()
                .enumerate()
                .max_by_key(|(_, q)| **q);
            if let Some((seg, q)) = hot {
                writeln!(f, "  {:<24} {} (segment {})", "Queue high-water", q, seg)?;
            }
        }
        writeln!(
            f,
            "  {:<24} {:.1} mean / {} max per host",
            "Frames Snooped", self.frames_heard_mean, self.frames_heard_max
        )?;
        if self.observer.sweeps > 0 || self.observer.full_sweeps > 0 {
            writeln!(
                f,
                "  {:<24} {} sweeps ({} full), {} states checked, dirty high-water {}, stride {}",
                "Observer",
                self.observer.sweeps,
                self.observer.full_sweeps,
                self.observer.entities_checked,
                self.observer.dirty_high_water,
                self.observer.effective_stride
            )?;
        }
        if self.net_segments.len() > 1 {
            for (i, s) in self.net_segments.iter().enumerate() {
                writeln!(f, "  {:<24} {}", format!("Segment {i}"), s)?;
            }
            writeln!(
                f,
                "  {:<24} {} frames / {} bytes forwarded ({} requests), {} kept local, {} dropped, {} queue drops",
                "Bridge",
                self.bridge.forwarded,
                self.bridge.bytes_forwarded,
                self.bridge.req_forwarded,
                self.bridge.filtered,
                self.bridge.dropped,
                self.bridge.queue_drops
            )?;
            if self.bridge_devices.len() > 1 {
                for (i, d) in self.bridge_devices.iter().enumerate() {
                    writeln!(
                        f,
                        "  {:<24} heard {}, forwarded {} ({} requests), filtered {}, {} queue drops",
                        format!("Bridge device {i}"),
                        d.heard,
                        d.forwarded,
                        d.req_forwarded,
                        d.filtered,
                        d.queue_drops
                    )?;
                }
            }
            let b = &self.bridge;
            if b.belief_hits + b.home_routed + b.belief_fallback_floods > 0 {
                writeln!(
                    f,
                    "  {:<24} {} hits / {} routed home / {} fallback floods / {} repairs",
                    "Holder beliefs",
                    b.belief_hits,
                    b.home_routed,
                    b.belief_fallback_floods,
                    b.belief_repairs
                )?;
            }
            if !self.fabric_events.is_empty() {
                for (at, ev) in &self.fabric_events {
                    writeln!(f, "  {:<24} {ev:?} at {at}", "Fabric event")?;
                }
                writeln!(
                    f,
                    "  {:<24} {} reconvergences, stall {}",
                    "Fabric",
                    self.fabric_reconvergences,
                    match self.reconvergence_stall {
                        Some(s) => s.to_string(),
                        None => "unmeasured".into(),
                    }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProtocolMetrics {
        ProtocolMetrics {
            label: "test".into(),
            finished: true,
            wall: SimDuration::from_secs(10),
            user: SimDuration::from_secs(1),
            sys: SimDuration::from_secs(2),
            net: NetStats::new(),
            net_segments: vec![NetStats::new()],
            bridge: BridgeStats::default(),
            bridge_devices: Vec::new(),
            fabric_events: Vec::new(),
            fabric_reconvergences: 0,
            reconvergence_stall: None,
            frames_heard_mean: 12.0,
            frames_heard_max: 16,
            net_load_bps: 2200.0,
            bytes_per_addition: 148.0,
            ctx_switches: 4096,
            ctx_per_addition: 4.0,
            avg_latency: SimDuration::from_millis(68),
            losses: 1340,
            wins: 10,
            additions: 1024,
            space_pages: 1,
            max_server_queue: 3,
            requests_coalesced: 0,
            requests_piggybacked: 0,
            open_accesses: 0,
            open_faults: 0,
            open_p50: SimDuration::ZERO,
            open_p99: SimDuration::ZERO,
            open_p999: SimDuration::ZERO,
            open_max: SimDuration::ZERO,
            server_queue_high_water: Vec::new(),
            observer: ObserverStats::default(),
        }
    }

    #[test]
    fn loss_win_ratio_math() {
        let mut m = sample();
        assert_eq!(m.loss_win_ratio(), 134.0);
        m.wins = 0;
        assert!(m.loss_win_ratio().is_infinite());
    }

    #[test]
    fn display_contains_paper_rows() {
        let s = sample().to_string();
        for row in [
            "Wallclock Time",
            "User Time",
            "Sys Time",
            "Network Load",
            "Context Switches",
            "Space",
            "Average Latency",
            "Losses/Wins",
        ] {
            assert!(s.contains(row), "missing row {row}:\n{s}");
        }
    }

    #[test]
    fn display_flags_unfinished_runs() {
        let mut m = sample();
        m.finished = false;
        assert!(m.to_string().contains("did not finish"));
    }
}
