//! Analytical shared-medium Ethernet model for the discrete-event
//! simulator.
//!
//! The model captures what mattered to the paper's numbers:
//!
//! * a single broadcast segment: at most one frame on the wire at a time,
//!   later transmissions queue behind the medium (`medium_free_at`);
//! * store-and-forward transmission time `wire_size × 8 / bandwidth`
//!   plus a fixed inter-frame gap;
//! * a propagation delay (tiny on a LAN but non-zero);
//! * optional uniform packet loss ("the comparatively low reliability of
//!   the network we are using");
//! * full traffic accounting through [`NetStats`].
//!
//! The simulator calls [`EtherSim::transmit`] when a host's server hands a
//! frame to its NIC, and schedules packet-arrival events at every other
//! host at the returned delivery time.
//!
//! # One instance per segment
//!
//! `EtherSim` is deliberately *one segment*, not "the network". A
//! multi-segment deployment instantiates one `EtherSim` per bridged
//! segment — each with its own `medium_free_at` carrier state, loss RNG
//! (seeded per segment via [`EtherConfig::for_segment`]), and
//! [`NetStats`] — so segments carry frames concurrently in simulated
//! time instead of serialising on one shared medium, and every traffic
//! counter is attributable to the wire it happened on. Frames cross
//! between instances through the store-and-forward
//! [`crate::bridge::Bridge`]: the bridge decides *which* segments must
//! hear a frame (its filtering is where the multi-segment scaling win
//! comes from) and *when* the frame exits its queue; the destination
//! `EtherSim` then serialises the forwarded frame onto its own medium
//! exactly like a locally-transmitted one.

use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use mether_core::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the simulated Ethernet.
#[derive(Debug, Clone)]
pub struct EtherConfig {
    /// Medium bit rate. The paper's LAN is 10 Mbit/s.
    pub bandwidth_bps: u64,
    /// Gap enforced between consecutive frames (9.6 µs on 10 Mbit/s
    /// Ethernet).
    pub inter_frame_gap: SimDuration,
    /// One-way propagation delay across the segment.
    pub propagation: SimDuration,
    /// Probability that a transmitted frame is lost (dropped at every
    /// receiver). Mether's protocols tolerate loss by re-requesting.
    pub loss: f64,
    /// Seed for loss injection.
    pub seed: u64,
}

impl EtherConfig {
    /// The paper's network: 10 Mbit/s Ethernet, standard gap, no loss.
    pub fn ten_megabit() -> Self {
        EtherConfig {
            bandwidth_bps: 10_000_000,
            inter_frame_gap: SimDuration::from_nanos(9_600),
            propagation: SimDuration::from_micros(5),
            loss: 0.0,
            seed: 0,
        }
    }

    /// The configuration for segment `seg` of a multi-segment deployment:
    /// identical parameters, but a per-segment loss seed so the segments'
    /// loss processes are independent. Segment 0 keeps the base seed, so
    /// a one-segment "segmented" network reproduces the flat network's
    /// loss pattern bit for bit.
    #[must_use]
    pub fn for_segment(mut self, seg: usize) -> Self {
        self.seed = self.seed.wrapping_add(seg as u64);
        self
    }

    /// Same network with uniform frame loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn with_loss(mut self, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss = p;
        self.seed = seed;
        self
    }
}

impl Default for EtherConfig {
    fn default() -> Self {
        Self::ten_megabit()
    }
}

/// Outcome of handing one frame to the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// When the frame finishes arriving at every receiver (`None` if the
    /// frame was lost).
    pub delivered_at: Option<SimTime>,
    /// When the sender's NIC is free again (transmission end).
    pub sender_free_at: SimTime,
}

/// The shared-medium Ethernet model.
#[derive(Debug)]
pub struct EtherSim {
    cfg: EtherConfig,
    medium_free_at: SimTime,
    stats: NetStats,
    rng: StdRng,
}

impl EtherSim {
    /// A quiet medium with the given parameters.
    pub fn new(cfg: EtherConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        EtherSim {
            cfg,
            medium_free_at: SimTime::ZERO,
            stats: NetStats::new(),
            rng,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EtherConfig {
        &self.cfg
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Time the wire takes to clock out `bytes`.
    pub(crate) fn transmission_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(
            (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.cfg.bandwidth_bps,
        )
    }

    /// Queues `pkt` for transmission at `now` and returns when it is
    /// delivered to all receivers (end of frame + propagation), or `None`
    /// in `delivered_at` if loss injection dropped it.
    ///
    /// The frame waits for the medium if it is busy, so bursts serialise
    /// exactly as on a real shared segment.
    pub fn transmit(&mut self, now: SimTime, pkt: &Packet) -> Transmission {
        let start = now.max(self.medium_free_at);
        let tx = self.transmission_time(pkt.wire_size());
        let end = start + tx;
        self.medium_free_at = end + self.cfg.inter_frame_gap;
        self.stats.record(pkt);
        let lost = self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss;
        if lost {
            self.stats.record_loss();
        }
        Transmission {
            delivered_at: (!lost).then_some(end + self.cfg.propagation),
            sender_free_at: end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mether_core::{Generation, HostId, PageId, PageLength, Want};

    fn req() -> Packet {
        Packet::PageRequest {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Short,
            want: Want::ReadOnly,
        }
    }

    fn data(len: usize) -> Packet {
        Packet::PageData {
            from: HostId(1),
            page: PageId::new(0),
            length: if len <= 32 {
                PageLength::Short
            } else {
                PageLength::Full
            },
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![0u8; len]),
        }
    }

    #[test]
    fn full_page_takes_about_6_6_ms_on_10mbit() {
        // 8192 payload + framing ≈ 8.25 kbytes → ≈ 6.6 ms at 10 Mbit/s.
        let e = EtherSim::new(EtherConfig::ten_megabit());
        let t = e.transmission_time(data(8192).wire_size());
        let ms = t.as_secs_f64() * 1e3;
        assert!((6.0..7.5).contains(&ms), "{ms} ms");
    }

    #[test]
    fn short_frame_takes_about_51_us() {
        // 64-byte minimum frame at 10 Mbit/s = 51.2 µs.
        let e = EtherSim::new(EtherConfig::ten_megabit());
        let t = e.transmission_time(req().wire_size());
        assert_eq!(t.as_nanos(), 51_200);
    }

    #[test]
    fn medium_serialises_back_to_back_frames() {
        let mut e = EtherSim::new(EtherConfig::ten_megabit());
        let t0 = e.transmit(SimTime::ZERO, &req());
        let t1 = e.transmit(SimTime::ZERO, &req());
        let d0 = t0.delivered_at.unwrap();
        let d1 = t1.delivered_at.unwrap();
        assert!(d1 > d0, "second frame queued behind the first");
        let gap = (d1 - d0).as_nanos();
        // frame time + inter-frame gap
        assert_eq!(gap, 51_200 + 9_600);
    }

    #[test]
    fn idle_medium_transmits_immediately() {
        let mut e = EtherSim::new(EtherConfig::ten_megabit());
        let late = SimTime::ZERO + SimDuration::from_secs(5);
        let t = e.transmit(late, &req());
        assert_eq!(
            (t.delivered_at.unwrap() - late).as_nanos(),
            51_200 + 5_000,
            "transmission + propagation only"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut e = EtherSim::new(EtherConfig::ten_megabit());
        e.transmit(SimTime::ZERO, &req());
        e.transmit(SimTime::ZERO, &data(32));
        assert_eq!(e.stats().packets, 2);
        assert_eq!(e.stats().requests, 1);
        assert_eq!(e.stats().data_packets, 1);
    }

    #[test]
    fn loss_injection_drops_roughly_p() {
        let mut e = EtherSim::new(EtherConfig::ten_megabit().with_loss(0.3, 42));
        let mut lost = 0;
        let n = 2000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now += SimDuration::from_millis(1);
            if e.transmit(now, &req()).delivered_at.is_none() {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "observed loss {rate}");
        assert_eq!(e.stats().lost, lost);
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut e = EtherSim::new(EtherConfig::ten_megabit());
        for _ in 0..100 {
            assert!(e.transmit(SimTime::ZERO, &req()).delivered_at.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = EtherConfig::ten_megabit().with_loss(1.5, 0);
    }
}
