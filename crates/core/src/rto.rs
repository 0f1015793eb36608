//! The fault retransmission timer: a round-trip estimator in integer
//! nanoseconds (Jacobson–Karels smoothing with Karn's rule, RFC 6298).
//!
//! A request-bearing fault whose reply never comes must be re-sent, but
//! a timer shorter than the round trip re-sends *every* request: the
//! duplicate costs the requester a second send leg, the fabric a second
//! crossing and the holder a second serve. The estimator therefore
//! measures: each fault satisfied by its first request is a sample `r`,
//!
//! ```text
//! srtt   += (r - srtt) / 8
//! rttvar += (|r - srtt| - rttvar) / 4
//! rto     = max(floor, srtt + 4 * rttvar)
//! ```
//!
//! and the first sample sets `srtt = r`, `rttvar = r / 2` (an RTO of
//! `3 r`). Before any sample the RTO is three times the round trip the
//! embedder's cost model implies on an idle network.
//!
//! Each unanswered request of one fault doubles that fault's timer, up
//! to [`MAX_BACKOFF`] doublings, so a partition is re-probed in bounded
//! time once it heals. **Karn's rule**: a fault that was retransmitted
//! gives no sample (its reply cannot be matched to one of its
//! requests), and the backoff it reached is kept as the starting point
//! of the host's next fault until a clean sample clears it — without
//! the retention, a round trip that jumps above the RTO is never
//! sampled again and the estimate sticks low.
//!
//! No time type and no I/O: the simulator feeds it sim-time
//! nanoseconds, a threaded runtime can feed it wall-clock ones.

/// Most doublings one fault's timer takes (a 16 × cap).
pub const MAX_BACKOFF: u32 = 4;

/// The least a retransmission timeout may be, in nanoseconds (20 ms),
/// in both engines. It is a floor, not the timeout: each host measures
/// its own. The simulator's no-load round trip alone is 29 ms, and a
/// threaded runtime's few microseconds leave its timeout at the floor.
pub const RETRY_FLOOR_NS: u64 = 20_000_000;

/// Per-host retransmission-timeout estimator. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtoEstimator {
    floor: u64,
    /// RTO used until the first sample.
    initial: u64,
    /// Smoothed round trip and its mean deviation; `None` before the
    /// first sample.
    smoothed: Option<(u64, u64)>,
    /// Doublings a new fault's timer starts with (Karn's retention).
    backoff: u32,
}

impl RtoEstimator {
    /// An estimator that never returns less than `floor_ns` and, until
    /// its first sample, assumes a round trip of `no_load_rtt_ns`.
    pub fn new(floor_ns: u64, no_load_rtt_ns: u64) -> Self {
        RtoEstimator {
            floor: floor_ns,
            initial: no_load_rtt_ns.saturating_mul(3),
            smoothed: None,
            backoff: 0,
        }
    }

    /// The smoothed round trip, once there has been a sample.
    pub fn srtt_ns(&self) -> Option<u64> {
        self.smoothed.map(|(srtt, _)| srtt)
    }

    /// The timeout before any backoff.
    pub fn rto_ns(&self) -> u64 {
        let rto = match self.smoothed {
            Some((srtt, rttvar)) => srtt.saturating_add(rttvar.saturating_mul(4)),
            None => self.initial,
        };
        rto.max(self.floor)
    }

    /// The backoff a new fault's first timer starts with.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The timeout of a request sent at `backoff` doublings (clamped to
    /// [`MAX_BACKOFF`]).
    pub fn timeout_ns(&self, backoff: u32) -> u64 {
        self.rto_ns().saturating_mul(1 << backoff.min(MAX_BACKOFF))
    }

    /// A fault was satisfied by its first request after `rtt_ns`.
    pub fn sample(&mut self, rtt_ns: u64) {
        self.smoothed = Some(match self.smoothed {
            None => (rtt_ns, rtt_ns / 2),
            Some((srtt, rttvar)) => {
                // RFC 6298 order: the deviation is taken against the
                // old mean.
                let dev = rtt_ns.abs_diff(srtt);
                (step(srtt, rtt_ns, 8), step(rttvar, dev, 4))
            }
        });
        self.backoff = 0;
    }

    /// A fault was satisfied after retransmitting up to `backoff`
    /// doublings: no sample, and the next fault starts there.
    pub fn retransmitted(&mut self, backoff: u32) {
        self.backoff = backoff.min(MAX_BACKOFF);
    }
}

/// `from + (to - from) / div`, in unsigned arithmetic.
fn step(from: u64, to: u64, div: u64) -> u64 {
    if to >= from {
        from + (to - from) / div
    } else {
        from - (from - to) / div
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn before_any_sample_three_no_load_round_trips() {
        let e = RtoEstimator::new(20 * MS, 29 * MS);
        assert_eq!(e.srtt_ns(), None);
        assert_eq!(e.rto_ns(), 87 * MS);
        // The floor wins over a cost model that implies less.
        assert_eq!(RtoEstimator::new(20 * MS, MS).rto_ns(), 20 * MS);
    }

    #[test]
    fn first_sample_gives_three_r() {
        let mut e = RtoEstimator::new(MS, 29 * MS);
        e.sample(30 * MS);
        assert_eq!(e.srtt_ns(), Some(30 * MS));
        assert_eq!(e.rto_ns(), 90 * MS);
    }

    #[test]
    fn converges_on_a_constant_round_trip() {
        // (7/8)^16 < 1/8: sixteen samples close an initial error of a
        // whole round trip to within an eighth of one, from either side.
        let r = 35 * MS;
        for first in [2 * r, 0] {
            let mut e = RtoEstimator::new(MS, 200 * MS);
            e.sample(first);
            for _ in 0..16 {
                e.sample(r);
            }
            let srtt = e.srtt_ns().expect("sampled");
            assert!(srtt.abs_diff(r) <= r / 8, "srtt {srtt} from {first}");
            // The deviation term decays with it.
            assert!(e.rto_ns() >= srtt && e.rto_ns() <= 3 * r, "{}", e.rto_ns());
        }
    }

    #[test]
    fn each_unanswered_request_doubles_up_to_sixteen() {
        let e = RtoEstimator::new(20 * MS, 10 * MS);
        let rto = e.rto_ns();
        let timeouts: Vec<u64> = (0..7).map(|b| e.timeout_ns(b) / rto).collect();
        assert_eq!(timeouts, [1, 2, 4, 8, 16, 16, 16]);
    }

    #[test]
    fn karn_retransmitted_fault_gives_no_sample_and_keeps_its_backoff() {
        let mut e = RtoEstimator::new(MS, 29 * MS);
        e.sample(30 * MS);
        let before = e.clone();
        e.retransmitted(2);
        assert_eq!(e.srtt_ns(), before.srtt_ns());
        assert_eq!(e.rto_ns(), before.rto_ns());
        // The next fault starts where that one ended...
        assert_eq!(e.backoff(), 2);
        assert_eq!(e.timeout_ns(e.backoff()), 4 * before.rto_ns());
        // ...until a clean sample clears it.
        e.sample(30 * MS);
        assert_eq!(e.backoff(), 0);
        e.retransmitted(9);
        assert_eq!(e.backoff(), MAX_BACKOFF);
    }

    proptest! {
        /// Whatever is fed in, a timeout is never below the floor and
        /// never above sixteen times the un-backed-off value.
        #[test]
        fn prop_timeout_within_floor_and_cap(
            floor in 0u64..50 * MS,
            no_load in 0u64..500 * MS,
            steps in proptest::collection::vec((0u64..10_000 * MS, 0u32..12), 0..64),
            ask in 0u32..40,
        ) {
            let mut e = RtoEstimator::new(floor, no_load);
            for (rtt, backoff) in steps {
                if backoff == 0 {
                    e.sample(rtt);
                } else {
                    e.retransmitted(backoff);
                }
                let rto = e.rto_ns();
                prop_assert!(rto >= floor);
                prop_assert!(e.backoff() <= MAX_BACKOFF);
                for b in [e.backoff(), ask] {
                    let t = e.timeout_ns(b);
                    prop_assert!(t >= rto && t <= rto.saturating_mul(16));
                }
            }
        }
    }
}
