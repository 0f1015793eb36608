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
//! # One fault's timer
//!
//! Each request-bearing fault carries a [`FaultTimer`]: when its last
//! request went out, the doublings it has reached and whether it has
//! re-sent. The rules, the same in the simulator and the threaded
//! runtime:
//!
//! * a fault's first request ([`RtoEstimator::request_sent`] with no
//!   earlier timer) starts at the host's retained backoff;
//! * each re-send adds one doubling, up to 16 × the timeout, so a
//!   partition is re-probed in bounded time once it heals;
//! * the timer falls due ([`RtoEstimator::due_ns`]) one timeout after
//!   the last send, doubled per its backoff if the caller's faults
//!   double. Writes and every open-loop fault of the simulator double;
//!   a process read in the simulator and a read in the runtime stay at
//!   one timeout: with reads doubling too, lossy soak seed 7834 ran out
//!   its 4.4 s budget, at one timeout it finishes in 0.87 s;
//! * **Karn's rule** ([`RtoEstimator::answered`]): a fault answered by
//!   its first request is a round-trip sample and clears the retained
//!   backoff; a fault that re-sent gives no sample (its reply cannot be
//!   matched to one of its requests), and the backoff it reached is
//!   kept as the starting point of the host's next fault until a clean
//!   sample clears it. Without the retention, a round trip that jumps
//!   above the timeout is never sampled again and the estimate sticks
//!   low.
//!
//! A simulated process's data wait sends nothing, yet nothing else
//! would wake it if the waking broadcast is lost: it borrows a timer
//! of one timeout, whose firing escalates the read to a demand fetch.
//! The borrowed timer is never answered, so it is neither a sample nor
//! a re-send. The runtime's data wait takes no timer at all: as the
//! paper defines it, it ends when a broadcast brings the page.
//!
//! No time type and no I/O: the simulator feeds it sim-time
//! nanoseconds, a threaded runtime wall-clock ones since an instant of
//! its own.

/// Most doublings one fault's timer takes (a 16 × cap).
const MAX_BACKOFF: u32 = 4;

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

/// The retransmission timer of one outstanding fault (see the module
/// docs, "One fault's timer"). 16 bytes: both engines keep one per
/// blocked waiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTimer {
    /// When the fault's latest request went out, in the embedder's
    /// nanoseconds.
    sent_ns: u64,
    /// Doublings so far: the host's retained backoff plus one per
    /// re-send.
    backoff: u32,
    /// The request has gone out more than once.
    resent: bool,
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
    /// the 16 × cap).
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

    /// The timer of a fault whose request goes out at `now_ns`: its
    /// first if `last` is `None`, starting at the retained backoff;
    /// else a re-send of the fault `last` timed, one doubling up.
    pub fn request_sent(&self, last: Option<FaultTimer>, now_ns: u64) -> FaultTimer {
        let (backoff, resent) = match last {
            Some(t) => ((t.backoff + 1).min(MAX_BACKOFF), true),
            None => (self.backoff, false),
        };
        FaultTimer {
            sent_ns: now_ns,
            backoff,
            resent,
        }
    }

    /// When `timer` falls due: one timeout after its last send, doubled
    /// per its backoff if the caller's faults double.
    pub fn due_ns(&self, timer: FaultTimer, doubles: bool) -> u64 {
        let backoff = if doubles { timer.backoff } else { 0 };
        timer.sent_ns.saturating_add(self.timeout_ns(backoff))
    }

    /// `timer`'s fault was answered at `now_ns`. Sent once, it is a
    /// round-trip sample and `None` is returned; re-sent, it gives none,
    /// its backoff carries to the host's next fault (Karn's rule), and
    /// the time since its last send is returned.
    pub fn answered(&mut self, timer: FaultTimer, now_ns: u64) -> Option<u64> {
        let since = now_ns.saturating_sub(timer.sent_ns);
        if timer.resent {
            self.retransmitted(timer.backoff);
            Some(since)
        } else {
            self.sample(since);
            None
        }
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

    /// One fault's timer from its first send to its answer, then the
    /// next fault's.
    #[test]
    fn one_fault_timer_from_first_send_to_answer() {
        assert_eq!(std::mem::size_of::<FaultTimer>(), 16);
        let mut e = RtoEstimator::new(20 * MS, 10 * MS);
        e.retransmitted(1);
        let rto = e.rto_ns();

        // The first send starts at the retained backoff.
        let first = e.request_sent(None, 100 * MS);
        assert_eq!(e.due_ns(first, true), 100 * MS + 2 * rto);
        assert_eq!(e.due_ns(first, false), 100 * MS + rto);

        // A read's re-sends stay due at one timeout; a write's double
        // up to the 16 × cap.
        let mut t = first;
        let mut due = Vec::new();
        for i in 1..=5 {
            t = e.request_sent(Some(t), i * 1000 * MS);
            assert_eq!(e.due_ns(t, false) - i * 1000 * MS, rto);
            due.push((e.due_ns(t, true) - i * 1000 * MS) / rto);
        }
        assert_eq!(due, [4, 8, 16, 16, 16]);

        // Answered after a re-send: no sample, the backoff kept.
        assert_eq!(e.answered(t, 5000 * MS + 3 * MS), Some(3 * MS));
        assert_eq!(e.srtt_ns(), None);
        assert_eq!(e.backoff(), MAX_BACKOFF);

        // The next fault starts there; its first request's answer is a
        // sample and clears the backoff.
        let next = e.request_sent(None, 6000 * MS);
        assert_eq!(e.due_ns(next, true), 6000 * MS + 16 * rto);
        assert_eq!(e.answered(next, 6000 * MS + 30 * MS), None);
        assert_eq!(e.srtt_ns(), Some(30 * MS));
        assert_eq!(e.backoff(), 0);
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
