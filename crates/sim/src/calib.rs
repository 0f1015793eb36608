//! Calibration constants for the simulated Sun-3/50 running SunOS 4.0.
//!
//! The paper's absolute numbers come from a specific, long-gone platform:
//! Sun 3/50 workstations (a ~1.5 MIPS 68020), SunOS 4.0 (which the paper
//! notes was "constantly paging"), a user-level Mether server doing UDP
//! broadcast I/O, and a 10 Mbit/s Ethernet. This module collects every
//! host-side cost the discrete-event model charges, with the paper
//! evidence for each default:
//!
//! * "a single processor iteration takes approximately 50 microseconds per
//!   increment, including overhead" → [`Calib::spin_iteration`];
//! * "context switch, which is hard to measure but as a rule of thumb
//!   takes a few milliseconds" → [`Calib::ctx_switch`];
//! * two processes on one machine took 81 s wall for 1024 increments
//!   (≈ 79 ms per increment) — the time for the scheduler to rotate away
//!   from a spinning process → [`Calib::quantum`];
//! * "the client may be pre-empting the user level server and thus
//!   preventing itself from getting the newest version of a page" — a
//!   ready server does *not* preempt instantly; SunOS priority aging lets
//!   it in after roughly [`Calib::server_patience`];
//! * the server legs (decode a UDP datagram, mmap/copy a page, write a
//!   datagram) cost milliseconds each on this hardware
//!   → the `server_*` fields.
//!
//! The reproduction targets the *shape* of the paper's tables (orderings,
//! ratios, who degenerates), not absolute equality; `repro baseline`
//! (`crates/bench/src/bin/repro.rs`) prints what the default
//! calibration, [`Calib::sun3_sunos4`], yields for the paper's §4
//! baseline measurements beside the paper's own values.

use mether_net::SimDuration;
use serde::{Deserialize, Serialize};

/// Host-side cost model for the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Calib {
    /// One iteration of a user-level spin loop (load, compare, branch,
    /// loop overhead) — the paper's 50 µs per increment including
    /// overhead.
    pub spin_iteration: SimDuration,
    /// Charged (to user time) for a DSM access that hits a present page:
    /// an ordinary memory reference plus protocol bookkeeping.
    pub mem_ref: SimDuration,
    /// A context switch, including its share of SunOS 4.0's paging noise.
    pub ctx_switch: SimDuration,
    /// Round-robin quantum between equal-priority compute-bound
    /// processes. Sets the pace of the two-processes-one-host baseline.
    pub quantum: SimDuration,
    /// How long a runnable server waits while an application spins before
    /// priority aging gets it the CPU.
    pub server_patience: SimDuration,
    /// Kernel entry for a faulting access, PURGE, or lock (charged to
    /// system time).
    pub fault_trap: SimDuration,
    /// Server cost to build and send a request datagram.
    pub server_send_request: SimDuration,
    /// Server cost to handle a request it must answer (lookup + build
    /// reply), excluding the per-byte copy; wire time is charged
    /// separately by the network model.
    pub server_handle_request: SimDuration,
    /// Server cost to install a received page, excluding the per-byte
    /// copy.
    pub server_install_base: SimDuration,
    /// Additional cost per kilobyte moved through the server, charged on
    /// both the install and the reply-building paths. This models the
    /// SunOS 4.0 UDP stack on a Sun-3/50: an 8 KB broadcast datagram is
    /// six IP fragments, each allocated, copied, and reassembled —
    /// tens of milliseconds end to end, which is what makes the paper's
    /// full-page protocol 1 so slow (120 ms average fault latency).
    pub server_install_per_kb: SimDuration,
    /// Server cost to broadcast a page for a pending PURGE and issue
    /// DO-PURGE.
    pub server_purge_broadcast: SimDuration,
    /// Server cost to inspect and discard a snooped packet it does not
    /// care about.
    pub server_snoop: SimDuration,
    /// Fault retransmission: a waiter blocked on a request-bearing
    /// fault (demand or consistent fetch) for one retransmission
    /// timeout abandons the wait (`PageTable::cancel_wait`) and
    /// re-issues the faulting access, which re-sends the request — the
    /// recovery path that lets a workload ride through a lost reply, a
    /// partitioned fabric, or a request that reached its holder after
    /// the page had moved on. `None` (the default, and the paper's
    /// behaviour: the raw protocols have no retransmit timer) blocks
    /// forever; the fault-tolerance and open-loop experiments enable
    /// it.
    ///
    /// `Some(floor)` turns the timer on; the value is the *least* the
    /// timeout may be, not the timeout. Each host measures its own
    /// (`mether_core::rto`): the smoothed round trip of the faults its
    /// first request satisfied plus four mean deviations, doubled per
    /// unanswered request of one fault up to 16 ×, and before any
    /// sample three times [`Calib::no_load_round_trip`]. A constant
    /// cannot do this job: an uncontended short-page fault on this
    /// calibration takes 1 + 7 + 13 + 8 = 29 ms of trap and server legs
    /// before wire and queueing, so a fixed 20 ms re-sends every
    /// request at least once on an idle network — costing the requester
    /// a second 7 ms send just as the reply lands, the fabric a second
    /// crossing, and the holder a second serve — and under load the
    /// duplicates feed the queue that delayed the reply.
    pub fault_retry: Option<SimDuration>,
    /// NIC-level request coalescing: an arriving `PageRequest` identical
    /// to one already queued for the server is dropped and counted,
    /// since the queued request's broadcast reply satisfies every
    /// snooper a duplicate could (consistency transfers are directed,
    /// so those coalesce per requesting host only). `false` is the
    /// paper's behaviour — its servers process every datagram
    /// individually, and protocol 3's measured divergence on the
    /// counting benchmark depends on that duplicated server load.
    /// Deployments with retry timers enable it: clients retrying faster
    /// than the ~13 ms per-request serve cost otherwise grow the server
    /// queue without bound.
    pub coalesce_requests: bool,
    /// Periodic holder re-broadcast: every `interval`, a host re-sends
    /// the `PageData` broadcast for each page whose consistent copy it
    /// still holds, at the page's *current* generation (no consistency
    /// state changes). `None` (the default, and the paper's behaviour —
    /// no retransmit of any kind) sends nothing. This is the recovery
    /// path for the hot-spin loss livelock: a data-driven reader
    /// spinning on a *present* stale copy transmits nothing and never
    /// blocks, so the fault-retry escalation cannot reach it and a lost
    /// waking broadcast strands it forever; the periodic re-broadcast
    /// eventually gets a fresh copy through.
    pub holder_rebroadcast: Option<SimDuration>,
    /// Serve-time reply piggybacking: when the server answers a
    /// `PageRequest` with a `PageData` reply, any *queued* requests for
    /// the same page that the reply also satisfies are dropped from the
    /// server queue and counted. This complements NIC-level coalescing
    /// ([`Calib::coalesce_requests`]), which only drops duplicates at
    /// enqueue time: under open-loop arrivals, identical requests keep
    /// landing during the 13–46 ms serve burst *after* the served
    /// request was already popped, and each such straggler would
    /// otherwise cost a full `server_handle_request` + per-KB reply
    /// build for a page the snoopers just installed. `false` is the
    /// paper's behaviour (every datagram is processed individually).
    pub piggyback_replies: bool,
}

impl Calib {
    /// The Sun-3/50 + SunOS 4.0 model used for all paper reproductions.
    pub fn sun3_sunos4() -> Self {
        Calib {
            spin_iteration: SimDuration::from_micros(48),
            mem_ref: SimDuration::from_micros(2),
            ctx_switch: SimDuration::from_millis(3),
            quantum: SimDuration::from_millis(72),
            server_patience: SimDuration::from_millis(22),
            fault_trap: SimDuration::from_millis(1),
            server_send_request: SimDuration::from_millis(7),
            server_handle_request: SimDuration::from_millis(13),
            server_install_base: SimDuration::from_millis(8),
            server_install_per_kb: SimDuration::from_micros(4200),
            server_purge_broadcast: SimDuration::from_millis(10),
            server_snoop: SimDuration::from_millis(2),
            fault_retry: None,
            coalesce_requests: false,
            holder_rebroadcast: None,
            piggyback_replies: false,
        }
    }

    /// Enables the fault retransmission timer, never shorter than
    /// `floor` (see [`Calib::fault_retry`]).
    #[must_use]
    pub fn with_fault_retry(mut self, floor: SimDuration) -> Self {
        self.fault_retry = Some(floor);
        self
    }

    /// Enables NIC-level request coalescing (see
    /// [`Calib::coalesce_requests`]).
    #[must_use]
    pub fn with_request_coalescing(mut self) -> Self {
        self.coalesce_requests = true;
        self
    }

    /// Enables serve-time reply piggybacking (see
    /// [`Calib::piggyback_replies`]).
    #[must_use]
    pub fn with_reply_piggyback(mut self) -> Self {
        self.piggyback_replies = true;
        self
    }

    /// Enables periodic holder re-broadcast (see
    /// [`Calib::holder_rebroadcast`]).
    #[must_use]
    pub fn with_holder_rebroadcast(mut self, interval: SimDuration) -> Self {
        self.holder_rebroadcast = Some(interval);
        self
    }

    /// An idealised kernel-resident server (the paper's proposed future
    /// work: "a migration of the user level server code to the kernel").
    /// Server legs shrink and the patience penalty disappears, removing
    /// the context-switch bottleneck the paper identifies.
    pub fn kernel_server() -> Self {
        let mut c = Self::sun3_sunos4();
        c.server_patience = SimDuration::from_micros(200);
        c.server_send_request = SimDuration::from_micros(800);
        c.server_handle_request = SimDuration::from_millis(2);
        c.server_install_base = SimDuration::from_millis(1);
        c.server_purge_broadcast = SimDuration::from_millis(2);
        c.server_snoop = SimDuration::from_micros(300);
        c.server_install_per_kb = SimDuration::from_micros(400);
        c
    }

    /// Cost for the server to answer a request with a reply of `bytes`
    /// (lookup + datagram build + per-byte copy).
    pub fn reply_cost(&self, bytes: usize) -> SimDuration {
        self.server_handle_request
            + SimDuration::from_nanos(self.server_install_per_kb.as_nanos() * (bytes as u64) / 1024)
    }

    /// Install cost for a transfer of `bytes`.
    pub fn install_cost(&self, bytes: usize) -> SimDuration {
        self.server_install_base
            + SimDuration::from_nanos(self.server_install_per_kb.as_nanos() * (bytes as u64) / 1024)
    }

    /// What an uncontended demand fault moving `bytes` costs before
    /// wire time: the kernel trap, the requester's server sending the
    /// request, the holder's server answering it, the requester's
    /// server installing the reply. The retransmission timer's guess
    /// at a round trip until it has measured one.
    pub fn no_load_round_trip(&self, bytes: usize) -> SimDuration {
        self.fault_trap
            + self.server_send_request
            + self.reply_cost(bytes)
            + self.install_cost(bytes)
    }
}

impl Default for Calib {
    fn default() -> Self {
        Self::sun3_sunos4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_baseline_arithmetic() {
        // 1024 iterations of (spin + mem ref) ≈ the paper's ~50 ms single
        // process run.
        let c = Calib::sun3_sunos4();
        let per_iter = c.spin_iteration + c.mem_ref;
        let total_ms = per_iter.as_millis_f64() * 1024.0;
        assert!((40.0..65.0).contains(&total_ms), "{total_ms} ms");
    }

    #[test]
    fn quantum_dominates_two_process_baseline() {
        // 1024 quantum rotations ≈ the paper's 81 s.
        let c = Calib::sun3_sunos4();
        let total_s = (c.quantum + c.ctx_switch).as_secs_f64() * 1024.0;
        assert!((60.0..100.0).contains(&total_s), "{total_s} s");
    }

    #[test]
    fn install_cost_scales_with_size() {
        let c = Calib::sun3_sunos4();
        let short = c.install_cost(32);
        let full = c.install_cost(8192);
        assert!(full > short);
        // Full page adds 8 KB × 4.2 ms/KB ≈ 33.5 ms over the base.
        let extra_ms = full.as_millis_f64() - short.as_millis_f64();
        assert!((33.0..35.0).contains(&extra_ms), "{extra_ms} ms");
    }

    #[test]
    fn no_load_round_trip_is_above_the_retry_floors_in_use() {
        // 1 + 7 + 13 + 8 ms of legs plus two 32-byte copies: every
        // deployment's 20 ms floor is below it, which is why the floor
        // cannot be the timeout.
        let rtt = Calib::sun3_sunos4().no_load_round_trip(32);
        assert_eq!(rtt, SimDuration::from_nanos(29_262_500));
        assert!(Calib::kernel_server().no_load_round_trip(32) < rtt);
    }

    #[test]
    fn kernel_server_is_cheaper_everywhere() {
        let u = Calib::sun3_sunos4();
        let k = Calib::kernel_server();
        assert!(k.server_patience < u.server_patience);
        assert!(k.server_handle_request < u.server_handle_request);
        assert!(k.server_send_request < u.server_send_request);
        assert!(k.server_install_base < u.server_install_base);
    }
}
