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
//! Every deployment runs one of two profiles. [`Calib::sun3_sunos4`] is
//! the paper's: its raw protocols have no timers and no
//! acknowledgements, and every figure and ablation runs it
//! ([`Calib::kernel_server`] is its cost variant). [`Calib::hardened`]
//! keeps the same costs and adds the liveness mechanisms every other
//! deployment runs: the fault retransmission timer with its read
//! leases, the NIC filter, and serve-time piggybacking. There is no
//! third mix.
//!
//! The reproduction targets the *shape* of the paper's tables (orderings,
//! ratios, who degenerates), not absolute equality; `repro baseline`
//! (`crates/bench/src/bin/repro.rs`) prints what the default
//! calibration, [`Calib::sun3_sunos4`], yields for the paper's §4
//! baseline measurements beside the paper's own values.

use mether_net::SimDuration;

/// Host-side cost model for the simulator, in one of two profiles:
/// [`Calib::sun3_sunos4`] (the paper's) or [`Calib::hardened`].
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Whether this is [`Calib::hardened`]'s profile rather than the
    /// paper's. Set only by that constructor.
    pub(crate) hardened: bool,
}

impl Calib {
    /// The paper's profile: the Sun-3/50 + SunOS 4.0 model every paper
    /// reproduction uses, with no retransmission timer, no NIC filter
    /// and no serve-time piggybacking.
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
            hardened: false,
        }
    }

    /// The hardened profile: the paper's costs, plus the three liveness
    /// mechanisms every deployment outside the paper's figures runs.
    /// The paper's raw protocols have no timers and no
    /// acknowledgements, so [`Calib::sun3_sunos4`] keeps all three off.
    ///
    /// * **Fault retransmission.** A waiter blocked on a
    ///   request-bearing fault (demand or consistent fetch) for one
    ///   retransmission timeout abandons the wait
    ///   (`PageTable::cancel_wait`) and re-issues the faulting access,
    ///   which re-sends the request — the recovery path that lets a
    ///   workload ride through a lost reply, a partitioned fabric, or a
    ///   request that reached its holder after the page had moved on.
    ///   The timeout is never under 20 ms
    ///   (`mether_core::rto::RETRY_FLOOR_NS`), but it is not a
    ///   constant: each host measures its own
    ///   (`mether_core::rto`), the smoothed round trip of the faults its
    ///   first request satisfied plus four mean deviations, and before
    ///   any sample three times the no-load round trip. A write fault's
    ///   timer (and an open-loop fault's) doubles per unanswered request
    ///   up to 16 ×; a process read's stays at one timeout. A constant
    ///   cannot do this job: an uncontended short-page fault on this calibration takes
    ///   1 + 7 + 13 + 8 = 29 ms of trap and server legs before wire and
    ///   queueing, so a fixed 20 ms re-sends every request at least
    ///   once on an idle network — costing the requester a second 7 ms
    ///   send just as the reply lands, the fabric a second crossing, and
    ///   the holder a second serve — and under load the duplicates feed
    ///   the queue that delayed the reply.
    /// * **Read leases.** The same timeout is the processes' read lease:
    ///   a process that has read an unchanged, non-consistent copy for
    ///   longer than one timeout drops it and asks the holder again
    ///   (Gray & Cheriton, "Leases", SOSP 1989). A reader spinning on a
    ///   present stale copy sends nothing and never blocks, so without
    ///   the lease a lost waking broadcast strands it for good.
    /// * **The NIC filter.** The host's network interface asks
    ///   [`mether_core::PageTable::admit`] about every frame the host
    ///   hears, before any server time is charged or any burst queued,
    ///   and drops what it does not keep: by reason in
    ///   `HostSim::frames_filtered`, duplicates of a queued request in
    ///   `HostSim::requests_coalesced`. The paper's servers received
    ///   every UDP broadcast and processed each datagram individually,
    ///   and its host-load figures (and protocol 3's measured divergence
    ///   on the counting benchmark) include that load.
    /// * **Serve-time piggybacking.** When the server answers a
    ///   `PageRequest` with a `PageReply`, the queued requests for the
    ///   same page that the reply also satisfies are dropped from the
    ///   server queue and counted (`HostSim::requests_piggybacked`). The
    ///   NIC drops duplicates only at enqueue time; under load,
    ///   identical requests keep landing during the 13–46 ms serve
    ///   burst *after* the served request was popped, and each would
    ///   otherwise cost a full `server_handle_request` plus per-KB reply
    ///   build for a page the snoopers just installed. The same pass
    ///   re-sends what a consistency transfer strands: when the reply
    ///   grants the page to one host, every queued `Want::Consistent`
    ///   request for it from another host goes back on the wire as it
    ///   stands (a send leg instead of a snoop), and the bridges carry
    ///   it along the holder beliefs the grant just repointed — instead
    ///   of its requester waiting out a retransmission timeout.
    pub fn hardened() -> Self {
        Calib {
            hardened: true,
            ..Self::sun3_sunos4()
        }
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
    pub(crate) fn reply_cost(&self, bytes: usize) -> SimDuration {
        self.server_handle_request
            + SimDuration::from_nanos(self.server_install_per_kb.as_nanos() * (bytes as u64) / 1024)
    }

    /// Install cost for a transfer of `bytes`.
    pub(crate) fn install_cost(&self, bytes: usize) -> SimDuration {
        self.server_install_base
            + SimDuration::from_nanos(self.server_install_per_kb.as_nanos() * (bytes as u64) / 1024)
    }

    /// What an uncontended demand fault moving `bytes` costs before
    /// wire time: the kernel trap, the requester's server sending the
    /// request, the holder's server answering it, the requester's
    /// server installing the reply. The retransmission timer's guess
    /// at a round trip until it has measured one.
    pub(crate) fn no_load_round_trip(&self, bytes: usize) -> SimDuration {
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
    use mether_core::rto::RETRY_FLOOR_NS;

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
        // 1 + 7 + 13 + 8 ms of legs plus two 32-byte copies: the
        // hardened profile's 20 ms floor is below it, which is why the
        // floor cannot be the timeout.
        let rtt = Calib::hardened().no_load_round_trip(32);
        assert_eq!(rtt, SimDuration::from_nanos(29_262_500));
        assert!(SimDuration::from_nanos(RETRY_FLOOR_NS) < rtt);
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
