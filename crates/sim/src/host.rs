//! One simulated workstation: CPU, scheduler, kernel driver, user-level
//! Mether server, and application processes.
//!
//! The host model deliberately reproduces the *dynamics* the paper blames
//! for its numbers:
//!
//! * one CPU, round-robin scheduled with a quantum
//!   ([`crate::Calib::quantum`]) — a spinning process starves everyone
//!   else until the quantum expires;
//! * the Mether server is an ordinary user process: when an application
//!   spins, a runnable server waits [`crate::Calib::server_patience`]
//!   before SunOS priority aging lets it preempt ("the client may be
//!   pre-empting the user level server and thus preventing itself from
//!   getting the newest version of a page");
//! * every context switch costs real time and is counted — the paper's
//!   "context switches per addition" metric;
//! * all network I/O (requests, installs, purge broadcasts, snooping) is
//!   the server's work, queued and charged per item.
//!
//! Three things here are not the paper's, and the hardened profile
//! ([`crate::Calib::hardened`]) turns on all three; the paper's
//! ([`crate::Calib::sun3_sunos4`]) turns on none. First, the NIC keeps
//! from the server what [`mether_core::PageTable::admit`] drops,
//! counted by reason in [`HostSim::frames_filtered`] and
//! [`HostSim::requests_coalesced`]. The paper's server received every
//! broadcast and paid to inspect each one.
//!
//! Second, the server settles its queue each time it answers a
//! request: queued requests the reply satisfied are dropped
//! ([`HostSim::requests_piggybacked`]), and if the reply granted the
//! page to one host, the consistent requests queued from other hosts
//! are re-sent toward it rather than snooped by a host that no longer
//! holds ([`HostSim::requests_forwarded`]). Without that re-send nobody
//! answers them and each waits out a timeout.
//!
//! Third, a fault whose reply does not come is re-sent. The timeout is
//! measured, not configured: every host keeps one
//! [`mether_core::RtoEstimator`], and each blocked fault a
//! [`mether_core::FaultTimer`] from it, armed in `arm_retry`. The
//! per-fault rules, among them which faults double and how a data wait
//! borrows the timer, are stated once in [`mether_core::rto`]. What the
//! timer did is counted beside the other serving counters:
//! [`HostSim::fault_retransmits`],
//! [`HostSim::spurious_retransmits`]. The same timeout is each
//! process's read lease: a process that keeps reading an unchanged,
//! non-consistent copy for longer than one timeout drops it and
//! demand-fetches the page again (`lease_expired`).
//!
//! The CPU executes *bursts*: a compute slice, a memory/trap cost for a
//! DSM operation, one server work item, or a context switch. The
//! simulation schedules one `BurstEnd` event per host at a time (one
//! that is strictly the next event runs without entering the event
//! heap; see `sim/par.rs`). What
//! each server item was, and the time it took, is tallied by
//! [`ServerKind`] in [`HostSim::server_work`].

use crate::calib::Calib;
use crate::hist::LatencyHistogram;
use crate::process::{DsmOp, OpResult, Step, StepCtx, Workload, WorkloadCounters};
use mether_core::rto::RETRY_FLOOR_NS;
use mether_core::table::WaiterId;
use mether_core::{
    AccessOutcome, Admit, DriveMode, Effect, FaultKind, FaultTimer, Generation, MapMode,
    MetherConfig, NicDrop, Packet, PageId, PageLength, PageTable, RtoEstimator, View, Want,
};
use mether_net::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Base of the waiter-id namespace used by the open-loop driver. Process
/// waiters are process indices (small); open-loop waiters are
/// `OPEN_WAITER_BASE + issue-sequence`, so the two can share the page
/// table's wait lists without colliding.
const OPEN_WAITER_BASE: WaiterId = 1 << 32;

/// One access injected by the open-loop traffic driver: issued at `at`
/// regardless of what the host is doing (open-loop arrivals do not wait
/// for earlier accesses to complete — that is the point).
#[derive(Debug, Clone)]
pub struct OpenAccess {
    /// Arrival time of the access.
    pub at: SimTime,
    /// Target page.
    pub page: PageId,
    /// View (length + drive mode) of the access.
    pub view: View,
    /// Read or write.
    pub mode: MapMode,
    /// Cold accesses drop any stale local copy first, so a read misses
    /// and exercises the demand-fetch path even after warmup. Without
    /// this, a pure read stream goes all-hits once copies are installed
    /// and the home servers sit idle.
    pub cold: bool,
}

/// A deterministic source of open-loop arrivals for one host. The next
/// access's `at` must be non-decreasing; the stream ends with `None`.
pub trait ArrivalStream: Send {
    /// Produces the next access, or `None` when the stream is exhausted.
    fn next_access(&mut self) -> Option<OpenAccess>;
}

/// Open-loop driver state on one host: the arrival stream, the buffered
/// next arrival (so the simulation can schedule its event), outstanding
/// faults stamped at issue, and the latency histogram filled at
/// satisfaction.
struct OpenLoop {
    stream: Box<dyn ArrivalStream>,
    next: Option<OpenAccess>,
    hist: LatencyHistogram,
    outstanding: Vec<OpenWait>,
    issued: u64,
    hits: u64,
    faults: u64,
}

/// One outstanding open-loop fault: enough to re-issue the access when
/// its retransmission timer fires (an unanswered request — a holder that
/// handed consistency off mid-flight, a reply lost to the wire — would
/// otherwise strand the waiter forever, exactly the hazard
/// the retransmission timer exists for on the process side).
struct OpenWait {
    waiter: WaiterId,
    issued_at: SimTime,
    page: PageId,
    view: View,
    mode: MapMode,
    /// `None` under the paper's profile, which has no timer.
    retry: Option<FaultTimer>,
}

/// Scheduler state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable, waiting for the CPU.
    Ready,
    /// Blocked on a DSM operation.
    Blocked,
    /// In a timed kernel sleep.
    Sleeping,
    /// Exited.
    Done,
}

/// Per-process accounting the simulation reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcTimes {
    /// CPU time in user mode (compute, spin loops, memory references).
    pub user: SimDuration,
    /// CPU time in system mode (traps, purges, lock calls).
    pub sys: SimDuration,
}

struct Proc {
    workload: Box<dyn Workload>,
    state: ProcState,
    counters: WorkloadCounters,
    times: ProcTimes,
    last: OpResult,
    /// Operation to retry when woken (faulting instruction restart).
    pending_op: Option<DsmOp>,
    blocked_at: SimTime,
    blocked_kind: Option<FaultKind>,
    /// Bumped every time the process blocks; retry timers carry the
    /// epoch they were armed at, so a timer from an earlier block never
    /// fires against a later one.
    block_epoch: u64,
    /// Retransmission timer of the request-bearing fault the process is
    /// blocked on, kept across the re-blocks of one fault; `None`
    /// between faults, during a data wait and without the timer.
    retry: Option<FaultTimer>,
    /// The read lease: `(page, generation, since)` of the last read
    /// that hit a non-consistent copy, `since` being the first such
    /// read at that generation. Kept only under [`Calib::hardened`];
    /// see [`HostSim::lease_expired`].
    lease: Option<(PageId, Generation, SimTime)>,
}

/// Work items for the user-level Mether server.
#[derive(Debug, Clone)]
enum ServerWork {
    /// A datagram arrived; snoop/handle it. Shared with every other host
    /// that snooped the same broadcast — queued by reference, not copied.
    Packet(Arc<Packet>),
    /// Transmit a datagram built by the kernel driver (fault requests).
    SendPacket(Packet),
    /// A writeable PURGE is pending: broadcast a read-only copy and issue
    /// DO-PURGE.
    PurgeBroadcast { page: PageId, length: PageLength },
}

/// What one server item turned out to be, for [`HostSim::server_work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// Transmitting a request the kernel driver built.
    Send,
    /// A writeable purge's broadcast and DO-PURGE.
    Purge,
    /// A request this host answered.
    Answer,
    /// A frame the server only inspected and discarded: a request it
    /// does not answer, or a data frame about a page it does not track.
    Snoop,
    /// A data frame installed that woke a waiter.
    Wake,
    /// A data frame installed that woke nobody: a refresh.
    Refresh,
}

impl ServerKind {
    /// Every kind, in [`ServerTally`] order.
    pub const ALL: [ServerKind; 6] = [
        ServerKind::Send,
        ServerKind::Purge,
        ServerKind::Answer,
        ServerKind::Snoop,
        ServerKind::Wake,
        ServerKind::Refresh,
    ];

    /// A short lower-case name, for reports.
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Send => "send",
            ServerKind::Purge => "purge",
            ServerKind::Answer => "answer",
            ServerKind::Snoop => "snoop",
            ServerKind::Wake => "wake",
            ServerKind::Refresh => "refresh",
        }
    }
}

/// Server items and the CPU time they took, per [`ServerKind`]. The
/// times sum to [`HostSim::server_time`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTally {
    items: [u64; ServerKind::ALL.len()],
    time: [SimDuration; ServerKind::ALL.len()],
}

impl ServerTally {
    /// Counts one item of `kind` that took `d`.
    pub fn add(&mut self, kind: ServerKind, d: SimDuration) {
        self.items[kind as usize] += 1;
        self.time[kind as usize] += d;
    }

    /// Adds every count and time of `other` to this tally.
    pub fn merge(&mut self, other: &ServerTally) {
        for kind in ServerKind::ALL {
            self.items[kind as usize] += other.items(kind);
            self.time[kind as usize] += other.time(kind);
        }
    }

    /// Items of `kind` served.
    pub fn items(&self, kind: ServerKind) -> u64 {
        self.items[kind as usize]
    }

    /// Server time items of `kind` took.
    pub fn time(&self, kind: ServerKind) -> SimDuration {
        self.time[kind as usize]
    }
}

/// A request the NIC dropped, shadowed for invariant (g).
struct DroppedRequest {
    /// Its place in the server queue: items queued before it have a
    /// smaller one.
    place: u64,
    pkt: Arc<Packet>,
    heard: SimTime,
}

/// Who the CPU is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    App(usize),
    Server,
}

/// What the current burst is.
enum Burst {
    AppCompute {
        proc: usize,
        d: SimDuration,
    },
    AppOp {
        proc: usize,
        op: DsmOp,
        d: SimDuration,
        sys: bool,
    },
    ServerItem {
        work: ServerWork,
        d: SimDuration,
        kind: ServerKind,
    },
    CtxSwitch {
        to: Slot,
    },
}

/// Things the host asks the simulation to do after a burst.
#[derive(Debug)]
pub(crate) enum HostAction {
    /// Broadcast this packet on the Ethernet.
    Transmit(Packet),
}

/// One simulated workstation.
pub struct HostSim {
    /// Index of this host (also its `HostId`).
    pub index: usize,
    calib: Calib,
    /// The kernel driver state (shared protocol logic).
    pub table: PageTable,
    procs: Vec<Proc>,
    run_queue: VecDeque<usize>,
    /// Work for the server, each item with its place in arrival order:
    /// the value of `server_pushed` when it was queued.
    server_queue: VecDeque<(u64, ServerWork)>,
    /// Items ever queued for the server.
    server_pushed: u64,
    /// Invariant (g)'s shadow list: the requests the NIC dropped, each
    /// at the place it would have taken in the server queue, until the
    /// server gets there. `None` unless the observer is on.
    nic_drops: Option<VecDeque<DroppedRequest>>,
    server_ready_since: Option<SimTime>,
    current: Option<Slot>,
    current_burst: Option<Burst>,
    current_started: SimTime,
    last_ran: Option<Slot>,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Completed fault latencies (block → wake), page faults only.
    pub fault_latencies: Vec<SimDuration>,
    /// CPU time consumed by the server (reported as system time).
    pub server_time: SimDuration,
    /// The same time, and the items that took it, by kind of work.
    pub server_work: ServerTally,
    /// Frames this host's NIC snooped off its segment — the per-host
    /// share of network load that segment filtering is meant to shrink.
    /// Counts every frame that reaches the NIC, filtered ones included.
    pub frames_heard: u64,
    /// Peak depth of the server work queue (degeneration diagnostic).
    pub max_server_queue: usize,
    /// Page requests dropped at the NIC because an identical request
    /// was already queued (its broadcast reply satisfies both).
    pub requests_coalesced: u64,
    /// Queued page requests dropped at serve time because the reply
    /// just broadcast for an identical request satisfies them too
    /// ([`Calib::hardened`]).
    pub requests_piggybacked: u64,
    /// Queued `Want::Consistent` requests re-sent at serve time because
    /// the reply just sent granted the page to another host
    /// ([`Calib::hardened`]).
    pub requests_forwarded: u64,
    /// Frames dropped at the NIC ([`Calib::hardened`]), indexed by
    /// `NicDrop as usize` ([`mether_core::PageTable::admit`]). Each would
    /// have cost the server a `server_snoop` to discard, or an install
    /// nobody used.
    pub frames_filtered: [u64; NicDrop::ALL.len()],
    /// Requests re-sent because a fault's retransmission timer fired
    /// before its reply came.
    pub fault_retransmits: u64,
    /// Retransmitted faults satisfied sooner after their last re-send
    /// than an idle holder's serve plus the local install take, so the
    /// reply cannot have been to it: the timer fired on a request that
    /// was still being served.
    pub spurious_retransmits: u64,
    /// The retransmission timer of this host's faults, measured from
    /// its own completed ones; `None` under the paper's profile.
    rto: Option<RtoEstimator>,
    /// The least time from a request leaving to its waiter being woken:
    /// an idle holder's serve plus the local install of a short page.
    reply_floor: SimDuration,
    /// Open-loop driver state, when a stream is attached.
    open: Option<OpenLoop>,
    /// Sleeps requested during dispatch (drained by `finish_burst`).
    pending_sleeps: Vec<(usize, SimTime)>,
    /// Retransmission timers armed when a process or open-loop waiter
    /// blocked on a fault: `(waiter, fire_at, block_epoch)`. Drained by
    /// the simulation into retry events; only armed under
    /// [`Calib::hardened`].
    pending_retries: Vec<(usize, SimTime, u64)>,
    /// A process was just woken: it outranks the server once (SunOS
    /// priority boost for processes returning from a long sleep).
    wake_boost: bool,
}

impl HostSim {
    /// A host with no processes.
    pub fn new(index: usize, calib: Calib, cfg: MetherConfig) -> Self {
        let short = cfg.transfer_len(PageLength::Short);
        let reply_floor = calib.reply_cost(short) + calib.install_cost(short);
        let no_load = calib.no_load_round_trip(short);
        let rto = calib
            .hardened
            .then(|| RtoEstimator::new(RETRY_FLOOR_NS, no_load.as_nanos()));
        HostSim {
            index,
            calib,
            table: PageTable::new(mether_core::HostId(index as u16), cfg),
            procs: Vec::new(),
            run_queue: VecDeque::new(),
            server_queue: VecDeque::new(),
            server_pushed: 0,
            nic_drops: None,
            server_ready_since: None,
            current: None,
            current_burst: None,
            current_started: SimTime::ZERO,
            last_ran: None,
            ctx_switches: 0,
            fault_latencies: Vec::new(),
            server_time: SimDuration::ZERO,
            server_work: ServerTally::default(),
            frames_heard: 0,
            max_server_queue: 0,
            requests_coalesced: 0,
            requests_piggybacked: 0,
            requests_forwarded: 0,
            frames_filtered: [0; NicDrop::ALL.len()],
            fault_retransmits: 0,
            spurious_retransmits: 0,
            rto,
            reply_floor,
            open: None,
            pending_sleeps: Vec::new(),
            pending_retries: Vec::new(),
            wake_boost: false,
        }
    }

    /// Adds an application process; returns its index.
    pub fn add_process(&mut self, workload: Box<dyn Workload>) -> usize {
        let idx = self.procs.len();
        self.procs.push(Proc {
            workload,
            state: ProcState::Ready,
            counters: WorkloadCounters::default(),
            times: ProcTimes::default(),
            last: OpResult::None,
            pending_op: None,
            blocked_at: SimTime::ZERO,
            blocked_kind: None,
            block_epoch: 0,
            retry: None,
            lease: None,
        });
        self.run_queue.push_back(idx);
        idx
    }

    /// Number of processes on this host.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// True when every application process has exited and any attached
    /// open-loop stream is drained with no fault still outstanding.
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|p| p.state == ProcState::Done)
            && self
                .open
                .as_ref()
                .is_none_or(|ol| ol.next.is_none() && ol.outstanding.is_empty())
    }

    /// Attaches an open-loop arrival stream to this host and buffers its
    /// first arrival so the simulation can schedule the injection event.
    pub fn attach_open_loop(&mut self, mut stream: Box<dyn ArrivalStream>) {
        let next = stream.next_access();
        self.open = Some(OpenLoop {
            stream,
            next,
            hist: LatencyHistogram::new(),
            outstanding: Vec::new(),
            issued: 0,
            hits: 0,
            faults: 0,
        });
    }

    /// Arrival time of the next buffered open-loop access, if any.
    pub(crate) fn open_next_at(&self) -> Option<SimTime> {
        self.open
            .as_ref()
            .and_then(|ol| ol.next.as_ref().map(|a| a.at))
    }

    /// Injects the buffered open-loop access at `now`: stamps issue time,
    /// runs it against the page table (a miss blocks an open waiter and
    /// usually queues a request for the server), and buffers the next
    /// arrival from the stream. Returns transmissions exactly like
    /// `finish_burst`.
    pub(crate) fn open_arrival(&mut self, now: SimTime) -> Vec<HostAction> {
        let mut actions = Vec::new();
        let Some(acc) = self.open.as_mut().and_then(|ol| ol.next.take()) else {
            return actions;
        };
        let waiter = {
            let ol = self.open.as_mut().expect("open loop attached");
            let w = OPEN_WAITER_BASE + ol.issued;
            ol.issued += 1;
            w
        };
        if acc.cold && acc.mode == MapMode::ReadOnly {
            // Force the demand path: drop_stale_copy refuses to touch a
            // consistent holder's copy, so this only sheds snooped
            // replicas.
            self.table.drop_stale_copy(acc.page);
        }
        let mut effects = Vec::new();
        match self
            .table
            .access(acc.page, acc.view, acc.mode, waiter, &mut effects)
        {
            Ok(AccessOutcome::Ready) => {
                let ol = self.open.as_mut().expect("attached");
                ol.hits += 1;
            }
            Ok(AccessOutcome::Blocked(_)) => {
                // Open faults arm the same recovery timer as blocked
                // processes: their request's answerer can vanish
                // mid-flight (consistency handed off between request and
                // serve), and no process re-execution would ever re-send.
                let retry = self.arm_retry(waiter as usize, None, now, true, 0);
                let ol = self.open.as_mut().expect("attached");
                ol.faults += 1;
                ol.outstanding.push(OpenWait {
                    waiter,
                    issued_at: now,
                    page: acc.page,
                    view: acc.view,
                    mode: acc.mode,
                    retry,
                });
            }
            Err(e) => panic!("open-loop access bug: {e}"),
        }
        let ol = self.open.as_mut().expect("attached");
        ol.next = ol.stream.next_access();
        self.apply_effects(now, effects, &mut actions);
        actions
    }

    /// The open-loop fault-latency histogram, when a stream is attached.
    pub fn open_hist(&self) -> Option<&LatencyHistogram> {
        self.open.as_ref().map(|ol| &ol.hist)
    }

    /// Open-loop accounting: `(issued, hits, faults)` accesses so far.
    pub fn open_counts(&self) -> (u64, u64, u64) {
        self.open
            .as_ref()
            .map(|ol| (ol.issued, ol.hits, ol.faults))
            .unwrap_or((0, 0, 0))
    }

    /// Counters of process `i`.
    pub fn counters(&self, i: usize) -> &WorkloadCounters {
        &self.procs[i].counters
    }

    /// CPU accounting of process `i`.
    pub fn times(&self, i: usize) -> ProcTimes {
        self.procs[i].times
    }

    /// A packet arrived from the network: queue it for the server.
    /// Returns whether it queued work — a frame the NIC drops changes
    /// nothing the dispatcher reads, so the caller need not kick.
    ///
    /// Under [`Calib::hardened`] the NIC first asks
    /// [`mether_core::PageTable::admit`], against the server's unfinished
    /// frames, and drops what it does not keep at no server cost. Off in
    /// the paper's profile: its servers processed every datagram
    /// individually, and its measured protocol rankings (notably P3's
    /// divergence) include that load.
    pub(crate) fn deliver_packet(&mut self, now: SimTime, pkt: &Arc<Packet>) -> bool {
        self.frames_heard += 1;
        if self.calib.hardened {
            let in_service = match &self.current_burst {
                Some(Burst::ServerItem {
                    work: ServerWork::Packet(q),
                    ..
                }) => Some(q.as_ref()),
                _ => None,
            };
            let queued = self.server_queue.iter().filter_map(|(_, w)| match w {
                ServerWork::Packet(q) => Some(q.as_ref()),
                _ => None,
            });
            match self.table.admit(pkt, in_service, queued) {
                Admit::Keep => {}
                Admit::Coalesced => {
                    self.requests_coalesced += 1;
                    return false;
                }
                Admit::Drop(why) => {
                    self.frames_filtered[why as usize] += 1;
                    self.shadow_nic_drop(now, pkt);
                    return false;
                }
            }
        }
        self.push_server_work(now, ServerWork::Packet(Arc::clone(pkt)));
        true
    }

    /// Turns on invariant (g) for this host: the observer is on.
    pub(crate) fn observe_nic_drops(&mut self) {
        self.nic_drops = Some(VecDeque::new());
    }

    /// The NIC just dropped `pkt`. Under the observer a request is
    /// shadowed at the place it would have taken in the server queue,
    /// and judged at once if nothing is ahead of it.
    fn shadow_nic_drop(&mut self, now: SimTime, pkt: &Arc<Packet>) {
        let Some(drops) = self.nic_drops.as_mut() else {
            return;
        };
        if matches!(**pkt, Packet::PageRequest { .. }) {
            drops.push_back(DroppedRequest {
                place: self.server_pushed,
                pkt: Arc::clone(pkt),
                heard: now,
            });
            self.judge_nic_drops(now);
        }
    }

    /// Invariant (g): every request the NIC dropped is one the server
    /// would not have answered. A drop is judged once the server has
    /// passed its place: every item queued ahead of it is served or
    /// settled, and none is in service. Only a server item makes this
    /// host the holder, or a full copy, so the table is then as the
    /// server would have found the request.
    ///
    /// # Panics
    ///
    /// If the table would answer a dropped request.
    fn judge_nic_drops(&mut self, now: SimTime) {
        let Some(mut drops) = self.nic_drops.take() else {
            return;
        };
        if !matches!(self.current_burst, Some(Burst::ServerItem { .. })) {
            let next = self
                .server_queue
                .front()
                .map_or(u64::MAX, |(place, _)| *place);
            while let Some(dropped) = drops.pop_front_if(|d| d.place <= next) {
                let Packet::PageRequest { page, want, .. } = *dropped.pkt else {
                    unreachable!("only requests are shadowed");
                };
                assert!(
                    !self.table.answers(page, want),
                    "invariant (g): host {} dropped {:?} at its NIC at {}, but its \
                     server, reaching it at {now}, would have answered it",
                    self.index,
                    dropped.pkt,
                    dropped.heard,
                );
            }
        }
        self.nic_drops = Some(drops);
    }

    /// A sleep timer fired for process `proc`.
    ///
    /// The woken sleeper takes the one-shot boost (see `choose`), just
    /// like a fault wakeup: without it, a host whose server queue never
    /// drains — e.g. a page's home segment under a steady request load —
    /// starves the ready process indefinitely, because the idle branch
    /// of the scheduler always prefers pending server work.
    pub(crate) fn timer_fired(&mut self, proc: usize) {
        if self.procs[proc].state == ProcState::Sleeping {
            self.procs[proc].state = ProcState::Ready;
            self.run_queue.push_back(proc);
            self.wake_boost = true;
        }
    }

    /// Drains sleep requests made during dispatch; the simulation turns
    /// them into timer events.
    pub(crate) fn take_sleeps(&mut self) -> Vec<(usize, SimTime)> {
        std::mem::take(&mut self.pending_sleeps)
    }

    /// Drains fault-retry timers armed while blocking; the simulation
    /// turns them into retry events.
    pub(crate) fn take_retries(&mut self) -> Vec<(usize, SimTime, u64)> {
        std::mem::take(&mut self.pending_retries)
    }

    /// The retransmission timer of `waiter`'s fault, armed at `epoch`,
    /// fired. Returns `None` if the timer is stale: the fault was
    /// satisfied, or the process has blocked again since. Otherwise the
    /// wait is abandoned ([`mether_core::PageTable::cancel_wait`],
    /// clearing the request-dedup latch) and the fault's access is run
    /// anew, which retransmits the request — the recovery path for a
    /// reply lost to a dead bridge or a partitioned fabric.
    ///
    /// A process re-executes its faulting access once it is scheduled.
    /// A data wait needs one extra step: the process blocked over a
    /// stale-but-present copy without transmitting anything, so
    /// re-executing the read would just block again. The retry drops
    /// the stale copy ([`mether_core::PageTable::drop_stale_copy`]),
    /// turning the re-execution into a demand fetch whose request also
    /// re-stamps the fabric's learned interest — the recovery path for
    /// a waking broadcast filtered by an aged-out bridge. That request
    /// is the fault's first, not a retransmission: it is timed and
    /// sampled like any other.
    ///
    /// An open-loop fault is re-issued here, under the *same* waiter id
    /// and issue timestamp (the histogram must charge the retry's cost
    /// to the fault); waiter ids are never reused, so presence in the
    /// outstanding list is the whole liveness check. Returns the
    /// transmissions.
    pub(crate) fn retry_fired(
        &mut self,
        now: SimTime,
        waiter: WaiterId,
        epoch: u64,
    ) -> Option<Vec<HostAction>> {
        if waiter < OPEN_WAITER_BASE {
            let proc = waiter as usize;
            let p = &mut self.procs[proc];
            if p.state != ProcState::Blocked
                || p.block_epoch != epoch
                || !matches!(
                    p.blocked_kind,
                    Some(FaultKind::DemandFetch)
                        | Some(FaultKind::ConsistentFetch)
                        | Some(FaultKind::DataWait)
                )
            {
                return None;
            }
            let page = match &p.pending_op {
                Some(DsmOp::Read { page, .. }) | Some(DsmOp::Write { page, .. }) => *page,
                _ => return None,
            };
            let was_data_wait = p.blocked_kind == Some(FaultKind::DataWait);
            p.state = ProcState::Ready;
            p.blocked_kind = None;
            self.table.cancel_wait(page, waiter);
            if was_data_wait {
                // A re-executed data-view read transmits nothing — with the
                // copy still absent (or stale) it blocks exactly as before.
                // Escalate this one execution to demand drive: the request
                // it sends re-stamps learned interest and fetches whatever
                // the holder has now. If that is still the old value the
                // workload's own check loop purges and re-waits, with the
                // next retry escalating again — a slow poll, but live.
                self.table.drop_stale_copy(page);
                if let Some(DsmOp::Read { view, .. }) = &mut self.procs[proc].pending_op {
                    view.drive = DriveMode::Demand;
                }
            }
            self.run_queue.push_back(proc);
            return Some(Vec::new());
        }
        // The index holds to the end: nothing below touches the list
        // before the effects are applied.
        let ol = self.open.as_ref()?;
        let pos = ol.outstanding.iter().position(|w| w.waiter == waiter)?;
        let OpenWait {
            page,
            view,
            mode,
            retry,
            ..
        } = ol.outstanding[pos];
        self.table.cancel_wait(page, waiter);
        if mode == MapMode::ReadOnly {
            // Same escalation as a process data-wait retry: shed any
            // snooped copy so the re-execution demand-fetches and
            // re-stamps the fabric's learned interest.
            self.table.drop_stale_copy(page);
        }
        let mut effects = Vec::new();
        match self.table.access(page, view, mode, waiter, &mut effects) {
            Ok(AccessOutcome::Ready) => {
                // Satisfied between the wake we missed and this timer
                // (e.g. the copy arrived without a waiting wake): stamp
                // satisfaction now.
                let ol = self.open.as_mut().expect("checked above");
                let w = ol.outstanding.swap_remove(pos);
                ol.hist.record(now.since(w.issued_at).as_nanos());
            }
            Ok(AccessOutcome::Blocked(_)) => {
                let retry = self.arm_retry(waiter as usize, retry, now, true, 0);
                self.open.as_mut().expect("checked above").outstanding[pos].retry = retry;
            }
            Err(e) => panic!("open-loop retry bug: {e}"),
        }
        let mut actions = Vec::new();
        self.apply_effects(now, effects, &mut actions);
        Some(actions)
    }

    /// This host's retransmission-timeout estimator, under
    /// [`Calib::hardened`].
    pub fn fault_rto(&self) -> Option<&RtoEstimator> {
        self.rto.as_ref()
    }

    /// Times a request of `waiter`'s fault queued at `now`, its first
    /// or a re-send of `last`, and arms its retransmission timer, which
    /// doubles per re-send if `doubles`. Returns the fault's timer; `None`
    /// under the paper's profile, which has none.
    fn arm_retry(
        &mut self,
        waiter: usize,
        last: Option<FaultTimer>,
        now: SimTime,
        doubles: bool,
        epoch: u64,
    ) -> Option<FaultTimer> {
        let rto = self.rto.as_ref()?;
        self.fault_retransmits += u64::from(last.is_some());
        let timer = rto.request_sent(last, now.as_nanos());
        let due = SimTime::ZERO + SimDuration::from_nanos(rto.due_ns(timer, doubles));
        self.pending_retries.push((waiter, due, epoch));
        Some(timer)
    }

    /// A request-bearing fault was satisfied at `now`: the estimator
    /// samples it or applies Karn's rule, and a re-sent fault answered
    /// sooner than `reply_floor` after its last send counts as spurious.
    fn request_answered(&mut self, now: SimTime, retry: Option<FaultTimer>) {
        if let (Some(rto), Some(timer)) = (self.rto.as_mut(), retry) {
            let since = rto.answered(timer, now.as_nanos());
            if since.is_some_and(|since| since < self.reply_floor.as_nanos()) {
                self.spurious_retransmits += 1;
            }
        }
    }

    fn push_server_work(&mut self, now: SimTime, work: ServerWork) {
        if self.server_queue.is_empty() {
            self.server_ready_since = Some(now);
        }
        self.server_queue.push_back((self.server_pushed, work));
        self.server_pushed += 1;
        self.max_server_queue = self.max_server_queue.max(self.server_queue.len());
    }

    /// What serving `work` costs, and what kind of item it is. An
    /// install is counted a [`ServerKind::Refresh`] here; `finish_burst`
    /// makes it a [`ServerKind::Wake`] if it woke someone.
    fn server_cost(&self, work: &ServerWork) -> (ServerKind, SimDuration) {
        let snoop = (ServerKind::Snoop, self.calib.server_snoop);
        match work {
            ServerWork::SendPacket(_) => (ServerKind::Send, self.calib.server_send_request),
            ServerWork::PurgeBroadcast { .. } => {
                (ServerKind::Purge, self.calib.server_purge_broadcast)
            }
            ServerWork::Packet(pkt) => match pkt.as_ref() {
                Packet::PageRequest {
                    page, want, length, ..
                } => {
                    if self.table.answers(*page, *want) {
                        let bytes = match want {
                            Want::Superset => mether_core::PAGE_SIZE,
                            _ => self.table.config().transfer_len(*length),
                        };
                        (ServerKind::Answer, self.calib.reply_cost(bytes))
                    } else {
                        snoop
                    }
                }
                Packet::PageData { page, data, .. } | Packet::PageReply { page, data, .. } => {
                    // (A page with a buffer has a slot.)
                    if pkt.transfers_to(self.table.host()) || self.table.tracks(*page) {
                        (ServerKind::Refresh, self.calib.install_cost(data.len()))
                    } else {
                        snoop
                    }
                }
                // The simulator never delivers control frames to hosts,
                // so this arm only keeps the cost model total.
                Packet::BridgePdu { .. } => snoop,
            },
        }
    }

    /// Picks and starts the next burst if the CPU is idle. Returns the
    /// burst completion time to schedule, if any.
    pub(crate) fn dispatch(&mut self, now: SimTime) -> Option<SimTime> {
        if self.current_burst.is_some() {
            return None;
        }
        loop {
            let next = self.choose(now)?;
            // Charge a context switch when the CPU changes hands.
            if self.last_ran != Some(next) && self.last_ran.is_some() {
                self.ctx_switches += 1;
                let d = self.calib.ctx_switch;
                self.current_burst = Some(Burst::CtxSwitch { to: next });
                return Some(now + d);
            }
            if self.current != Some(next) {
                self.current_started = now;
            }
            self.current = Some(next);
            self.last_ran = Some(next);
            match next {
                Slot::Server => {
                    let (_, work) = self.server_queue.front().expect("chose server with work");
                    let (kind, d) = self.server_cost(work);
                    let (_, work) = self.server_queue.pop_front().expect("non-empty");
                    if self.server_queue.is_empty() {
                        self.server_ready_since = None;
                    } else {
                        self.server_ready_since = Some(now);
                    }
                    self.current_burst = Some(Burst::ServerItem { work, d, kind });
                    return Some(now + d);
                }
                Slot::App(i) => {
                    match self.next_app_action(now, i) {
                        Some((burst, d)) => {
                            self.current_burst = Some(burst);
                            return Some(now + d);
                        }
                        None => {
                            // Process blocked, slept, or exited without
                            // using the CPU; pick someone else.
                            self.current = None;
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Determines the app's next CPU burst, advancing its workload state
    /// machine. Returns `None` if the process did not take the CPU
    /// (slept/done — sleep scheduling is requested via `pending_actions`).
    fn next_app_action(&mut self, now: SimTime, i: usize) -> Option<(Burst, SimDuration)> {
        // Retry a faulted operation first.
        if let Some(op) = self.procs[i].pending_op.clone() {
            let (d, sys) = self.op_cost(&op);
            return Some((
                Burst::AppOp {
                    proc: i,
                    op,
                    d,
                    sys,
                },
                d,
            ));
        }
        let p = &mut self.procs[i];
        let mut ctx = StepCtx {
            now,
            last: p.last,
            counters: &mut p.counters,
        };
        let step = p.workload.step(&mut ctx);
        p.last = OpResult::None;
        match step {
            Step::Compute(d) => Some((Burst::AppCompute { proc: i, d }, d)),
            Step::Op(op) => {
                let (d, sys) = self.op_cost(&op);
                Some((
                    Burst::AppOp {
                        proc: i,
                        op,
                        d,
                        sys,
                    },
                    d,
                ))
            }
            Step::Sleep(d) => {
                self.procs[i].state = ProcState::Sleeping;
                self.pending_sleeps.push((i, now + d));
                None
            }
            Step::Done => {
                self.procs[i].state = ProcState::Done;
                None
            }
        }
    }

    fn op_cost(&self, op: &DsmOp) -> (SimDuration, bool) {
        match op {
            DsmOp::Read {
                page, view, mode, ..
            } => {
                if self.would_hit(*page, view.length, *mode) {
                    (self.calib.mem_ref, false)
                } else {
                    (self.calib.fault_trap, true)
                }
            }
            DsmOp::Write { page, view, .. } => {
                if self.would_hit(*page, view.length, MapMode::Writeable) {
                    (self.calib.mem_ref, false)
                } else {
                    (self.calib.fault_trap, true)
                }
            }
            DsmOp::Purge { .. } | DsmOp::Lock { .. } | DsmOp::Unlock { .. } => {
                (self.calib.fault_trap, true)
            }
        }
    }

    fn would_hit(&self, page: PageId, length: PageLength, mode: MapMode) -> bool {
        let short_len = self.table.config().short_len;
        let present = self
            .table
            .page_buf(page)
            .is_some_and(|b| b.satisfies(length, short_len));
        match mode {
            MapMode::Writeable => self.table.is_consistent_holder(page) && present,
            MapMode::ReadOnly => present,
        }
    }

    /// Scheduler policy: who gets the CPU now?
    fn choose(&mut self, now: SimTime) -> Option<Slot> {
        let server_has_work = !self.server_queue.is_empty();
        let server_waited = self
            .server_ready_since
            .map(|t| now.since(t) >= self.calib.server_patience)
            .unwrap_or(false);
        // Sleeper boost: a process returning from a long sleep outranks
        // the server once. This is what lets the just-installed page be
        // used before the next incoming request ships it away again —
        // and, symmetrically, what forces the server to sit out a
        // patience period while the woken client spins (the paper's
        // "client preempting the user level server").
        if self.wake_boost && !self.run_queue.is_empty() && self.current != Some(Slot::Server) {
            self.wake_boost = false;
            if server_has_work {
                self.server_ready_since = Some(now);
            }
            if let Some(Slot::App(i)) = self.current {
                if self.procs[i].state == ProcState::Ready {
                    self.run_queue.push_back(i);
                }
            }
            self.current = None;
            return self.run_queue.pop_front().map(Slot::App);
        }
        match self.current {
            // Continuing after a burst by the same app.
            Some(Slot::App(i))
                if self.procs[i].state == ProcState::Ready
                    || self.procs[i].state == ProcState::Blocked =>
            {
                // (Blocked processes never reach here; see finish_burst.)
                self.wake_boost = false;
                if server_has_work && server_waited {
                    self.run_queue.push_back(i);
                    self.current = None;
                    return Some(Slot::Server);
                }
                if now.since(self.current_started) >= self.calib.quantum {
                    if let Some(next) = self.run_queue.pop_front() {
                        self.run_queue.push_back(i);
                        self.current = None;
                        return Some(Slot::App(next));
                    }
                }
                Some(Slot::App(i))
            }
            Some(Slot::Server) if server_has_work => {
                if self.wake_boost && !self.run_queue.is_empty() {
                    self.wake_boost = false;
                    self.server_ready_since = Some(now);
                    self.current = None;
                    return self.run_queue.pop_front().map(Slot::App);
                }
                Some(Slot::Server)
            }
            _ => {
                // CPU idle or previous occupant gone.
                self.current = None;
                if server_has_work {
                    return Some(Slot::Server);
                }
                let next = self.run_queue.pop_front().map(Slot::App);
                if next.is_some() {
                    self.wake_boost = false;
                }
                next
            }
        }
    }

    /// Completes the current burst at `now`, returning follow-up actions
    /// for the simulation (transmissions, sleeps).
    pub(crate) fn finish_burst(&mut self, now: SimTime) -> Vec<HostAction> {
        let mut actions: Vec<HostAction> = Vec::new();
        let burst = self.current_burst.take().expect("finish without burst");
        // Read once per process: this is the hottest handler of every
        // workload, and an environment lookup takes a lock and a scan.
        static TRACE: OnceLock<bool> = OnceLock::new();
        if *TRACE.get_or_init(|| std::env::var_os("METHER_TRACE").is_some()) {
            let what = match &burst {
                Burst::AppCompute { proc, .. } => format!("app{proc} compute"),
                Burst::AppOp { proc, op, .. } => format!("app{proc} op {op:?}"),
                Burst::ServerItem { work, .. } => format!("server {work:?}"),
                Burst::CtxSwitch { to } => format!("ctxswitch -> {to:?}"),
            };
            eprintln!("[{now}] h{} END {what}", self.index);
        }
        match burst {
            Burst::CtxSwitch { to } => {
                // Now actually give `to` the CPU; dispatch() will resume it.
                self.current = Some(to);
                self.last_ran = Some(to);
                self.current_started = now;
                // Re-queue semantics: `to` was chosen; if it is an app it
                // was already popped from the run queue by choose().
            }
            Burst::AppCompute { proc, d } => {
                self.procs[proc].times.user += d;
            }
            Burst::AppOp { proc, op, d, sys } => {
                if sys {
                    self.procs[proc].times.sys += d;
                } else {
                    self.procs[proc].times.user += d;
                }
                self.exec_op(now, proc, op, &mut actions);
            }
            Burst::ServerItem { work, d, kind } => {
                self.server_time += d;
                let woke = self.exec_server(now, work, &mut actions);
                let kind = match kind {
                    ServerKind::Refresh if woke => ServerKind::Wake,
                    kind => kind,
                };
                self.server_work.add(kind, d);
                self.judge_nic_drops(now);
            }
        }
        actions
    }

    fn exec_op(&mut self, now: SimTime, proc: usize, mut op: DsmOp, actions: &mut Vec<HostAction>) {
        if let DsmOp::Read {
            page, view, mode, ..
        } = &mut op
        {
            if self.lease_expired(now, proc, *page, view.length, *mode) {
                // Ask the holder again: with the copy gone the read
                // demand-fetches, and the blocked op keeps the demand
                // view, as a data-wait retry does.
                self.procs[proc].lease = None;
                self.table.drop_stale_copy(*page);
                view.drive = DriveMode::Demand;
            }
        }
        let waiter = proc as WaiterId;
        let mut effects = Vec::new();
        let outcome = match &op {
            DsmOp::Read {
                page,
                view,
                mode,
                offset,
            } => match self.table.access(*page, *view, *mode, waiter, &mut effects) {
                Ok(AccessOutcome::Ready) => {
                    self.start_lease(now, proc, *page);
                    let v = self
                        .table
                        .page_buf(*page)
                        .expect("ready implies present")
                        .read_u32(*offset as usize)
                        .expect("offset validated by VAddr");
                    Some(OpResult::Value(v))
                }
                Ok(AccessOutcome::Blocked(kind)) => {
                    self.block(now, proc, op.clone(), kind);
                    None
                }
                Err(e) => panic!("workload bug: {e}"),
            },
            DsmOp::Write {
                page,
                view,
                offset,
                value,
            } => {
                match self
                    .table
                    .access(*page, *view, MapMode::Writeable, waiter, &mut effects)
                {
                    Ok(AccessOutcome::Ready) => {
                        self.table
                            .page_buf_mut(*page)
                            .expect("ready implies present")
                            .write_u32(*offset as usize, *value)
                            .expect("offset validated");
                        Some(OpResult::Done)
                    }
                    Ok(AccessOutcome::Blocked(kind)) => {
                        self.block(now, proc, op.clone(), kind);
                        None
                    }
                    Err(e) => panic!("workload bug: {e}"),
                }
            }
            DsmOp::Purge { page, mode, length } => {
                match self
                    .table
                    .purge(*page, *mode, *length, waiter, &mut effects)
                {
                    Ok(AccessOutcome::Ready) => Some(OpResult::Done),
                    Ok(AccessOutcome::Blocked(kind)) => {
                        self.block(now, proc, op.clone(), kind);
                        None
                    }
                    Err(e) => panic!("workload bug: {e}"),
                }
            }
            DsmOp::Lock { page, length } => match self.table.lock(*page, *length) {
                Ok(()) => Some(OpResult::LockOk),
                Err(_) => Some(OpResult::LockFailed),
            },
            DsmOp::Unlock { page } => {
                self.table.unlock(*page, &mut effects);
                Some(OpResult::Done)
            }
        };
        if let Some(res) = outcome {
            let p = &mut self.procs[proc];
            p.last = res;
            p.pending_op = None;
            p.retry = None;
        }
        self.apply_effects(now, effects, actions);
    }

    /// Has process `proc`'s lease on `page` run out? Only for a read
    /// that would hit a present, non-consistent copy whose generation
    /// the process has read for longer than one retransmission timeout
    /// without seeing it change. The holder's next purge broadcast
    /// would have refreshed the copy, so either the holder has not
    /// written or that broadcast was lost; a demand fetch answers both.
    /// A spinning reader thus asks once per timeout, and only while it
    /// spins. One timeout, not the smoothed round trip: a lease of srtt
    /// also re-fetches from partners that are merely slow, and cost the
    /// lossless clean soak seeds of 0..10 000 +7 % sim time and +11 %
    /// data frames.
    fn lease_expired(
        &self,
        now: SimTime,
        proc: usize,
        page: PageId,
        length: PageLength,
        mode: MapMode,
    ) -> bool {
        let (Some(rto), Some((leased, generation, since))) = (&self.rto, self.procs[proc].lease)
        else {
            return false;
        };
        leased == page
            && generation == self.table.generation(page)
            && !self.table.is_consistent_holder(page)
            && self.would_hit(page, length, mode)
            && now.since(since).as_nanos() > rto.rto_ns()
    }

    /// Process `proc` read `page` at `now`: a hit on a non-consistent
    /// copy starts a lease, unless the process already leases that page
    /// at that generation.
    fn start_lease(&mut self, now: SimTime, proc: usize, page: PageId) {
        if self.rto.is_none() || self.table.is_consistent_holder(page) {
            return;
        }
        let generation = self.table.generation(page);
        let lease = &mut self.procs[proc].lease;
        if !matches!(*lease, Some((p, g, _)) if p == page && g == generation) {
            *lease = Some((page, generation, now));
        }
    }

    fn block(&mut self, now: SimTime, proc: usize, op: DsmOp, kind: FaultKind) {
        let read = matches!(
            op,
            DsmOp::Read {
                mode: MapMode::ReadOnly,
                ..
            }
        );
        let p = &mut self.procs[proc];
        p.state = ProcState::Blocked;
        p.pending_op = Some(op);
        p.blocked_at = now;
        p.blocked_kind = Some(kind);
        p.block_epoch += 1;
        let epoch = p.block_epoch;
        // Request-bearing faults arm the retransmission timer (when
        // enabled): their reply can be lost to the network or a failed
        // bridge, and nothing else would ever wake the waiter. Data
        // waits arm it too: they transmit nothing, so the only wakeup is
        // the fresh holder's broadcast — which a bridge whose learned
        // interest has aged out under unrelated traffic filters forever.
        if matches!(
            kind,
            FaultKind::DemandFetch | FaultKind::ConsistentFetch | FaultKind::DataWait
        ) {
            // Retry state outlives a block only through `retry_fired`:
            // this is the same fault re-sending its request. A read's
            // timer stays at one timeout; a data wait only borrows it.
            let last = p.retry;
            let retry = self.arm_retry(proc, last, now, !read, epoch);
            if kind != FaultKind::DataWait {
                self.procs[proc].retry = retry;
            }
        }
        self.current = None;
    }

    /// Unblocks process `w` (if still blocked): latency accounting, run
    /// queue, and the one-shot sleeper boost.
    fn wake_one(&mut self, now: SimTime, w: WaiterId) {
        if w >= OPEN_WAITER_BASE {
            // An open-loop fault was satisfied: stamp satisfaction time
            // into the histogram. No scheduler state — open arrivals are
            // injected, not executed by a process.
            if let Some(ol) = self.open.as_mut() {
                if let Some(pos) = ol.outstanding.iter().position(|wait| wait.waiter == w) {
                    let wait = ol.outstanding.swap_remove(pos);
                    ol.hist.record(now.since(wait.issued_at).as_nanos());
                    self.request_answered(now, wait.retry);
                }
            }
            return;
        }
        let proc = w as usize;
        let p = &mut self.procs[proc];
        if p.state == ProcState::Blocked {
            p.state = ProcState::Ready;
            if matches!(
                p.blocked_kind,
                Some(FaultKind::DemandFetch)
                    | Some(FaultKind::DataWait)
                    | Some(FaultKind::ConsistentFetch)
            ) {
                self.fault_latencies.push(now.since(p.blocked_at));
            }
            if p.blocked_kind == Some(FaultKind::PurgeWait) {
                // The purge completed; do not re-execute it.
                p.pending_op = None;
                p.last = OpResult::Done;
            }
            p.blocked_kind = None;
            self.run_queue.push_back(proc);
            self.wake_boost = true;
            let retry = self.procs[proc].retry.take();
            self.request_answered(now, retry);
        }
    }

    /// Serves one item. Returns whether it was a frame that woke a
    /// waiter.
    fn exec_server(
        &mut self,
        now: SimTime,
        work: ServerWork,
        actions: &mut Vec<HostAction>,
    ) -> bool {
        match work {
            ServerWork::SendPacket(pkt) => {
                actions.push(HostAction::Transmit(pkt));
                false
            }
            ServerWork::PurgeBroadcast { page, length } => {
                let mut effects = Vec::new();
                // An error means consistency moved away before the
                // server got to it: nothing to broadcast.
                if let Ok(pkt) = self.table.server_purge_broadcast(page, length) {
                    actions.push(HostAction::Transmit(pkt));
                }
                self.table.do_purge(page, &mut effects);
                self.apply_effects(now, effects, actions);
                false
            }
            ServerWork::Packet(pkt) => {
                let mut effects = Vec::new();
                self.table.handle_packet(&pkt, &mut effects);
                if self.calib.hardened {
                    self.settle_queued(pkt.as_ref(), &effects);
                }
                let woke = effects.iter().any(|fx| matches!(fx, Effect::WakeAll(_)));
                self.apply_effects(now, effects, actions);
                woke
            }
        }
    }

    /// The serve-time pass of [`Calib::hardened`]: the server
    /// just answered `served` with a broadcast `PageReply`, and one
    /// walk over the queue settles what that reply decided.
    ///
    /// * Queued requests the same reply satisfies are dropped now
    ///   instead of each costing a full serve leg
    ///   ([`HostSim::requests_piggybacked`]). NIC-level coalescing
    ///   cannot catch these — they arrived while `served` was already
    ///   popped and being processed.
    /// * If the reply granted consistency to host `to`, every queued
    ///   `Want::Consistent` request for the page from another host is
    ///   stranded: this host no longer holds, so serving it would only
    ///   snoop it, and its requester would wait out a timeout. Each is
    ///   re-sent in place instead, as it stands
    ///   ([`HostSim::requests_forwarded`]); the grant has just
    ///   repointed the bridges' holder beliefs toward `to`, so they
    ///   carry the re-send there — the one moment the old holder knows
    ///   for certain where the page went (Li and Hudak's probable-owner
    ///   forwarding). Queued reads stay as they are: re-sending them too
    ///   bought no p99 on the write-heavy tree and put 1.1 % more bytes
    ///   on its wire. The re-send costs a send leg
    ///   (`server_send_request`) instead of a snoop. A re-send that
    ///   reaches a holder which has moved on in turn is snooped there
    ///   unless it queues behind that holder's own grant, so nothing
    ///   loops.
    fn settle_queued(&mut self, served: &Packet, effects: &[Effect]) {
        if !matches!(served, Packet::PageRequest { .. }) {
            return;
        }
        let Some(granted_to) = effects.iter().find_map(|fx| match fx {
            Effect::Send(Packet::PageReply { transfer_to, .. }) => Some(*transfer_to),
            _ => None,
        }) else {
            return;
        };
        let page = served.page();
        let stranded = |q: &Packet| {
            matches!(
                (q, granted_to),
                (Packet::PageRequest { from, page: p, want: Want::Consistent, .. }, Some(to))
                    if *p == page && *from != to
            )
        };
        let before = self.server_queue.len();
        let mut forwarded = 0;
        self.server_queue.retain_mut(|(_, w)| {
            let ServerWork::Packet(q) = w else {
                return true;
            };
            if served.same_request(q) {
                return false;
            }
            if stranded(q.as_ref()) {
                *w = ServerWork::SendPacket(q.as_ref().clone());
                forwarded += 1;
            }
            true
        });
        self.requests_forwarded += forwarded;
        let dropped = before - self.server_queue.len();
        if dropped > 0 {
            self.requests_piggybacked += dropped as u64;
            if self.server_queue.is_empty() {
                self.server_ready_since = None;
            }
        }
    }

    fn apply_effects(&mut self, now: SimTime, effects: Vec<Effect>, actions: &mut Vec<HostAction>) {
        for fx in effects {
            match fx {
                Effect::Send(pkt) => {
                    // The kernel driver built a packet; the user-level
                    // server must transmit it. When the effect arises
                    // *inside* server processing (answering a request) the
                    // cost was already charged; transmit directly.
                    if matches!(self.current, Some(Slot::Server)) {
                        actions.push(HostAction::Transmit(pkt));
                    } else {
                        self.push_server_work(now, ServerWork::SendPacket(pkt));
                    }
                }
                Effect::Wake(w) => self.wake_one(now, w),
                Effect::WakeAll(set) => {
                    // One coalesced batch per transit: every waiter the
                    // packet satisfied joins the run queue in wake order,
                    // in a single pass — the host's event-handling work
                    // for a broadcast no longer scales with the number of
                    // blocked processes.
                    for w in set {
                        self.wake_one(now, w);
                    }
                }
                Effect::ServerPurge { page, length } => {
                    self.push_server_work(now, ServerWork::PurgeBroadcast { page, length });
                }
                Effect::ConsistentArrived(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::HostId;

    /// Sleeps once, then exits.
    struct SleepOnce {
        slept: bool,
        d: SimDuration,
    }

    impl Workload for SleepOnce {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if self.slept {
                Step::Done
            } else {
                self.slept = true;
                Step::Sleep(self.d)
            }
        }
    }

    fn host() -> HostSim {
        HostSim::new(0, Calib::sun3_sunos4(), MetherConfig::default())
    }

    /// A host on the hardened profile, with invariant (g) watching its
    /// NIC.
    fn hardened_host() -> HostSim {
        let mut h = HostSim::new(0, Calib::hardened(), MetherConfig::default());
        h.observe_nic_drops();
        h
    }

    /// Requests the NIC dropped that invariant (g) has yet to judge.
    fn unjudged(h: &HostSim) -> usize {
        h.nic_drops.as_ref().map_or(0, VecDeque::len)
    }

    fn request(from: u16, page: u32) -> Arc<Packet> {
        asking(from, page, Want::ReadOnly)
    }

    /// A short request from host `from` for `page`, wanting `want`.
    fn asking(from: u16, page: u32, want: Want) -> Arc<Packet> {
        Arc::new(Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            want,
        })
    }

    /// Regression: a process returning from a kernel sleep takes the
    /// one-shot sleeper boost, exactly like a fault wakeup. Without it,
    /// a host whose server queue never drains (a page's home segment
    /// under steady request load) starves the ready process forever —
    /// the idle branch of `choose` always prefers pending server work.
    /// Flushed by soak seed 24: the publisher woke from its final
    /// pacing sleep behind a saturated server and never ran again.
    #[test]
    fn sleeper_boost_preempts_saturated_server() {
        let mut h = host();
        h.add_process(Box::new(SleepOnce {
            slept: false,
            d: SimDuration::from_millis(1),
        }));
        // First dispatch: the process requests its sleep and yields.
        assert!(h.dispatch(SimTime::ZERO).is_none());
        let sleeps = h.take_sleeps();
        assert_eq!(sleeps.len(), 1);
        // Saturate the server queue with distinct foreign requests.
        let now = sleeps[0].1;
        for p in 0..8 {
            h.deliver_packet(now, &request(1, p));
        }
        // The timer fires; the woken sleeper must get the CPU ahead of
        // the backlog, discover it is done, and exit.
        h.timer_fired(0);
        h.dispatch(now);
        assert!(
            h.all_done(),
            "woken sleeper starved behind the server queue"
        );
    }

    /// Identical queued page requests coalesce at the NIC (under
    /// [`Calib::hardened`]): the one broadcast reply satisfies
    /// every requester on the wire. Flushed by soak seed 24: five
    /// readers retrying a 13 ms-per-reply server every 20 ms backlogged
    /// its queue without bound. The host tracks page 7; the request for
    /// untracked page 8 is filtered before it could coalesce.
    #[test]
    fn identical_requests_coalesce_in_server_queue() {
        let mut h = hardened_host();
        h.table.create_owned(PageId::new(7));
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        h.deliver_packet(SimTime::ZERO, &request(2, 7)); // other host, same ask
        h.deliver_packet(SimTime::ZERO, &request(1, 8)); // different page
        assert_eq!(h.requests_coalesced, 2);
        assert_eq!(h.frames_filtered, [1, 0, 0]);
        assert_eq!(h.frames_heard, 4);
    }

    /// Consistency transfers are directed at one requester: requests
    /// from different hosts must both be served, only a same-host retry
    /// coalesces.
    #[test]
    fn consistent_requests_coalesce_per_host_only() {
        let mut h = hardened_host();
        h.table.create_owned(PageId::new(3));
        let consistent = |from: u16| {
            Arc::new(Packet::PageRequest {
                from: HostId(from),
                page: PageId::new(3),
                length: PageLength::Short,
                want: Want::Consistent,
            })
        };
        h.deliver_packet(SimTime::ZERO, &consistent(1));
        h.deliver_packet(SimTime::ZERO, &consistent(2));
        assert_eq!(h.requests_coalesced, 0);
        h.deliver_packet(SimTime::ZERO, &consistent(1));
        assert_eq!(h.requests_coalesced, 1);
    }

    /// The NIC filter drops frames about a page the host has no slot
    /// for — a request and a snooped publication — at no server cost,
    /// and queues nothing for them. A reply that transfers the page to
    /// this host still gets through: it is how the slot is made. The
    /// paper's calibration queues all three for the server to snoop.
    #[test]
    fn nic_drops_frames_about_untracked_pages() {
        let page = PageId::new(9);
        let snooped = Packet::PageData {
            from: HostId(1),
            page,
            length: PageLength::Short,
            generation: mether_core::Generation(1),
            transfer_to: None,
            data: bytes::Bytes::from(vec![0u8; 32]),
        };
        let grant = Packet::PageReply {
            from: HostId(1),
            page,
            length: PageLength::Short,
            generation: mether_core::Generation(1),
            transfer_to: Some(HostId(0)),
            data: bytes::Bytes::from(vec![0u8; 32]),
        };

        let mut h = hardened_host();
        assert!(!h.deliver_packet(SimTime::ZERO, &request(1, 9)));
        assert!(!h.deliver_packet(SimTime::ZERO, &Arc::new(snooped.clone())));
        assert_eq!((h.frames_filtered, h.frames_heard), ([2, 0, 0], 2));
        assert!(h.dispatch(SimTime::ZERO).is_none(), "nothing queued");
        assert!(h.deliver_packet(SimTime::ZERO, &Arc::new(grant.clone())));
        assert_eq!((h.frames_filtered, h.frames_heard), ([2, 0, 0], 3));
        let t = h.dispatch(SimTime::ZERO).expect("install the grant");
        h.finish_burst(t);
        assert!(h.table.is_consistent_holder(page));

        let mut paper = host();
        assert!(paper.deliver_packet(SimTime::ZERO, &request(1, 9)));
        assert!(paper.deliver_packet(SimTime::ZERO, &Arc::new(snooped)));
        assert!(paper.deliver_packet(SimTime::ZERO, &Arc::new(grant)));
        assert_eq!(
            (paper.frames_filtered, paper.server_queue.len()),
            ([0; 3], 3)
        );
    }

    /// Host 0 takes a write fault on page 3 and puts its consistent
    /// request on the wire: the page is tracked but not held. Returns
    /// when the request left and the grant its holder answers with.
    fn awaiting_a_grant(h: &mut HostSim) -> (SimTime, Packet) {
        h.attach_open_loop(Box::new(OneShot(Some(OpenAccess {
            at: SimTime::ZERO,
            page: PageId::new(3),
            view: View::short_demand(),
            mode: MapMode::Writeable,
            cold: false,
        }))));
        h.open_arrival(SimTime::ZERO);
        let (sent, req) = send_request(h, SimTime::ZERO);
        let grant = holder_reply(&req);
        assert!(
            matches!(
                grant,
                Packet::PageReply {
                    transfer_to: Some(HostId(0)),
                    ..
                }
            ),
            "{grant:?}"
        );
        assert!(h.table.tracks(PageId::new(3)) && !h.table.is_consistent_holder(PageId::new(3)));
        (sent, grant)
    }

    /// The new holder's next server burst answers host 2's consistent
    /// request by granting it the page.
    fn grants_to_host_2(h: &mut HostSim, now: SimTime) {
        let served = h.dispatch(now).expect("serve host 2");
        let actions = h.finish_burst(served);
        assert!(
            matches!(
                actions[..],
                [HostAction::Transmit(Packet::PageReply {
                    transfer_to: Some(HostId(2)),
                    ..
                })]
            ),
            "{actions:?}"
        );
    }

    /// The trap of the request group: a request that arrives while the
    /// grant making this host the holder is being installed must reach
    /// the server, which holds by the time it gets there. Checking only
    /// the queue drops it, and its requester waits out a timeout.
    #[test]
    fn a_request_heard_during_a_grant_install_is_queued() {
        let mut h = hardened_host();
        let (sent, grant) = awaiting_a_grant(&mut h);
        assert!(h.deliver_packet(sent, &Arc::new(grant)));
        let installed = h.dispatch(sent).expect("install burst");
        assert!(
            h.deliver_packet(sent, &asking(2, 3, Want::Consistent)),
            "dropped while the grant is in service"
        );
        assert_eq!(h.frames_filtered, [0; 3]);
        h.finish_burst(installed);
        assert!(h.table.is_consistent_holder(PageId::new(3)));
        grants_to_host_2(&mut h, installed);
    }

    /// The same while the grant still waits in the server queue.
    #[test]
    fn a_request_heard_behind_a_queued_grant_is_queued() {
        let mut h = hardened_host();
        let (sent, grant) = awaiting_a_grant(&mut h);
        assert!(h.deliver_packet(sent, &Arc::new(grant)));
        assert!(h.deliver_packet(sent, &asking(2, 3, Want::Consistent)));
        assert_eq!(h.frames_filtered, [0; 3]);
        let installed = h.dispatch(sent).expect("install burst");
        h.finish_burst(installed);
        grants_to_host_2(&mut h, installed);
    }

    /// Only the holder answers a `ReadOnly` or `Consistent` request, so
    /// a host that tracks the page without holding it, with no grant on
    /// its way in, drops both at the NIC: counted as filtered, nothing
    /// queued, no server time.
    #[test]
    fn requests_for_a_tracked_page_held_elsewhere_are_dropped() {
        let mut h = hardened_host();
        let (sent, _) = awaiting_a_grant(&mut h);
        let busy = h.server_time;
        for want in [Want::ReadOnly, Want::Consistent] {
            assert!(!h.deliver_packet(sent, &asking(1, 3, want)), "{want:?}");
        }
        assert_eq!((h.frames_filtered, h.frames_heard), ([0, 2, 0], 2));
        assert!(h.dispatch(sent).is_none(), "nothing queued");
        assert_eq!(h.server_time, busy);
    }

    /// A `Superset` request is answered by a full copy that is not the
    /// holder's, so it passes the NIC where a read of the same page
    /// from the same host does not.
    #[test]
    fn a_superset_request_reaches_a_full_copy_that_does_not_hold() {
        let mut h = hardened_host();
        let page = PageId::new(3);
        h.table.create_owned(page);
        assert!(h.deliver_packet(SimTime::ZERO, &asking(1, 3, Want::Consistent)));
        let granted = h.dispatch(SimTime::ZERO).expect("grant to host 1");
        h.finish_burst(granted);
        assert!(!h.table.is_consistent_holder(page));
        assert!(h
            .table
            .page_buf(page)
            .is_some_and(mether_core::PageBuf::full_valid));

        assert!(!h.deliver_packet(granted, &asking(2, 3, Want::ReadOnly)));
        assert!(h.deliver_packet(granted, &asking(2, 3, Want::Superset)));
        assert_eq!(h.frames_filtered, [0, 1, 0]);
        let served = h.dispatch(granted).expect("serve the superset");
        let actions = h.finish_burst(served);
        assert!(
            matches!(
                actions[..],
                [HostAction::Transmit(Packet::PageReply {
                    length: PageLength::Full,
                    transfer_to: None,
                    ..
                })]
            ),
            "{actions:?}"
        );
    }

    /// Invariant (g) judges a dropped request where the server would
    /// have reached it: after the burst in service and before anything
    /// queued later, not when it was heard.
    #[test]
    fn nic_drops_are_judged_where_the_server_would_have_reached_them() {
        let mut h = hardened_host();
        let (sent, _) = awaiting_a_grant(&mut h);
        h.table.create_owned(PageId::new(4));
        h.table.create_owned(PageId::new(5));
        assert!(h.deliver_packet(sent, &request(1, 4)));
        let served = h.dispatch(sent).expect("serve the page-4 read");
        assert!(!h.deliver_packet(sent, &request(2, 3)));
        assert!(h.deliver_packet(sent, &request(2, 5)));
        assert_eq!(unjudged(&h), 1, "judged while the server was busy");
        h.finish_burst(served);
        assert_eq!(unjudged(&h), 0, "not judged when the server passed it");
        assert!(!h.deliver_packet(served, &request(1, 3)));
        assert_eq!(unjudged(&h), 1, "the page-5 read is still ahead of it");
    }

    /// Invariant (g) catches a dropped request that the server would
    /// have answered. No protocol path grants a page to a host that
    /// never asked for it (asking makes the slot), so the untracked
    /// filter never makes this drop in a run. Made here by hand, the
    /// request is dropped behind the grant that makes this host the
    /// holder.
    #[test]
    #[should_panic(expected = "invariant (g): host 0 dropped")]
    fn invariant_g_catches_a_drop_the_server_would_have_answered() {
        let mut h = hardened_host();
        let grant = Packet::PageReply {
            from: HostId(1),
            page: PageId::new(3),
            length: PageLength::Short,
            generation: mether_core::Generation(1),
            transfer_to: Some(HostId(0)),
            data: bytes::Bytes::from(vec![0u8; 32]),
        };
        assert!(h.deliver_packet(SimTime::ZERO, &Arc::new(grant)));
        assert!(!h.deliver_packet(SimTime::ZERO, &asking(2, 3, Want::Consistent)));
        let installed = h.dispatch(SimTime::ZERO).expect("install burst");
        h.finish_burst(installed);
    }

    /// Without the hardened NIC every request reaches the server, the
    /// holder's or not.
    #[test]
    fn without_the_nic_filter_every_request_is_queued() {
        let mut h = host();
        let (sent, _) = awaiting_a_grant(&mut h);
        for want in [Want::ReadOnly, Want::Consistent, Want::Superset] {
            assert!(h.deliver_packet(sent, &asking(1, 3, want)), "{want:?}");
        }
        assert_eq!((h.frames_filtered, h.server_queue.len()), ([0; 3], 3));
    }

    /// The default calibration is the paper's: every datagram reaches
    /// the server individually, duplicates included — P3's measured
    /// divergence on the counting benchmark depends on that load.
    #[test]
    fn paper_calibration_serves_every_duplicate() {
        let mut h = host();
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        h.deliver_packet(SimTime::ZERO, &request(2, 7));
        assert_eq!(h.requests_coalesced, 0);
        assert_eq!(h.frames_heard, 3);
    }

    /// Serve-time piggybacking: the broadcast reply for one request
    /// also satisfies an identical request that queued while it was
    /// being served, so it is dropped instead of costing a full 13 ms+
    /// serve leg. NIC-level coalescing cannot catch it — the served
    /// request was already popped when it arrived. A request for
    /// another page stays queued.
    #[test]
    fn serve_time_piggyback_drops_identical_queued_requests() {
        let mut h = hardened_host();
        h.table.create_owned(PageId::new(7));
        h.table.create_owned(PageId::new(8));
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        let t = h.dispatch(SimTime::ZERO).expect("server burst");
        h.deliver_packet(SimTime::ZERO, &request(2, 7));
        h.deliver_packet(SimTime::ZERO, &request(1, 8)); // different page
        assert_eq!(h.requests_coalesced, 0, "nothing identical was queued");
        let actions = h.finish_burst(t);
        assert!(
            matches!(
                actions[..],
                [HostAction::Transmit(Packet::PageReply { .. })]
            ),
            "holder answers with a broadcast reply"
        );
        assert_eq!(h.requests_piggybacked, 1);
        // Only the different-page request is left to serve.
        let t2 = h.dispatch(t).expect("one more burst");
        h.finish_burst(t2);
        assert_eq!(h.requests_piggybacked, 1);
        assert!(h.dispatch(t2).is_none(), "queue drained");
    }

    /// The hardened profile's two duplicate filters split the work by
    /// where the original is. A duplicate of a *queued* request is
    /// coalesced at the NIC and never queued; a duplicate of the
    /// request *in service* gets past the NIC, which does not count the
    /// one in service, and is piggybacked on its reply at serve time.
    /// Either way the server answers the page once.
    #[test]
    fn duplicates_coalesce_behind_a_queued_request_and_piggyback_on_a_served_one() {
        let mut h = hardened_host();
        h.table.create_owned(PageId::new(7));
        assert!(h.deliver_packet(SimTime::ZERO, &request(1, 7)));
        let t = h.dispatch(SimTime::ZERO).expect("serve the first request");
        // Heard during the serve: a duplicate of the request in service
        // is queued, and duplicates of that queued one are coalesced.
        assert!(h.deliver_packet(SimTime::ZERO, &request(2, 7)));
        assert!(!h.deliver_packet(SimTime::ZERO, &request(3, 7)));
        assert!(!h.deliver_packet(SimTime::ZERO, &request(2, 7)));
        assert_eq!((h.requests_coalesced, h.server_queue.len()), (2, 1));
        let actions = h.finish_burst(t);
        assert!(
            matches!(
                actions[..],
                [HostAction::Transmit(Packet::PageReply { .. })]
            ),
            "one broadcast reply: {actions:?}"
        );
        assert_eq!(h.requests_piggybacked, 1);
        assert!(h.dispatch(t).is_none(), "the server answered once");
        assert_eq!(h.server_work.items(ServerKind::Answer), 1);
    }

    /// A grant strands the consistent requests queued behind it: the
    /// holder serves A's, hands A the page, and re-sends B's request as
    /// it stands — a send leg, not a snoop — for the fabric to carry
    /// toward A. A queued read stays (re-sending reads buys no tail),
    /// and so does A's own request for the full page: it asks the host
    /// the page just went to.
    #[test]
    fn a_grant_resends_the_consistent_requests_it_stranded() {
        let mut h = hardened_host();
        let page = PageId::new(7);
        h.table.create_owned(page);
        let consistent = |from: u16, length: PageLength| Packet::PageRequest {
            from: HostId(from),
            page,
            length,
            want: Want::Consistent,
        };
        let a = consistent(1, PageLength::Short);
        let b = consistent(2, PageLength::Short);
        let a_full = consistent(1, PageLength::Full);
        for pkt in [a, b.clone(), (*request(3, 7)).clone(), a_full.clone()] {
            h.deliver_packet(SimTime::ZERO, &Arc::new(pkt));
        }
        let t = h.dispatch(SimTime::ZERO).expect("serve A");
        let actions = h.finish_burst(t);
        assert!(
            matches!(
                actions[..],
                [HostAction::Transmit(Packet::PageReply {
                    transfer_to: Some(HostId(1)),
                    ..
                })]
            ),
            "A is granted the page: {actions:?}"
        );
        assert_eq!((h.requests_forwarded, h.requests_piggybacked), (1, 0));
        let queued: Vec<_> = h
            .server_queue
            .iter()
            .map(|(_, w)| format!("{w:?}"))
            .collect();
        assert_eq!(
            queued,
            [
                format!("{:?}", ServerWork::SendPacket(b.clone())),
                format!("{:?}", ServerWork::Packet(request(3, 7))),
                format!("{:?}", ServerWork::Packet(Arc::new(a_full))),
            ]
        );
        let t2 = h.dispatch(t).expect("re-send B");
        assert_eq!(t2.since(t), Calib::sun3_sunos4().server_send_request);
        let actions = h.finish_burst(t2);
        assert!(
            matches!(&actions[..], [HostAction::Transmit(p)] if *p == b),
            "B's request goes out unchanged: {actions:?}"
        );
    }

    /// Paper default: no piggybacking — every queued duplicate is served
    /// individually.
    #[test]
    fn default_serves_queued_duplicates_individually() {
        let mut h = host();
        h.table.create_owned(PageId::new(7));
        h.deliver_packet(SimTime::ZERO, &request(1, 7));
        h.deliver_packet(SimTime::ZERO, &request(2, 7));
        let t = h.dispatch(SimTime::ZERO).expect("server burst");
        h.finish_burst(t);
        assert_eq!(h.requests_piggybacked, 0);
        assert!(h.dispatch(t).is_some(), "duplicate still queued");
    }

    /// One-access arrival stream for open-loop host tests.
    struct OneShot(Option<OpenAccess>);

    impl ArrivalStream for OneShot {
        fn next_access(&mut self) -> Option<OpenAccess> {
            self.0.take()
        }
    }

    /// An open-loop fault is stamped at issue and at satisfaction: the
    /// histogram records exactly the span from the injected access to
    /// the wake the installing reply produces.
    #[test]
    fn open_fault_latency_stamped_issue_to_satisfaction() {
        let mut h = host();
        h.attach_open_loop(Box::new(OneShot(Some(OpenAccess {
            at: SimTime::ZERO,
            page: PageId::new(3),
            view: View::short_demand(),
            mode: MapMode::ReadOnly,
            cold: false,
        }))));
        assert_eq!(h.open_next_at(), Some(SimTime::ZERO));
        assert!(!h.all_done(), "buffered arrival keeps the host busy");

        let actions = h.open_arrival(SimTime::ZERO);
        assert!(actions.is_empty(), "request goes through the server");
        assert_eq!(h.open_counts(), (1, 0, 1));
        assert!(!h.all_done(), "outstanding fault keeps the host busy");

        // The server transmits the request...
        let t = h.dispatch(SimTime::ZERO).expect("server send burst");
        let actions = h.finish_burst(t);
        let HostAction::Transmit(req) = &actions[0];

        // ...a remote holder answers it...
        let reply = holder_reply(req);

        // ...and installing the reply wakes the open waiter, stamping
        // the issue-to-satisfaction latency.
        let t2 = install(&mut h, t + SimDuration::from_millis(5), reply);
        let hist = h.open_hist().expect("attached");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), t2.since(SimTime::ZERO).as_nanos());
        assert!(h.all_done(), "stream drained, nothing outstanding");
    }

    /// The broadcast a remote consistent holder answers `req` with.
    fn holder_reply(req: &Packet) -> Packet {
        let Packet::PageRequest { page, .. } = req else {
            panic!("not a request: {req:?}");
        };
        let mut owner = PageTable::new(HostId(1), MetherConfig::default());
        owner.create_owned(*page);
        let mut fx = Vec::new();
        owner.handle_packet(req, &mut fx);
        fx.into_iter()
            .find_map(|f| match f {
                Effect::Send(p @ Packet::PageReply { .. }) => Some(p),
                _ => None,
            })
            .expect("holder answers")
    }

    /// Runs the host from `now` until its server puts the queued
    /// request on the wire and the CPU idles, as the simulation's
    /// dispatch-after-every-burst would; returns when and what.
    fn send_request(h: &mut HostSim, mut now: SimTime) -> (SimTime, Packet) {
        loop {
            now = h.dispatch(now).expect("a burst before the request is out");
            if let Some(HostAction::Transmit(req)) = h.finish_burst(now).pop() {
                assert!(matches!(req, Packet::PageRequest { .. }), "{req:?}");
                assert!(h.dispatch(now).is_none(), "nothing else to run");
                return (now, req);
            }
        }
    }

    /// Delivers `reply` at `now` and runs the install burst; returns
    /// when the waiter was woken.
    fn install(h: &mut HostSim, now: SimTime, reply: Packet) -> SimTime {
        h.deliver_packet(now, &Arc::new(reply));
        let t = h.dispatch(now).expect("install burst");
        h.finish_burst(t);
        t
    }

    fn open_read_fault(h: &mut HostSim) -> WaiterId {
        h.attach_open_loop(Box::new(OneShot(Some(OpenAccess {
            at: SimTime::ZERO,
            page: PageId::new(3),
            view: View::short_demand(),
            mode: MapMode::ReadOnly,
            cold: false,
        }))));
        h.open_arrival(SimTime::ZERO);
        OPEN_WAITER_BASE
    }

    /// A reply that never comes is asked for again after one RTO, then
    /// after two more, then four: each unanswered request doubles the
    /// fault's timer. Before any sample the RTO is three idle round
    /// trips of the calibration itself, not the 20 ms floor. And by
    /// Karn's rule the fault that needed the retransmissions leaves no
    /// sample, only its backoff for the host's next fault.
    #[test]
    fn unanswered_request_is_resent_after_one_rto_then_two_more() {
        let c = Calib::sun3_sunos4();
        let serve = c.reply_cost(32);
        let rto = c.no_load_round_trip(32).saturating_mul(3);
        assert_eq!(rto.as_nanos() / 1_000_000, 87);

        let mut h = hardened_host();
        let waiter = open_read_fault(&mut h);
        let first = SimTime::ZERO + rto;
        assert_eq!(h.take_retries(), [(waiter as usize, first, 0)]);
        send_request(&mut h, SimTime::ZERO);

        // The reply is lost: one RTO after the fault, the request goes
        // out again and the timer is re-armed at twice the timeout.
        assert!(h.retry_fired(first, waiter, 0).is_some());
        assert_eq!(h.fault_retransmits, 1);
        let second = first + rto.saturating_mul(2);
        assert_eq!(h.take_retries(), [(waiter as usize, second, 0)]);
        send_request(&mut h, first);

        // Lost again: RTO + 2 RTO after the fault, four on the timer.
        assert!(h.retry_fired(second, waiter, 0).is_some());
        assert_eq!(h.fault_retransmits, 2);
        let third = second + rto.saturating_mul(4);
        assert_eq!(h.take_retries(), [(waiter as usize, third, 0)]);
        let (sent, req) = send_request(&mut h, second);

        // This one is answered after an honest serve time.
        let woken = install(&mut h, sent + serve, holder_reply(&req));
        assert_eq!(h.open_hist().expect("attached").count(), 1);
        assert!(h.retry_fired(third, waiter, 0).is_none(), "stale timer");
        let est = h.fault_rto().expect("retry armed");
        assert_eq!(est.srtt_ns(), None, "a retransmitted fault is no sample");
        assert_eq!(est.backoff(), 2, "its backoff carries to the next fault");
        assert_eq!(woken.since(sent), h.reply_floor);
        assert_eq!(
            h.spurious_retransmits, 0,
            "the reply could be to the resend"
        );
    }

    /// A timer that fires on a request still being served re-sends it
    /// for nothing: the reply lands sooner after the re-send than any
    /// reply to it could, and is counted as spurious.
    #[test]
    fn reply_sooner_than_a_round_trip_after_the_resend_is_spurious() {
        let mut h = hardened_host();
        let waiter = open_read_fault(&mut h);
        let fire_at = h.take_retries()[0].1;
        let (_, req) = send_request(&mut h, SimTime::ZERO);
        assert!(h.retry_fired(fire_at, waiter, 0).is_some());
        // The late reply to the first request lands as the re-send
        // leaves: no holder could have served that one yet.
        let (resent, _) = send_request(&mut h, fire_at);
        install(&mut h, resent, holder_reply(&req));
        assert_eq!((h.fault_retransmits, h.spurious_retransmits), (1, 1));
    }

    /// A clean fault is a sample: the first sets the smoothed round
    /// trip, and the timeout (three of them) replaces the calibration's
    /// guess.
    #[test]
    fn fault_answered_by_its_first_request_is_sampled() {
        let mut h = hardened_host();
        open_read_fault(&mut h);
        let (sent, req) = send_request(&mut h, SimTime::ZERO);
        let woken = install(
            &mut h,
            sent + SimDuration::from_millis(13),
            holder_reply(&req),
        );
        let rtt = woken.since(SimTime::ZERO).as_nanos();
        let est = h.fault_rto().expect("retry armed");
        assert_eq!(est.srtt_ns(), Some(rtt));
        assert_eq!(est.rto_ns(), rtt + 4 * (rtt / 2));
        assert_eq!((h.fault_retransmits, h.spurious_retransmits), (0, 0));
        assert!(host().fault_rto().is_none(), "paper calibration: no timer");
    }

    /// Issues one operation, then exits.
    struct OneOp(Option<DsmOp>);

    impl Workload for OneOp {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            self.0.take().map_or(Step::Done, Step::Op)
        }
    }

    /// A read-only read of page 3 through `view`.
    fn read_op(view: View) -> DsmOp {
        DsmOp::Read {
            page: PageId::new(3),
            view,
            mode: MapMode::ReadOnly,
            offset: 0,
        }
    }

    /// A data wait sends nothing, so its timer is not a retransmission:
    /// when it fires the read is escalated to one demand fetch, whose
    /// request is the fault's first — counted as no retransmission and
    /// sampled like any other round trip.
    #[test]
    fn data_wait_timer_escalates_to_a_first_demand_request() {
        let mut h = hardened_host();
        h.add_process(Box::new(OneOp(Some(read_op(View::short_data())))));
        let trapped = h.dispatch(SimTime::ZERO).expect("trap burst");
        assert!(h.finish_burst(trapped).is_empty());
        assert!(h.dispatch(trapped).is_none(), "a data wait sends nothing");
        let (fire_at, epoch) = match h.take_retries()[..] {
            [(0, at, epoch)] => (at, epoch),
            ref other => panic!("one timer for proc 0, got {other:?}"),
        };
        let rto = h.fault_rto().expect("retry armed").rto_ns();
        assert_eq!(fire_at.since(trapped).as_nanos(), rto);

        assert!(h.retry_fired(fire_at, 0, epoch).is_some());
        let retrapped = h.dispatch(fire_at).expect("re-executed read");
        h.finish_burst(retrapped);
        let (sent, req) = send_request(&mut h, retrapped);
        assert!(matches!(
            req,
            Packet::PageRequest {
                want: Want::ReadOnly,
                ..
            }
        ));
        assert_eq!(h.fault_retransmits, 0);
        let woken = install(
            &mut h,
            sent + SimDuration::from_millis(13),
            holder_reply(&req),
        );
        let est = h.fault_rto().expect("retry armed");
        assert_eq!(est.srtt_ns(), Some(woken.since(retrapped).as_nanos()));
    }

    /// Reads page 3 through a short data-driven view every millisecond,
    /// forever: a P5 waiter spinning on its partner's page.
    struct Spinner(bool);

    impl Workload for Spinner {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            self.0 = !self.0;
            if !self.0 {
                Step::Compute(SimDuration::from_millis(1))
            } else {
                Step::Op(read_op(View::short_data()))
            }
        }
    }

    /// A spinner on `h` whose first read data-waits until host 1's
    /// purge broadcast installs a non-consistent copy of page 3; returns
    /// when the install woke it.
    fn spinner_on_a_snooped_copy(h: &mut HostSim) -> SimTime {
        h.add_process(Box::new(Spinner(false)));
        let trapped = h.dispatch(SimTime::ZERO).expect("trap burst");
        h.finish_burst(trapped);
        h.take_retries();
        h.deliver_packet(trapped, &refresh(1, 0));
        let mut now = trapped;
        while h.procs[0].state == ProcState::Blocked {
            now = h.dispatch(now).expect("the server installs the copy");
            h.finish_burst(now);
        }
        assert!(!h.table.is_consistent_holder(PageId::new(3)));
        now
    }

    /// Runs the host's bursts from `now` until its server has work
    /// queued or the clock passes `until`; returns the clock.
    fn run_until_server_work(h: &mut HostSim, mut now: SimTime, until: SimTime) -> SimTime {
        while now <= until && h.server_queue.is_empty() {
            now = h.dispatch(now).expect("the spinner always runs");
            h.finish_burst(now);
        }
        now
    }

    /// The read lease: a process that keeps reading a present,
    /// unchanged, non-consistent copy sends nothing for one RTO, then
    /// drops the copy and queues a demand request, and the blocked read
    /// keeps the demand view.
    #[test]
    fn read_lease_runs_out_after_one_rto_and_not_before() {
        let mut h = hardened_host();
        let installed = spinner_on_a_snooped_copy(&mut h);
        let rto = SimDuration::from_nanos(h.fault_rto().expect("retry armed").rto_ns());
        let now =
            run_until_server_work(&mut h, installed, installed + SimDuration::from_millis(10));
        let Some((page, generation, since)) = h.procs[0].lease else {
            panic!("the first hit starts the lease");
        };
        assert_eq!(
            (page, generation),
            (PageId::new(3), h.table.generation(page))
        );

        let quiet = run_until_server_work(&mut h, now, since + rto);
        assert!(
            h.server_queue.is_empty(),
            "asked before one RTO, at {quiet}"
        );
        let asked = run_until_server_work(&mut h, quiet, since + rto.saturating_mul(2));
        assert!(asked.since(since) > rto);
        assert!(
            asked.since(since) <= rto + SimDuration::from_millis(2),
            "the first read past the lease asks"
        );
        assert!(
            matches!(
                h.server_queue.front(),
                Some((
                    _,
                    ServerWork::SendPacket(Packet::PageRequest {
                        want: Want::ReadOnly,
                        ..
                    })
                ))
            ),
            "{:?}",
            h.server_queue
        );
        assert!(h.table.page_buf(page).is_none(), "the copy is dropped");
        let p = &h.procs[0];
        assert_eq!(p.blocked_kind, Some(FaultKind::DemandFetch));
        assert_eq!(p.pending_op, Some(read_op(View::short_demand())));
        assert_eq!(p.lease, None);
    }

    /// No lease without the retry timer, and none on a consistent
    /// holder's own copy: a second of spinning sends nothing.
    #[test]
    fn no_lease_for_a_consistent_holder_or_without_the_timer() {
        let second = SimTime::ZERO + SimDuration::from_secs(1);
        let mut paper = host();
        let installed = spinner_on_a_snooped_copy(&mut paper);
        run_until_server_work(&mut paper, installed, second);
        assert!(paper.server_queue.is_empty());
        assert_eq!(paper.procs[0].lease, None);

        let mut holder = hardened_host();
        holder.table.create_owned(PageId::new(3));
        holder.add_process(Box::new(Spinner(false)));
        run_until_server_work(&mut holder, SimTime::ZERO, second);
        assert!(holder.server_queue.is_empty());
        assert_eq!(holder.procs[0].lease, None);
    }

    /// The timeouts process 0's fault of `op` arms on `h`: at the first
    /// request and after each of two unanswered re-sends.
    fn timeouts_of_two_resends(mut h: HostSim, op: DsmOp) -> Vec<SimDuration> {
        h.add_process(Box::new(OneOp(Some(op))));
        let mut now = SimTime::ZERO;
        let mut timeouts = Vec::new();
        for _ in 0..3 {
            let blocked = loop {
                now = h.dispatch(now).expect("the process re-executes");
                h.finish_burst(now);
                if h.procs[0].state == ProcState::Blocked {
                    break now;
                }
            };
            let [(0, fire_at, epoch)] = h.take_retries()[..] else {
                panic!("one timer for process 0");
            };
            timeouts.push(fire_at.since(blocked));
            send_request(&mut h, blocked);
            assert!(h.retry_fired(fire_at, 0, epoch).is_some());
            now = fire_at;
        }
        assert_eq!(h.fault_retransmits, 2);
        timeouts
    }

    /// No doubling for reads: after two unanswered re-sends a process
    /// read's timer is still one RTO, while a write's has doubled twice
    /// (Karn's backoff).
    #[test]
    fn read_faults_rearm_at_one_rto_and_write_faults_double() {
        let rto =
            SimDuration::from_nanos(hardened_host().fault_rto().expect("retry armed").rto_ns());
        let read = timeouts_of_two_resends(hardened_host(), read_op(View::short_demand()));
        assert_eq!(read, [rto; 3]);
        let write = DsmOp::Write {
            page: PageId::new(3),
            view: View::short_demand(),
            offset: 0,
            value: 1,
        };
        let write = timeouts_of_two_resends(hardened_host(), write);
        assert_eq!(write, [rto, rto.saturating_mul(2), rto.saturating_mul(4)]);
    }

    /// Host 1's purge broadcast of page 3 at `generation`, every byte
    /// `fill`: it refreshes whatever copy host 0 keeps.
    fn refresh(generation: u64, fill: u8) -> Arc<Packet> {
        Arc::new(Packet::PageData {
            from: HostId(1),
            page: PageId::new(3),
            length: PageLength::Short,
            generation: mether_core::Generation(generation),
            transfer_to: None,
            data: bytes::Bytes::from(vec![fill; 32]),
        })
    }

    /// Delivers `pkt` at `now` and runs the server until it idles.
    /// Returns whether the NIC queued the frame, and the clock.
    fn snoop(h: &mut HostSim, mut now: SimTime, pkt: &Arc<Packet>) -> (bool, SimTime) {
        let queued = h.deliver_packet(now, pkt);
        while let Some(t) = h.dispatch(now) {
            h.finish_burst(t);
            now = t;
        }
        (queued, now)
    }

    /// Host 0 read-faults page 3 through `view` and installs the
    /// holder's reply, which wakes the fault: a copy it does not hold,
    /// with nobody waiting. Returns when the reply was installed.
    fn a_read_copy(h: &mut HostSim, view: View) -> SimTime {
        h.attach_open_loop(Box::new(OneShot(Some(OpenAccess {
            at: SimTime::ZERO,
            page: PageId::new(3),
            view,
            mode: MapMode::ReadOnly,
            cold: false,
        }))));
        h.open_arrival(SimTime::ZERO);
        let (sent, req) = send_request(h, SimTime::ZERO);
        let installed = install(h, sent, holder_reply(&req));
        assert_eq!(h.open_counts(), (1, 0, 1), "the reply woke the fault");
        installed
    }

    /// Reads page 3 on host 0's table through `view`, as a process or
    /// an open-loop arrival would.
    fn read_page_3(h: &mut HostSim, view: View) -> AccessOutcome {
        h.table
            .access(PageId::new(3), view, MapMode::ReadOnly, 7, &mut Vec::new())
            .expect("a read")
    }

    /// The data group: a copy that nobody here has read takes no
    /// refresh, however many frames come, until a read hit brings it
    /// back for the next frame. That frame leaves it unread again.
    #[test]
    fn an_unread_copy_stays_out_of_the_data_group_until_it_is_read() {
        let mut h = hardened_host();
        let now = a_read_copy(&mut h, View::short_demand());
        for generation in [2, 3] {
            let (queued, _) = snoop(&mut h, now, &refresh(generation, generation as u8));
            assert!(!queued, "unread refresh {generation} reached the server");
        }
        assert_eq!(h.frames_filtered, [0, 0, 2]);
        assert_eq!(
            read_page_3(&mut h, View::short_demand()),
            AccessOutcome::Ready
        );
        let (queued, now) = snoop(&mut h, now, &refresh(4, 4));
        assert!(queued, "the read brought the copy back");
        assert!(!h.deliver_packet(now, &refresh(5, 5)), "unread again");
        let page = PageId::new(3);
        assert_eq!(h.table.generation(page), mether_core::Generation(4));
        let word = h.table.page_buf(page).map(|b| b.read_u32(0));
        assert_eq!(word, Some(Ok(0x0404_0404)), "the copy kept its bytes");
    }

    /// Every server item is tallied by kind, and the kinds' times add
    /// up to the server's time: the request sent, the reply that woke
    /// the fault, and a refresh of the copy read since.
    #[test]
    fn server_time_is_tallied_by_kind_of_work() {
        let mut h = hardened_host();
        let installed = a_read_copy(&mut h, View::short_demand());
        read_page_3(&mut h, View::short_demand());
        let (queued, _) = snoop(&mut h, installed, &refresh(2, 2));
        assert!(queued, "a read copy is refreshed");
        let tally = h.server_work;
        let items = ServerKind::ALL.map(|kind| tally.items(kind));
        assert_eq!(
            items,
            [1, 0, 0, 0, 1, 1],
            "send, purge, answer, snoop, wake, refresh"
        );
        let short = MetherConfig::default().transfer_len(PageLength::Short);
        let install = h.calib.install_cost(short);
        assert_eq!(tally.time(ServerKind::Send), h.calib.server_send_request);
        assert_eq!(tally.time(ServerKind::Wake), install);
        assert_eq!(tally.time(ServerKind::Refresh), install);
        let total: SimDuration = ServerKind::ALL.iter().map(|&kind| tally.time(kind)).sum();
        assert_eq!(total, h.server_time);
    }

    /// A read that hits the copy between two frames keeps it in the
    /// data group: every frame is installed.
    #[test]
    fn a_read_between_refreshes_keeps_the_copy_refreshed() {
        let mut h = hardened_host();
        let mut now = a_read_copy(&mut h, View::short_demand());
        for generation in 2..6 {
            assert_eq!(
                read_page_3(&mut h, View::short_demand()),
                AccessOutcome::Ready
            );
            let (queued, t) = snoop(&mut h, now, &refresh(generation, generation as u8));
            assert!(queued, "refresh {generation} of a copy read since the last");
            now = t;
        }
        assert_eq!(
            h.table.generation(PageId::new(3)),
            mether_core::Generation(5)
        );
    }

    /// No free refresh: the reply that woke the fault leaves a copy
    /// nobody has read yet, so the very next data frame for it is
    /// dropped at the NIC, counted as filtered, at no server time, and
    /// the copy keeps the bytes and the generation the reply installed.
    #[test]
    fn a_copy_nobody_reads_takes_no_refresh() {
        let mut h = hardened_host();
        let now = a_read_copy(&mut h, View::short_demand());
        let page = PageId::new(3);
        let copy = |h: &HostSim| {
            let word = h.table.page_buf(page).map(|b| b.read_u32(0));
            (h.table.generation(page), word)
        };
        let installed = copy(&h);
        let (busy, mut filtered) = (h.server_time, h.frames_filtered);
        assert!(
            !h.deliver_packet(now, &refresh(2, 2)),
            "the first frame after an unread install reached the server"
        );
        filtered[NicDrop::Unread as usize] += 1;
        assert_eq!(h.frames_filtered, filtered);
        assert!(h.dispatch(now).is_none(), "nothing queued");
        assert_eq!(h.server_time, busy);
        assert_eq!(copy(&h), installed, "the copy kept its bytes");
    }

    /// Runs `h`'s woken process 0 from `now` until its re-executed read
    /// returns; returns the clock.
    fn re_read(h: &mut HostSim, mut now: SimTime) -> SimTime {
        while h.procs[0].last == OpResult::None {
            now = h.dispatch(now).expect("the woken process runs");
            h.finish_burst(now);
        }
        now
    }

    /// The one window a process can see: woken by a frame but not yet
    /// re-read, its copy is unread, so the next frame is dropped at the
    /// NIC and the re-executed read returns the bytes that woke it.
    #[test]
    fn a_frame_before_the_woken_process_re_reads_is_dropped() {
        let mut h = hardened_host();
        let woken = spinner_on_a_snooped_copy(&mut h);
        assert_eq!(h.procs[0].last, OpResult::None, "not yet re-read");
        assert!(
            !h.deliver_packet(woken, &refresh(2, 2)),
            "a frame in the window reached the server"
        );
        re_read(&mut h, woken);
        assert_eq!(h.procs[0].last, OpResult::Value(0));
        assert_eq!(
            h.table.generation(PageId::new(3)),
            mether_core::Generation(1)
        );
    }

    /// A process woken by a frame that re-reads (a hit) before the next
    /// frame arrives keeps its copy in the data group: the next frame
    /// is installed.
    #[test]
    fn a_woken_process_that_re_reads_still_gets_the_next_frame() {
        let mut h = hardened_host();
        let woken = spinner_on_a_snooped_copy(&mut h);
        let mut now = re_read(&mut h, woken);
        assert_eq!(h.procs[0].last, OpResult::Value(0));
        assert!(h.deliver_packet(now, &refresh(2, 2)), "the re-read kept it");
        while !h.server_queue.is_empty() {
            now = h.dispatch(now).expect("the server installs the frame");
            h.finish_burst(now);
        }
        assert_eq!(
            h.table.generation(PageId::new(3)),
            mether_core::Generation(2)
        );
        assert_eq!(h.frames_filtered, [0; 3]);
    }

    /// What keeps a copy in the data group however long it goes
    /// unread: a demand waiter, a data waiter, a grant to this host, a
    /// purged but mapped slot (the purge → data-read window), a full
    /// copy (the only one that answers `Superset`) and the holder
    /// (which merges superset bytes). Each one's next frame reaches
    /// the server, though nobody read the copy its fault installed.
    #[test]
    fn waiters_grants_purged_slots_full_copies_and_the_holder_are_refreshed_unread() {
        let page = PageId::new(3);
        let unread = |view: View| {
            let mut h = hardened_host();
            let now = a_read_copy(&mut h, view);
            (h, now)
        };

        let (mut h, now) = unread(View::short_demand());
        let outcome = read_page_3(&mut h, View::full_demand());
        assert_eq!(outcome, AccessOutcome::Blocked(FaultKind::DemandFetch));
        assert!(h.deliver_packet(now, &refresh(3, 3)), "a demand waiter");

        let (mut h, now) = unread(View::short_demand());
        let outcome = read_page_3(&mut h, View::full_data());
        assert_eq!(outcome, AccessOutcome::Blocked(FaultKind::DataWait));
        assert!(h.deliver_packet(now, &refresh(3, 3)), "a data waiter");

        let (mut h, now) = unread(View::short_demand());
        let grant = Packet::PageReply {
            from: HostId(1),
            page,
            length: PageLength::Short,
            generation: mether_core::Generation(3),
            transfer_to: Some(HostId(0)),
            data: bytes::Bytes::from(vec![3u8; 32]),
        };
        assert!(h.deliver_packet(now, &Arc::new(grant)), "a grant here");

        let (mut h, now) = unread(View::short_demand());
        let purged = h.table.purge(
            page,
            MapMode::ReadOnly,
            PageLength::Short,
            7,
            &mut Vec::new(),
        );
        assert_eq!(purged, Ok(AccessOutcome::Ready));
        assert!(h.table.page_buf(page).is_none());
        assert!(
            h.deliver_packet(now, &refresh(3, 3)),
            "a purged mapped slot"
        );

        let (mut h, now) = unread(View::full_demand());
        assert!(h
            .table
            .page_buf(page)
            .is_some_and(mether_core::PageBuf::full_valid));
        assert!(h.deliver_packet(now, &refresh(3, 3)), "a full copy");

        let mut h = hardened_host();
        let (sent, grant) = awaiting_a_grant(&mut h);
        let mut now = install(&mut h, sent, grant);
        assert!(h.table.is_consistent_holder(page));
        for generation in [2, 3, 4] {
            let (queued, t) = snoop(&mut h, now, &refresh(generation, 9));
            assert!(queued, "the holder, frame {generation}");
            now = t;
        }
        assert_eq!(h.frames_filtered, [0; 3]);
    }

    /// Without the hardened NIC every data frame reaches the server,
    /// read or not.
    #[test]
    fn without_the_nic_filter_every_refresh_is_queued() {
        let mut h = host();
        let mut now = a_read_copy(&mut h, View::short_demand());
        for generation in [2, 3, 4] {
            let (queued, t) = snoop(&mut h, now, &refresh(generation, 9));
            assert!(queued, "refresh {generation}");
            now = t;
        }
        assert_eq!(h.frames_filtered, [0; 3]);
        assert_eq!(
            h.table.generation(PageId::new(3)),
            mether_core::Generation(4)
        );
    }
}
