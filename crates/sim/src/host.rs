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
//! One thing here is not the paper's: when [`crate::Calib::fault_retry`]
//! is set, a fault whose reply does not come is re-sent. The timeout is
//! measured, not configured — every host keeps one
//! [`mether_core::RtoEstimator`], fed the round trip of each fault its
//! first request satisfied and asked for the timeout wherever a fault
//! blocks (`block`, `open_arrival`, `open_retry_fired`). A fault that
//! had to re-send gives no sample and doubles its own timer per
//! attempt; a data wait sends nothing, so it arms the timer but is
//! neither a sample nor a retransmission. What the timer did is counted
//! beside the other serving counters: [`HostSim::fault_retransmits`],
//! [`HostSim::spurious_retransmits`].
//!
//! The CPU executes *bursts*: a compute slice, a memory/trap cost for a
//! DSM operation, one server work item, or a context switch. The
//! simulation schedules one `BurstEnd` event per host at a time.

use crate::calib::Calib;
use crate::hist::LatencyHistogram;
use crate::process::{DsmOp, OpResult, Step, StepCtx, Workload, WorkloadCounters};
use mether_core::rto::MAX_BACKOFF;
use mether_core::table::WaiterId;
use mether_core::{
    AccessOutcome, DriveMode, Effect, FaultKind, MapMode, MetherConfig, Packet, PageId, PageLength,
    PageTable, RtoEstimator, View, Want,
};
use mether_net::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Base of the waiter-id namespace used by the open-loop driver. Process
/// waiters are process indices (small); open-loop waiters are
/// `OPEN_WAITER_BASE + issue-sequence`, so the two can share the page
/// table's wait lists without colliding.
pub(crate) const OPEN_WAITER_BASE: WaiterId = 1 << 32;

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
/// [`Calib::fault_retry`] exists for on the process side).
struct OpenWait {
    waiter: WaiterId,
    issued_at: SimTime,
    page: PageId,
    view: View,
    mode: MapMode,
    retry: FaultRetry,
}

/// Retransmission state of one outstanding fault.
#[derive(Debug, Clone, Copy)]
struct FaultRetry {
    /// When the fault's latest request was queued for the server.
    sent_at: SimTime,
    /// Doublings on the timer now armed: the host's carried backoff
    /// plus one per unanswered request of this fault.
    backoff: u32,
    /// The request has been sent more than once, so a reply cannot be
    /// matched to a send time (Karn's rule: no sample).
    retransmitted: bool,
}

impl FaultRetry {
    /// The state after this fault's timer fired and its request was
    /// re-sent at `now`.
    fn resent(self, now: SimTime) -> FaultRetry {
        FaultRetry {
            sent_at: now,
            backoff: (self.backoff + 1).min(MAX_BACKOFF),
            retransmitted: true,
        }
    }
}

/// Are `a` and `b` page requests that one broadcast reply satisfies
/// both of? Same page, length, and want — plus same requester for
/// directed consistency transfers.
fn same_request(a: &Packet, b: &Packet) -> bool {
    let (
        Packet::PageRequest {
            from: af,
            page: ap,
            length: al,
            want: aw,
        },
        Packet::PageRequest {
            from: bf,
            page: bp,
            length: bl,
            want: bw,
        },
    ) = (a, b)
    else {
        return false;
    };
    ap == bp && al == bl && aw == bw && (*aw != Want::Consistent || af == bf)
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
    /// Retransmission state of the request-bearing fault the process is
    /// blocked on, kept across the re-blocks of one fault; `None`
    /// between faults and during a data wait.
    retry: Option<FaultRetry>,
    label: String,
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
    /// Re-send the current-generation `PageData` broadcast for a page
    /// this host still holds consistent — the periodic loss-recovery
    /// retransmission of [`Calib::holder_rebroadcast`]. No consistency
    /// state changes; dropped silently if consistency moved away.
    HolderRebroadcast { page: PageId, length: PageLength },
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
    },
    CtxSwitch {
        to: Slot,
    },
}

/// Things the host asks the simulation to do after a burst.
#[derive(Debug)]
pub enum HostAction {
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
    server_queue: VecDeque<ServerWork>,
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
    /// Frames this host's NIC snooped off its segment — the per-host
    /// share of network load that segment filtering is meant to shrink.
    pub frames_heard: u64,
    /// Peak depth of the server work queue (degeneration diagnostic).
    pub max_server_queue: usize,
    /// Page requests dropped at the NIC because an identical request
    /// was already queued (its broadcast reply satisfies both).
    pub requests_coalesced: u64,
    /// Queued page requests dropped at serve time because the reply
    /// just broadcast for an identical request satisfies them too
    /// ([`Calib::piggyback_replies`]).
    pub requests_piggybacked: u64,
    /// Requests re-sent because a fault's retransmission timer fired
    /// before its reply came.
    pub fault_retransmits: u64,
    /// Retransmitted faults satisfied sooner after their last re-send
    /// than an idle holder's serve plus the local install take, so the
    /// reply cannot have been to it: the timer fired on a request that
    /// was still being served.
    pub spurious_retransmits: u64,
    /// The retransmission timer of this host's faults, measured from
    /// its own completed ones; `None` when [`Calib::fault_retry`] is.
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
    /// the simulation into retry events; only armed when
    /// [`Calib::fault_retry`] is set.
    pending_retries: Vec<(usize, SimTime, u64)>,
    /// Pending writeable-purge broadcast lengths, page → view length.
    purge_lengths: Vec<(PageId, PageLength)>,
    /// Pages this host has published as the consistent holder (a purge
    /// broadcast went out), with the length last broadcast — the
    /// candidate set for [`Calib::holder_rebroadcast`]. Entries whose
    /// consistency has moved away are skipped at queue time.
    published_pages: Vec<(PageId, PageLength)>,
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
            .fault_retry
            .map(|floor| RtoEstimator::new(floor.as_nanos(), no_load.as_nanos()));
        HostSim {
            index,
            calib,
            table: PageTable::new(mether_core::HostId(index as u16), cfg),
            procs: Vec::new(),
            run_queue: VecDeque::new(),
            server_queue: VecDeque::new(),
            server_ready_since: None,
            current: None,
            current_burst: None,
            current_started: SimTime::ZERO,
            last_ran: None,
            ctx_switches: 0,
            fault_latencies: Vec::new(),
            server_time: SimDuration::ZERO,
            frames_heard: 0,
            max_server_queue: 0,
            requests_coalesced: 0,
            requests_piggybacked: 0,
            fault_retransmits: 0,
            spurious_retransmits: 0,
            rto,
            reply_floor,
            open: None,
            pending_sleeps: Vec::new(),
            pending_retries: Vec::new(),
            purge_lengths: Vec::new(),
            published_pages: Vec::new(),
            wake_boost: false,
        }
    }

    /// Adds an application process; returns its index.
    pub fn add_process(&mut self, workload: Box<dyn Workload>) -> usize {
        let label = workload.label().to_string();
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
            label,
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
    pub fn open_next_at(&self) -> Option<SimTime> {
        self.open
            .as_ref()
            .and_then(|ol| ol.next.as_ref().map(|a| a.at))
    }

    /// Injects the buffered open-loop access at `now`: stamps issue time,
    /// runs it against the page table (a miss blocks an open waiter and
    /// usually queues a request for the server), and buffers the next
    /// arrival from the stream. Returns transmissions exactly like
    /// `finish_burst`.
    pub fn open_arrival(&mut self, now: SimTime) -> Vec<HostAction> {
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
                let retry = self.first_request(now);
                self.arm_retry(waiter as usize, now, retry, 0);
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

    /// The retransmission timer of open-loop waiter `waiter` fired.
    /// Returns `None` if the fault was already satisfied (a stale timer —
    /// waiter ids are never reused, so presence in the outstanding list
    /// is the whole liveness check). Otherwise abandons the wait,
    /// re-issues the access under the *same* waiter id and issue
    /// timestamp (the histogram must charge the retry's cost to the
    /// fault), re-arms the timer at twice its last timeout if it blocks
    /// again, and returns the transmissions.
    pub fn open_retry_fired(&mut self, now: SimTime, waiter: WaiterId) -> Option<Vec<HostAction>> {
        // The index holds to the end: nothing below touches the list
        // before the effects are applied.
        let ol = self.open.as_ref()?;
        let pos = ol.outstanding.iter().position(|w| w.waiter == waiter)?;
        let OpenWait {
            page, view, mode, ..
        } = ol.outstanding[pos];
        self.table.cancel_wait(page, waiter);
        if mode == MapMode::ReadOnly {
            // Same escalation as a process data-wait retry: shed any
            // snooped copy so the re-execution demand-fetches and
            // re-stamps the fabric's learned interest.
            self.table.drop_stale_copy(page);
        }
        let mut effects = Vec::new();
        let mut actions = Vec::new();
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
                let ol = self.open.as_mut().expect("checked above");
                let retry = ol.outstanding[pos].retry.resent(now);
                ol.outstanding[pos].retry = retry;
                self.fault_retransmits += 1;
                self.arm_retry(waiter as usize, now, retry, 0);
            }
            Err(e) => panic!("open-loop retry bug: {e}"),
        }
        self.apply_effects(now, effects, &mut actions);
        Some(actions)
    }

    /// The open-loop fault-latency histogram, when a stream is attached.
    pub fn open_hist(&self) -> Option<&LatencyHistogram> {
        self.open.as_ref().map(|ol| &ol.hist)
    }

    /// Unsatisfied open-loop faults: `(waiter, page, mode)` per entry.
    /// Empty after a healthy drain; the soak/debug harnesses print it
    /// when a run ends unfinished.
    pub fn open_outstanding(&self) -> Vec<(WaiterId, PageId, MapMode)> {
        self.open
            .as_ref()
            .map(|ol| {
                ol.outstanding
                    .iter()
                    .map(|w| (w.waiter, w.page, w.mode))
                    .collect()
            })
            .unwrap_or_default()
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

    /// Label of process `i`.
    pub fn proc_label(&self, i: usize) -> &str {
        &self.procs[i].label
    }

    /// A packet arrived from the network: queue it for the server.
    ///
    /// Under [`Calib::coalesce_requests`], page requests coalesce
    /// against the queue: every reply is a broadcast the whole wire
    /// snoops, so one queued request per distinct (page, length, want)
    /// already satisfies every waiter a duplicate could. Without this,
    /// blocked clients retrying faster than the server's per-request
    /// cost (13 ms at paper pace) grow the queue without bound and
    /// starve the server's own purge broadcasts behind hundreds of
    /// identical replies. Consistency transfers are directed at one
    /// requester, so those only coalesce with a retry from the same
    /// host. Off by default: the paper's servers processed every
    /// datagram individually, and its measured protocol rankings
    /// (notably P3's divergence) include that duplicated load.
    pub fn deliver_packet(&mut self, now: SimTime, pkt: Arc<Packet>) {
        self.frames_heard += 1;
        if self.calib.coalesce_requests && self.is_duplicate_request(pkt.as_ref()) {
            self.requests_coalesced += 1;
            return;
        }
        self.push_server_work(now, ServerWork::Packet(pkt));
    }

    /// Is `pkt` a page request identical (same page, length, and want —
    /// plus same requester for directed consistency transfers) to one
    /// already sitting in the server queue?
    fn is_duplicate_request(&self, pkt: &Packet) -> bool {
        if !matches!(pkt, Packet::PageRequest { .. }) {
            return false;
        }
        self.server_queue
            .iter()
            .any(|w| matches!(w, ServerWork::Packet(q) if same_request(pkt, q.as_ref())))
    }

    /// A sleep timer fired for process `proc`.
    ///
    /// The woken sleeper takes the one-shot boost (see `choose`), just
    /// like a fault wakeup: without it, a host whose server queue never
    /// drains — e.g. a page's home segment under a steady request load —
    /// starves the ready process indefinitely, because the idle branch
    /// of the scheduler always prefers pending server work.
    pub fn timer_fired(&mut self, proc: usize) {
        if self.procs[proc].state == ProcState::Sleeping {
            self.procs[proc].state = ProcState::Ready;
            self.run_queue.push_back(proc);
            self.wake_boost = true;
        }
    }

    /// Is the CPU idle (no burst outstanding)?
    pub fn cpu_idle(&self) -> bool {
        self.current_burst.is_none()
    }

    /// The periodic holder re-broadcast interval, when enabled.
    pub fn holder_rebroadcast_interval(&self) -> Option<SimDuration> {
        self.calib.holder_rebroadcast
    }

    /// Queues a [`ServerWork::HolderRebroadcast`] for every page this
    /// host published as the consistent holder and still holds, unless
    /// an identical retransmission is already waiting in the server
    /// queue (a saturated server must not accumulate them). Driven by
    /// the simulation's periodic re-broadcast event; returns how many
    /// were queued.
    pub fn queue_holder_rebroadcasts(&mut self, now: SimTime) -> usize {
        let mut queued = 0;
        for i in 0..self.published_pages.len() {
            let (page, length) = self.published_pages[i];
            if !self.table.is_consistent_holder(page) || self.table.purge_pending(page) {
                continue;
            }
            let already = self
                .server_queue
                .iter()
                .any(|w| matches!(w, ServerWork::HolderRebroadcast { page: p, .. } if *p == page));
            if already {
                continue;
            }
            self.push_server_work(now, ServerWork::HolderRebroadcast { page, length });
            queued += 1;
        }
        queued
    }

    /// Drains sleep requests made during dispatch; the simulation turns
    /// them into timer events.
    pub fn take_sleeps(&mut self) -> Vec<(usize, SimTime)> {
        std::mem::take(&mut self.pending_sleeps)
    }

    /// Drains fault-retry timers armed while blocking; the simulation
    /// turns them into retry events.
    pub fn take_retries(&mut self) -> Vec<(usize, SimTime, u64)> {
        std::mem::take(&mut self.pending_retries)
    }

    /// The retransmission timer of process `proc` (armed at `epoch`)
    /// fired. If the process is still blocked on that same fault, the
    /// wait is abandoned ([`mether_core::PageTable::cancel_wait`],
    /// clearing the request-dedup latch) and the process re-issues the
    /// faulting access, which retransmits the request — the recovery
    /// path for a reply lost to a dead bridge or a partitioned fabric.
    /// The re-block arms the timer at twice the timeout that just
    /// expired.
    ///
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
    /// Returns true if the process was unblocked for the retry.
    pub fn retry_fired(&mut self, proc: usize, epoch: u64) -> bool {
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
            return false;
        }
        let page = match &p.pending_op {
            Some(DsmOp::Read { page, .. }) | Some(DsmOp::Write { page, .. }) => *page,
            _ => return false,
        };
        let was_data_wait = p.blocked_kind == Some(FaultKind::DataWait);
        p.state = ProcState::Ready;
        p.blocked_kind = None;
        self.table.cancel_wait(page, proc as WaiterId);
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
        true
    }

    /// This host's retransmission-timeout estimator, when
    /// [`Calib::fault_retry`] is set.
    pub fn fault_rto(&self) -> Option<&RtoEstimator> {
        self.rto.as_ref()
    }

    /// Retransmission state of a fault whose first request is queued at
    /// `now`: it starts from whatever backoff the host's last
    /// retransmitted fault left.
    fn first_request(&self, now: SimTime) -> FaultRetry {
        FaultRetry {
            sent_at: now,
            backoff: self.rto.as_ref().map_or(0, RtoEstimator::backoff),
            retransmitted: false,
        }
    }

    /// Arms the retransmission timer of `waiter`'s fault (when enabled):
    /// the host's measured timeout, doubled `retry.backoff` times.
    fn arm_retry(&mut self, waiter: usize, now: SimTime, retry: FaultRetry, epoch: u64) {
        if let Some(rto) = &self.rto {
            let timeout = SimDuration::from_nanos(rto.timeout_ns(retry.backoff));
            self.pending_retries.push((waiter, now + timeout, epoch));
        }
    }

    /// A request-bearing fault was satisfied at `now`. Sent once, its
    /// round trip is a sample; retransmitted, it gives none and its
    /// backoff carries to the host's next fault (Karn's rule).
    fn request_answered(&mut self, now: SimTime, retry: FaultRetry) {
        let Some(rto) = self.rto.as_mut() else {
            return;
        };
        let since_sent = now.since(retry.sent_at);
        if retry.retransmitted {
            rto.retransmitted(retry.backoff);
            if since_sent < self.reply_floor {
                self.spurious_retransmits += 1;
            }
        } else {
            rto.sample(since_sent.as_nanos());
        }
    }

    fn push_server_work(&mut self, now: SimTime, work: ServerWork) {
        if self.server_queue.is_empty() {
            self.server_ready_since = Some(now);
        }
        self.server_queue.push_back(work);
        self.max_server_queue = self.max_server_queue.max(self.server_queue.len());
    }

    fn server_cost(&self, work: &ServerWork) -> SimDuration {
        match work {
            ServerWork::SendPacket(_) => self.calib.server_send_request,
            ServerWork::PurgeBroadcast { .. } | ServerWork::HolderRebroadcast { .. } => {
                self.calib.server_purge_broadcast
            }
            ServerWork::Packet(pkt) => match pkt.as_ref() {
                Packet::PageRequest {
                    page, want, length, ..
                } => {
                    let answers = match want {
                        Want::ReadOnly | Want::Consistent => self.table.is_consistent_holder(*page),
                        Want::Superset => {
                            !self.table.is_consistent_holder(*page)
                                && self
                                    .table
                                    .page_buf(*page)
                                    .is_some_and(mether_core::PageBuf::full_valid)
                        }
                    };
                    if answers {
                        let bytes = match want {
                            Want::Superset => mether_core::PAGE_SIZE,
                            _ => self.table.config().transfer_len(*length),
                        };
                        self.calib.reply_cost(bytes)
                    } else {
                        self.calib.server_snoop
                    }
                }
                Packet::PageData {
                    page,
                    data,
                    transfer_to,
                    ..
                } => {
                    // (A page with a buffer has a slot.)
                    let interested = transfer_to == &Some(mether_core::HostId(self.index as u16))
                        || self.table.tracks(*page);
                    if interested {
                        self.calib.install_cost(data.len())
                    } else {
                        self.calib.server_snoop
                    }
                }
                // Control frames are NIC-filtered before the server ever
                // sees them; the simulator never delivers them to hosts,
                // so this arm only keeps the cost model total.
                Packet::BridgePdu { .. } | Packet::BridgePduDelta { .. } => self.calib.server_snoop,
            },
        }
    }

    /// Picks and starts the next burst if the CPU is idle. Returns the
    /// burst completion time to schedule, if any.
    pub fn dispatch(&mut self, now: SimTime) -> Option<SimTime> {
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
                    let work = self.server_queue.front().expect("chose server with work");
                    let d = self.server_cost(work);
                    let work = self.server_queue.pop_front().expect("non-empty");
                    if self.server_queue.is_empty() {
                        self.server_ready_since = None;
                    } else {
                        self.server_ready_since = Some(now);
                    }
                    self.current_burst = Some(Burst::ServerItem { work, d });
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
    pub fn finish_burst(&mut self, now: SimTime) -> Vec<HostAction> {
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
            Burst::ServerItem { work, d } => {
                self.server_time += d;
                self.exec_server(now, work, &mut actions);
            }
        }
        actions
    }

    fn exec_op(&mut self, now: SimTime, proc: usize, op: DsmOp, actions: &mut Vec<HostAction>) {
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
                match self.table.purge(*page, *mode, waiter, &mut effects) {
                    Ok(AccessOutcome::Ready) => Some(OpResult::Done),
                    Ok(AccessOutcome::Blocked(kind)) => {
                        // Record the broadcast length for the server.
                        self.purge_lengths.push((*page, *length));
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

    fn block(&mut self, now: SimTime, proc: usize, op: DsmOp, kind: FaultKind) {
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
            // this is the same fault re-sending its request.
            let retry = match p.retry {
                Some(retry) => {
                    self.fault_retransmits += 1;
                    retry.resent(now)
                }
                None => self.first_request(now),
            };
            // A data wait only borrows the timer: it sent nothing, so
            // there is no round trip to sample and nothing to re-send.
            if kind != FaultKind::DataWait {
                self.procs[proc].retry = Some(retry);
            }
            self.arm_retry(proc, now, retry, epoch);
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
            if let Some(retry) = self.procs[proc].retry.take() {
                self.request_answered(now, retry);
            }
        }
    }

    fn exec_server(&mut self, now: SimTime, work: ServerWork, actions: &mut Vec<HostAction>) {
        match work {
            ServerWork::SendPacket(pkt) => actions.push(HostAction::Transmit(pkt)),
            ServerWork::PurgeBroadcast { page, length } => {
                let mut effects = Vec::new();
                match self.table.server_purge_broadcast(page, length) {
                    Ok(pkt) => {
                        actions.push(HostAction::Transmit(pkt));
                        // This host is publishing as the holder: remember
                        // the page so the periodic holder re-broadcast
                        // can retransmit it if the knob is on.
                        match self.published_pages.iter_mut().find(|(p, _)| *p == page) {
                            Some(entry) => entry.1 = length,
                            None => self.published_pages.push((page, length)),
                        }
                    }
                    Err(_) => {
                        // Consistency moved away before the server got to
                        // it; nothing to broadcast.
                    }
                }
                self.table.do_purge(page, &mut effects);
                self.apply_effects(now, effects, actions);
            }
            ServerWork::HolderRebroadcast { page, length } => {
                // A pure retransmission: same generation, no state
                // change. Dropped silently when consistency moved away
                // or a purge is already pending (its broadcast — at the
                // next generation — supersedes this one).
                if let Ok(pkt) = self.table.holder_rebroadcast(page, length) {
                    actions.push(HostAction::Transmit(pkt));
                }
            }
            ServerWork::Packet(pkt) => {
                let mut effects = Vec::new();
                self.table.handle_packet(&pkt, &mut effects);
                if self.calib.piggyback_replies {
                    self.piggyback_queued(pkt.as_ref(), &effects);
                }
                self.apply_effects(now, effects, actions);
            }
        }
    }

    /// Serve-time reply piggybacking ([`Calib::piggyback_replies`]): the
    /// server just answered `served` with a broadcast `PageData` reply;
    /// any queued requests that same reply satisfies are dropped now
    /// instead of each costing a full serve leg. NIC-level coalescing
    /// cannot catch these — they arrived while `served` was already
    /// popped and being processed.
    fn piggyback_queued(&mut self, served: &Packet, effects: &[Effect]) {
        if !matches!(served, Packet::PageRequest { .. }) {
            return;
        }
        let replied = effects
            .iter()
            .any(|fx| matches!(fx, Effect::Send(Packet::PageData { .. })));
        if !replied {
            return;
        }
        let before = self.server_queue.len();
        self.server_queue.retain(|w| {
            let ServerWork::Packet(q) = w else {
                return true;
            };
            !same_request(served, q.as_ref())
        });
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
                Effect::ServerPurge(page) => {
                    let length = self
                        .purge_lengths
                        .iter()
                        .rev()
                        .find(|(p, _)| *p == page)
                        .map(|(_, l)| *l)
                        .unwrap_or(PageLength::Full);
                    self.purge_lengths.retain(|(p, _)| *p != page);
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

    fn coalescing_host() -> HostSim {
        HostSim::new(
            0,
            Calib::sun3_sunos4().with_request_coalescing(),
            MetherConfig::default(),
        )
    }

    fn request(from: u16, page: u32) -> Arc<Packet> {
        Arc::new(Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            want: Want::ReadOnly,
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
            h.deliver_packet(now, request(1, p));
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

    /// Identical queued page requests coalesce at the NIC (when
    /// [`Calib::coalesce_requests`] is on): the one broadcast reply
    /// satisfies every requester on the wire. Flushed by soak seed 24:
    /// five readers retrying a 13 ms-per-reply server every 20 ms
    /// backlogged its queue without bound.
    #[test]
    fn identical_requests_coalesce_in_server_queue() {
        let mut h = coalescing_host();
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(2, 7)); // other host, same ask
        h.deliver_packet(SimTime::ZERO, request(1, 8)); // different page
        assert_eq!(h.requests_coalesced, 2);
        assert_eq!(h.frames_heard, 4);
    }

    /// Consistency transfers are directed at one requester: requests
    /// from different hosts must both be served, only a same-host retry
    /// coalesces.
    #[test]
    fn consistent_requests_coalesce_per_host_only() {
        let mut h = coalescing_host();
        let consistent = |from: u16| {
            Arc::new(Packet::PageRequest {
                from: HostId(from),
                page: PageId::new(3),
                length: PageLength::Short,
                want: Want::Consistent,
            })
        };
        h.deliver_packet(SimTime::ZERO, consistent(1));
        h.deliver_packet(SimTime::ZERO, consistent(2));
        assert_eq!(h.requests_coalesced, 0);
        h.deliver_packet(SimTime::ZERO, consistent(1));
        assert_eq!(h.requests_coalesced, 1);
    }

    /// The default calibration is the paper's: every datagram reaches
    /// the server individually, duplicates included — P3's measured
    /// divergence on the counting benchmark depends on that load.
    #[test]
    fn paper_calibration_serves_every_duplicate() {
        let mut h = host();
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(2, 7));
        assert_eq!(h.requests_coalesced, 0);
        assert_eq!(h.frames_heard, 3);
    }

    /// Serve-time piggybacking: the broadcast reply for one request
    /// also satisfies identical requests that queued while it was being
    /// served, so they are dropped instead of each costing a full
    /// 13 ms+ serve leg. NIC-level coalescing cannot catch these — the
    /// served request was already popped when they arrived.
    #[test]
    fn serve_time_piggyback_drops_identical_queued_requests() {
        let mut h = HostSim::new(
            0,
            Calib::sun3_sunos4().with_reply_piggyback(),
            MetherConfig::default(),
        );
        h.table.create_owned(PageId::new(7));
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(2, 7));
        h.deliver_packet(SimTime::ZERO, request(3, 7));
        h.deliver_packet(SimTime::ZERO, request(1, 8)); // different page
        assert_eq!(h.requests_coalesced, 0, "coalescing is off");
        let t = h.dispatch(SimTime::ZERO).expect("server burst");
        let actions = h.finish_burst(t);
        assert!(
            matches!(actions[..], [HostAction::Transmit(Packet::PageData { .. })]),
            "holder answers with a broadcast reply"
        );
        assert_eq!(h.requests_piggybacked, 2);
        // Only the different-page request is left to serve.
        let t2 = h.dispatch(t).expect("one more burst");
        h.finish_burst(t2);
        assert_eq!(h.requests_piggybacked, 2);
        assert!(h.dispatch(t2).is_none(), "queue drained");
    }

    /// Paper default: no piggybacking — every queued duplicate is served
    /// individually.
    #[test]
    fn default_serves_queued_duplicates_individually() {
        let mut h = host();
        h.table.create_owned(PageId::new(7));
        h.deliver_packet(SimTime::ZERO, request(1, 7));
        h.deliver_packet(SimTime::ZERO, request(2, 7));
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
                Effect::Send(p @ Packet::PageData { .. }) => Some(p),
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
        h.deliver_packet(now, Arc::new(reply));
        let t = h.dispatch(now).expect("install burst");
        h.finish_burst(t);
        t
    }

    fn retrying_host() -> HostSim {
        let calib = Calib::sun3_sunos4().with_fault_retry(SimDuration::from_millis(20));
        HostSim::new(0, calib, MetherConfig::default())
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

        let mut h = retrying_host();
        let waiter = open_read_fault(&mut h);
        let first = SimTime::ZERO + rto;
        assert_eq!(h.take_retries(), [(waiter as usize, first, 0)]);
        send_request(&mut h, SimTime::ZERO);

        // The reply is lost: one RTO after the fault, the request goes
        // out again and the timer is re-armed at twice the timeout.
        assert!(h.open_retry_fired(first, waiter).is_some());
        assert_eq!(h.fault_retransmits, 1);
        let second = first + rto.saturating_mul(2);
        assert_eq!(h.take_retries(), [(waiter as usize, second, 0)]);
        send_request(&mut h, first);

        // Lost again: RTO + 2 RTO after the fault, four on the timer.
        assert!(h.open_retry_fired(second, waiter).is_some());
        assert_eq!(h.fault_retransmits, 2);
        let third = second + rto.saturating_mul(4);
        assert_eq!(h.take_retries(), [(waiter as usize, third, 0)]);
        let (sent, req) = send_request(&mut h, second);

        // This one is answered after an honest serve time.
        let woken = install(&mut h, sent + serve, holder_reply(&req));
        assert_eq!(h.open_hist().expect("attached").count(), 1);
        assert!(h.open_retry_fired(third, waiter).is_none(), "stale timer");
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
        let mut h = retrying_host();
        let waiter = open_read_fault(&mut h);
        let fire_at = h.take_retries()[0].1;
        let (_, req) = send_request(&mut h, SimTime::ZERO);
        assert!(h.open_retry_fired(fire_at, waiter).is_some());
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
        let mut h = retrying_host();
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

    /// Reads one page through a data-driven view, then exits.
    struct OneDataRead(bool);

    impl Workload for OneDataRead {
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
            if std::mem::replace(&mut self.0, true) {
                return Step::Done;
            }
            Step::Op(DsmOp::Read {
                page: PageId::new(3),
                view: View::short_data(),
                mode: MapMode::ReadOnly,
                offset: 0,
            })
        }
    }

    /// A data wait sends nothing, so its timer is not a retransmission:
    /// when it fires the read is escalated to one demand fetch, whose
    /// request is the fault's first — counted as no retransmission and
    /// sampled like any other round trip.
    #[test]
    fn data_wait_timer_escalates_to_a_first_demand_request() {
        let mut h = retrying_host();
        h.add_process(Box::new(OneDataRead(false)));
        let trapped = h.dispatch(SimTime::ZERO).expect("trap burst");
        assert!(h.finish_burst(trapped).is_empty());
        assert!(h.dispatch(trapped).is_none(), "a data wait sends nothing");
        let (fire_at, epoch) = match h.take_retries()[..] {
            [(0, at, epoch)] => (at, epoch),
            ref other => panic!("one timer for proc 0, got {other:?}"),
        };
        let rto = h.fault_rto().expect("retry armed").rto_ns();
        assert_eq!(fire_at.since(trapped).as_nanos(), rto);

        assert!(h.retry_fired(0, epoch));
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
}
