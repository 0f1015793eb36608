//! The event engine: lanes, the control plane, and the coordinator
//! that runs them.
//!
//! # One executor
//!
//! A [`Lane`] owns a contiguous run of segments — their hosts, their
//! media, and the heap of events local to them — and is the only code
//! that executes host-side events (burst ends, deliveries, timers,
//! retries, re-broadcasts, open-loop arrivals, bridge-forward exits).
//! [`Ctrl`] owns the bridge fabric and is the only code that executes
//! the three control-plane kinds (hello ticks, control-frame
//! deliveries, injected failures). [`Simulation::run`] cuts the
//! deployment into lanes, lets the coordinator alternate control
//! instants with lane *windows*, and puts the pieces back.
//!
//! How many lanes is decided from the deployment, not by a second code
//! path:
//!
//! * **One lane spanning every segment** — the default, and the only
//!   cut a flat network, a single segment or a zero-delay fabric
//!   allows. The lane runs with the fabric in hand: it offers each
//!   frame to the bridge devices the moment it is transmitted, checks
//!   the event budget and samples the invariant observer after every
//!   event, and a window is bounded only by the next control instant
//!   and the run limits. Events pop strictly in `(time, tier,
//!   insertion sequence)` order: the serial schedule.
//! * **One lane per segment** — under [`ParallelMode::Workers`] on a
//!   fabric with a non-zero forward delay. Each window's lanes run one
//!   after another in ascending lane order and *record* their bridge
//!   pickups; the coordinator replays them at each window barrier.
//!
//! Everything runs on the calling thread: host threads buy none of
//! the sim-time quantities a run reports. The per-segment cut is the
//! deterministic partition the golden digests pin, so a lane of it is
//! never handed the fabric just because nothing else is running. The
//! `for lane in lanes` loops in [`Simulation::run`] are the one seam
//! where threads could be put; a change that puts them there has this
//! loop's wall time to beat.
//!
//! # Why per-segment lanes are safe: the lookahead argument
//!
//! Every segment has its own medium state, loss RNG, and traffic
//! counters. The only way one segment's events influence another
//! segment is through the bridge fabric, and every forwarded frame
//! copy exits its store-and-forward device at
//! `arrival.max(free_at) + forward_delay` — never less than
//! `forward_delay` after the transmit that caused it. That bound is the
//! *lookahead* of classic conservative parallel discrete-event
//! simulation: all events in the window `[T, T + forward_delay)` can be
//! processed lane by lane, each lane knowing nothing of the others,
//! because any cross-lane consequence of an event in the window lands
//! at or after the window's end.
//!
//! # The protocol
//!
//! The coordinator repeatedly:
//!
//! 1. finds the globally earliest pending event time `T`; if it is a
//!    control event, runs the control plane at that exact instant
//!    (lane events never create control events, so the control queue
//!    cannot change under a window);
//! 2. otherwise opens the window `[T, min(T + forward_delay, next
//!    control event, run deadline])` and runs each lane with pending
//!    events, in ascending lane order; lanes process their heaps
//!    strictly in `(time, tier, sequence)` order;
//! 3. at the barrier, replays the recorded pickups against the shared
//!    fabric in global `(time, lane)` order — the interleaving of
//!    interest learning, store-and-forward queueing, and fault RNG
//!    draws a single lane produces by calling the fabric directly —
//!    and schedules the resulting forwarded copies into their
//!    destination lanes (always at or beyond the window end, per the
//!    lookahead bound).
//!
//! # Completion
//!
//! A run stops the instant every application process is done — mid
//! fan-out if need be — and leaves the rest queued. A lane sees only
//! its own processes, so it *pauses* at the first point where those
//! are all done (re-queueing an interrupted fan-out's remainder at its
//! original heap position). At the barrier: if some lane is still
//! unfinished, the run cannot have completed anywhere inside this
//! window, so paused and already-done lanes simply catch up to the
//! window end. If every lane is done, the completion moment is the
//! *latest* pause `T*`, in the highest lane that paused then — the
//! last event one heap would have popped. Every other lane re-runs
//! what that heap would have popped before it: its events before `T*`,
//! and, in the lanes *below* the completing one, the events at `T*`
//! too (their tier sorts first). The run finishes at `T*` exactly, with
//! the event count of the one-lane run. A lane that holds every host
//! pauses exactly when the run is complete, so with one lane this rule
//! *is* the stop rule.
//!
//! "Are this lane's processes all done?" is asked after every event and
//! after every recipient of a fan-out, so it must not cost a pass over
//! the lane's hosts. A host that is done stays done for the rest of the
//! run, so each lane keeps a *completion cursor* (`Lane::done_below`):
//! every host below it is known to be done, the question is put to the
//! one host at the cursor, and the cursor moves past it when the answer
//! is yes — one host per question, at most `hosts` steps per run. A
//! `run` cuts fresh lanes with the cursor at zero, so a process added
//! (or a stream attached) between two runs is looked at again.
//!
//! # Tie-breaking
//!
//! Per-segment lanes cannot reconstruct a global insertion sequence,
//! so cross-queue ties at one instant follow a *fixed* rule instead:
//! control-plane events first, then segment-local events in ascending
//! segment order (each segment internally by insertion sequence). That
//! is the `(time, tier, sequence)` key of [`Ev::tier`](super::Ev),
//! which a lane spanning several segments sorts its one heap by — so
//! exact-instant cross-segment collisions (mirror-image workloads,
//! ticks landing on transmits) resolve identically however the
//! deployment is cut, and the determinism suite pins one-lane and
//! per-segment-lane runs to the same golden digests.
//!
//! Two residual caveats of per-segment lanes: a forwarded copy enters
//! its destination lane at the window barrier rather than at the pop
//! that caused it, so its *intra-lane* sequence can differ —
//! observable only if the copy's exit collides with another event of
//! the same segment at the exact same nanosecond; and the `max_events`
//! backstop is checked per window rather than per event.

use super::observe::Observer;
use super::{Env, Ev, EvKind, Queue, Recipients, RunLimits, RunOutcome, Simulation};
use crate::host::{HostAction, HostSim, OPEN_WAITER_BASE};
use mether_core::table::WaiterId;
use mether_core::{HostMask, Packet};
use mether_net::{ControlOut, EtherSim, Fabric, FabricEvent, Forward, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many lanes [`Simulation::run`] may cut the deployment into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// One lane spanning every segment: events strictly in `(time,
    /// tier, insertion sequence)` order.
    #[default]
    Serial,
    /// One lane per segment: each window's lanes run in ascending
    /// order on the calling thread, synchronized conservatively with
    /// lookahead equal to the bridge forward delay (see the module
    /// docs). A deployment with nothing to cut along (flat, one
    /// segment, or a zero forward delay) runs as one lane.
    ///
    /// There are no workers. The name and the `usize` are kept for the
    /// frozen benchmark package (`e2e/`), which compiles against them;
    /// the number only separates "below 2: one lane" from "2 or more:
    /// one lane per segment", and ROADMAP item 1's `benchmark` PR may
    /// rename both.
    Workers(usize),
}

impl ParallelMode {
    /// The *default* mode for freshly built simulations: `Serial`
    /// unless the `METHER_WORKERS` environment variable names a number
    /// ≥ 2 — the hook CI uses to sweep the whole test suite
    /// through per-segment lanes (byte-identity with the one-lane
    /// schedule makes that invisible). An explicit
    /// [`Simulation::set_parallel_mode`] always wins over the
    /// environment.
    pub(crate) fn from_env() -> ParallelMode {
        match std::env::var("METHER_WORKERS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 2 => ParallelMode::Workers(n),
                _ => ParallelMode::Serial,
            },
            Err(_) => ParallelMode::Serial,
        }
    }
}

/// One frame the bridge devices on a segment hear: offered to the
/// fabric at once by a lane that has it in hand, or recorded and
/// replayed at the barrier in global time order.
struct Pickup {
    /// The event-pop time of the transmit (the replay sort key).
    t: SimTime,
    /// The segment the frame was transmitted on.
    seg: usize,
    /// When the frame lands on the wire (`delivered_at`).
    arrival: SimTime,
    pkt: Arc<Packet>,
    /// `None` for a host transmit; the forwarding device for a
    /// forwarded copy, which is offered onward to the *other* devices.
    from: Option<usize>,
}

impl Pickup {
    fn offer<'f>(&self, fabric: &'f mut Fabric) -> &'f [Forward] {
        match self.from {
            None => fabric.pickup(&self.pkt, self.seg, self.arrival),
            Some(device) => fabric.pickup_forwarded(&self.pkt, self.seg, self.arrival, device),
        }
    }
}

/// What a lane that owns the whole deployment reaches directly instead
/// of through the coordinator.
struct Whole<'a> {
    fabric: Option<&'a mut Fabric>,
    observer: &'a mut Observer,
    /// Events the lane may still process before `max_events` trips.
    budget: u64,
}

/// A contiguous run of segments: their hosts, their media, and the
/// heap of events local to them.
struct Lane {
    /// The lane's first segment and first host (layout blocks are
    /// contiguous and ascending).
    seg_lo: usize,
    lo: usize,
    hosts: Vec<HostSim>,
    ethers: Vec<EtherSim>,
    q: Queue,
    now: SimTime,
    processed: u64,
    /// Bridge interactions recorded this window, in processing order
    /// (time-nondecreasing within the lane).
    pickups: Vec<Pickup>,
    /// Set when the last window stopped at the instant the lane's own
    /// processes all finished.
    paused: Option<SimTime>,
    /// The completion cursor: every host below this index is done. A
    /// finished host stays finished for the rest of the run, so the
    /// cursor only moves forward and starts over at the next `cut`.
    done_below: usize,
}

impl Lane {
    /// Whether every host of the lane is done: asks the first host not
    /// yet known to be, and moves the cursor past it when it is — one
    /// host per call and `hosts` steps per run, whatever the width.
    fn all_done(&mut self) -> bool {
        while self
            .hosts
            .get(self.done_below)
            .is_some_and(HostSim::all_done)
        {
            self.done_below += 1;
        }
        self.done_below == self.hosts.len()
    }

    fn next_at(&self) -> Option<SimTime> {
        self.q.heap.peek().map(|e| e.at)
    }

    fn host(&mut self, host: usize) -> &mut HostSim {
        &mut self.hosts[host - self.lo]
    }

    fn ether(&mut self, seg: usize) -> &mut EtherSim {
        &mut self.ethers[seg - self.seg_lo]
    }

    /// Dispatches `host` if its CPU is idle, scheduling the burst end,
    /// any sleep timers it requested, and any fault-retry timers armed
    /// while blocking.
    fn kick(&mut self, host: usize, env: &Env) {
        let now = self.now;
        if let Some(end) = self.host(host).dispatch(now) {
            self.q.push(end, EvKind::BurstEnd { host }, env);
        }
        for (proc, wake_at) in self.host(host).take_sleeps() {
            self.q.push(wake_at, EvKind::Timer { host, proc }, env);
        }
        for (proc, fire_at, epoch) in self.host(host).take_retries() {
            self.q
                .push(fire_at, EvKind::Retry { host, proc, epoch }, env);
        }
    }

    /// Schedules the delivery of one completed transit to `to` (a
    /// segment's members, or the whole flat network) at `at`: one event
    /// fanned out at pop time — the network does the fan-out, not the
    /// event queue.
    fn schedule_delivery(&mut self, at: SimTime, to: Recipients, pkt: &Arc<Packet>, env: &Env) {
        let pkt = Arc::clone(pkt);
        self.q.push(at, EvKind::Deliver { to, pkt }, env);
    }

    /// Clocks each transmission out on its segment's medium, schedules
    /// the delivery to that segment's snoopers (the whole network when
    /// flat), and offers the frame to the segment's bridge devices.
    fn apply(&mut self, actions: Vec<HostAction>, env: &Env, mut fabric: Option<&mut Fabric>) {
        for HostAction::Transmit(pkt) in actions {
            let from = pkt.from().0 as usize;
            let seg = env.segment_of(from);
            let now = self.now;
            let Some(at) = self.ether(seg).transmit(now, &pkt).delivered_at else {
                continue;
            };
            if env.total_hosts <= 1 {
                continue; // nobody anywhere to snoop
            }
            self.q.stats.transits += 1;
            let pkt = Arc::new(pkt);
            let to = match env.layout {
                None => Some(Recipients::AllExcept(from)),
                // The sender alone on its segment has no local
                // snoopers, but the bridge may still carry the frame
                // out.
                Some(l) => (l.members_range(seg).len() > 1)
                    .then(|| Recipients::Subset(env.members[seg].clone().without(from))),
            };
            if let Some(to) = to {
                self.schedule_delivery(at, to, &pkt, env);
            }
            let heard = Pickup {
                t: now,
                seg,
                arrival: at,
                pkt,
                from: None,
            };
            self.pickup(heard, env, fabric.as_deref_mut());
        }
    }

    /// The bridge devices on a segment hear a frame: schedule each
    /// forwarded copy's exit from its device now if the fabric is in
    /// hand, else leave the pickup for the barrier replay.
    fn pickup(&mut self, heard: Pickup, env: &Env, fabric: Option<&mut Fabric>) {
        if let Some(fabric) = fabric {
            for &fw in heard.offer(fabric) {
                self.push_forward(fw, &heard.pkt, env);
            }
        } else if env.record {
            self.pickups.push(heard);
        }
    }

    fn push_forward(&mut self, fw: Forward, pkt: &Arc<Packet>, env: &Env) {
        self.q.stats.bridge_pushes += 1;
        let kind = EvKind::BridgeForward {
            from: fw.device,
            dst: fw.dst,
            pkt: Arc::clone(pkt),
        };
        self.q.push(fw.exit, kind, env);
    }

    /// Processes this lane's events strictly before `until`.
    ///
    /// With `pausing` set (the lane's own processes are not yet all
    /// done), the lane stops at its own completion transition. A lane
    /// that is the `whole` deployment also stops when the event budget
    /// runs out, and samples the invariant observer after every event.
    fn run_window(
        &mut self,
        until: SimTime,
        pausing: bool,
        env: &Env,
        mut whole: Option<&mut Whole<'_>>,
    ) {
        while self.q.heap.peek().is_some_and(|e| e.at < until) {
            if whole.as_ref().is_some_and(|w| self.processed >= w.budget) {
                return;
            }
            let ev = self.q.heap.pop().expect("peeked");
            // Invariant (e): a lane's time never regresses — a
            // cross-lane push that violated the forward-delay bound
            // would land behind the lane's clock and trip this.
            if env.observe {
                assert!(
                    ev.at >= self.now,
                    "lane at segment {} popped an event at {} after advancing to {}",
                    self.seg_lo,
                    ev.at,
                    self.now
                );
            }
            self.now = ev.at;
            self.processed += 1;
            let fabric = whole.as_deref_mut().and_then(|w| w.fabric.as_deref_mut());
            if self.handle(ev, pausing, env, fabric) {
                return;
            }
            if let Some(w) = whole.as_deref_mut() {
                if w.observer.on_event() {
                    let mut hosts: Vec<&mut HostSim> = self.hosts.iter_mut().collect();
                    w.observer
                        .sweep_sampled(&mut hosts, w.fabric.as_deref_mut(), self.now);
                }
            }
            if pausing && self.all_done() {
                self.paused = Some(self.now);
                return;
            }
        }
    }

    /// Executes one host-side event; true if the lane paused inside it.
    fn handle(&mut self, ev: Ev, pausing: bool, env: &Env, fabric: Option<&mut Fabric>) -> bool {
        let now = self.now;
        match ev.kind {
            EvKind::BurstEnd { host } => {
                let actions = self.host(host).finish_burst(now);
                self.apply(actions, env, fabric);
                self.kick(host, env);
            }
            EvKind::Deliver { to, pkt } => {
                // Fan out at pop time, in ascending host order. The run
                // stops the moment the last process finishes — mid
                // fan-out if that is where it happens — so the rest of
                // the mask goes back at this event's own heap position
                // for whoever resumes.
                let mask = match to {
                    Recipients::Subset(mask) => mask,
                    other => other.to_mask(env.total_hosts),
                };
                for h in &mask {
                    self.host(h).deliver_packet(now, Arc::clone(&pkt));
                    self.kick(h, env);
                    if pausing && self.all_done() {
                        let rest = mask.difference(&HostMask::all_below(h + 1));
                        if !rest.is_empty() {
                            let to = Recipients::Subset(rest);
                            self.q.heap.push(Ev {
                                kind: EvKind::Deliver { to, pkt },
                                ..ev
                            });
                        }
                        self.paused = Some(now);
                        return true;
                    }
                }
            }
            EvKind::BridgeForward { from, dst, pkt } => {
                // The forwarded copy exits its device now: clock it out
                // on the destination segment's own medium (it queues
                // there behind local traffic) and fan it out to that
                // segment's members — the original sender is not on
                // `dst`, so nobody is excluded. The *other* devices on
                // `dst` pick the copy up and carry it further along the
                // tree; the forwarding device is excluded, and the
                // topology is a tree, so the walk cannot loop.
                if let Some(at) = self.ether(dst).transmit(now, &pkt).delivered_at {
                    let members = env.members[dst].clone();
                    self.schedule_delivery(at, Recipients::Subset(members), &pkt, env);
                    let heard = Pickup {
                        t: now,
                        seg: dst,
                        arrival: at,
                        pkt,
                        from: Some(from),
                    };
                    self.pickup(heard, env, fabric);
                }
            }
            EvKind::Timer { host, proc } => {
                self.host(host).timer_fired(proc);
                self.kick(host, env);
            }
            EvKind::Retry { host, proc, epoch } => {
                if (proc as WaiterId) >= OPEN_WAITER_BASE {
                    if let Some(actions) = self.host(host).open_retry_fired(now, proc as WaiterId) {
                        self.apply(actions, env, fabric);
                        self.kick(host, env);
                    }
                } else if self.host(host).retry_fired(proc, epoch) {
                    self.kick(host, env);
                }
            }
            EvKind::Rebroadcast { host } => {
                if self.host(host).queue_holder_rebroadcasts(now) > 0 {
                    self.kick(host, env);
                }
                if let Some(interval) = self.host(host).holder_rebroadcast_interval() {
                    self.q
                        .push(now + interval, EvKind::Rebroadcast { host }, env);
                }
            }
            EvKind::OpenArrival { host } => {
                let actions = self.host(host).open_arrival(now);
                self.apply(actions, env, fabric);
                self.kick(host, env);
                if let Some(at) = self.host(host).open_next_at() {
                    self.q.push(at, EvKind::OpenArrival { host }, env);
                }
            }
            EvKind::BridgeTick { .. } | EvKind::ControlDeliver { .. } | EvKind::Fabric(_) => {
                unreachable!("control event in a lane heap")
            }
        }
        false
    }
}

/// The lane that owns segment `seg`: the only lane, or the `seg`th of
/// one per segment.
fn lane_of(lanes: &mut [Lane], seg: usize) -> &mut Lane {
    let last = lanes.len() - 1;
    &mut lanes[seg.min(last)]
}

/// The bridge fabric and its control plane, run by the coordinator
/// between lane windows.
pub(super) struct Ctrl {
    /// The routed bridge fabric; `None` on flat networks.
    pub(super) fabric: Option<Fabric>,
    pub(super) q: Queue,
    /// The fixed-cadence hello timer ring: pending `BridgeTick`s, kept
    /// sorted by construction — every entry is pushed with `at = now +
    /// hello_interval` for the one global interval, so a new deadline
    /// is never earlier than a pending one and `push_back` suffices.
    /// Entries draw `seq` from the heap's counter, so the merged pop
    /// order is bit-identical to keeping the ticks on the heap while
    /// the recurring O(devices) tick load stops paying heap sift costs.
    ring: VecDeque<Ev>,
    /// Per-device tick-chain epochs: a `BridgeDown` bumps the device's
    /// epoch (orphaning its pending tick), a `BridgeUp` bumps it again
    /// and seeds one fresh chain — so a device never ticks twice per
    /// hello interval however failure and revival interleave with the
    /// pending events.
    tick_epochs: Vec<u64>,
    /// Control events executed during the current `run`.
    processed: u64,
}

impl Ctrl {
    pub(super) fn new(fabric: Option<Fabric>) -> Ctrl {
        Ctrl {
            tick_epochs: vec![0; fabric.as_ref().map_or(0, Fabric::device_count)],
            fabric,
            q: Queue::default(),
            ring: VecDeque::new(),
            processed: 0,
        }
    }

    fn hello_interval(&self) -> Option<SimDuration> {
        self.fabric
            .as_ref()
            .and_then(|f| f.election().hello_interval())
    }

    /// Schedules one hello tick of `device`'s current chain on the
    /// timer ring: the heap's sequence counter and control accounting,
    /// no heap traffic.
    fn ring_push(&mut self, at: SimTime, device: usize) {
        let seq = self.q.seq;
        self.q.seq += 1;
        self.q.stats.control_pushes += 1;
        self.q.stats.timer_ring_pushes += 1;
        debug_assert!(self.ring.back().is_none_or(|last| last.at <= at));
        let epoch = self.tick_epochs[device];
        self.ring.push_back(Ev {
            at,
            tier: 0,
            seq,
            kind: EvKind::BridgeTick { device, epoch },
        });
    }

    /// The earliest pending control event time across the heap and the
    /// timer ring.
    fn next_at(&self) -> Option<SimTime> {
        let heap = self.q.heap.peek().map(|e| e.at);
        let ring = self.ring.front().map(|e| e.at);
        heap.into_iter().chain(ring).min()
    }

    /// Pops the next control event queued at exactly `now`, heap and
    /// timer ring merged by sequence.
    fn pop_at(&mut self, now: SimTime) -> Option<Ev> {
        let heap = self.q.heap.peek().filter(|e| e.at == now);
        let ring = self.ring.front().filter(|e| e.at == now);
        match (ring, heap) {
            // `Ev` orders earliest-greatest (for std's max-heap).
            (Some(tick), heap) if heap.is_none_or(|top| tick > top) => self.ring.pop_front(),
            (_, Some(_)) => self.q.heap.pop(),
            _ => None,
        }
    }

    /// Transmits one bridge control frame on its segment's medium and
    /// schedules its delivery to the other devices there. Hosts never
    /// receive control frames (their NICs filter the bridge multicast
    /// address), but the frame occupies the wire like any other and is
    /// subject to the segment's loss process.
    fn transmit_control(&mut self, now: SimTime, out: ControlOut, lanes: &mut [Lane], env: &Env) {
        let pkt = Arc::new(out.pkt);
        let tx = lane_of(lanes, out.seg).ether(out.seg).transmit(now, &pkt);
        if let Some(at) = tx.delivered_at {
            self.q.stats.control_pushes += 1;
            let kind = EvKind::ControlDeliver {
                seg: out.seg,
                from: out.device,
                pkt,
            };
            self.q.push(at, kind, env);
        }
    }

    /// Executes every control event queued at exactly `now`. No lane is
    /// mid-window, so the segments' media are free to transmit on.
    fn run_instant(&mut self, now: SimTime, lanes: &mut [Lane], env: &Env) {
        while let Some(ev) = self.pop_at(now) {
            self.processed += 1;
            let Some(fabric) = self.fabric.as_mut() else {
                continue;
            };
            let mut retick = None;
            let outs = match ev.kind {
                // One hello-cadence tick: timeout checks plus this
                // cadence's hellos, then the chain reschedules itself.
                // An orphaned chain (stale epoch) or a dead device
                // stops ticking; `BridgeUp` reseeds.
                EvKind::BridgeTick { device, epoch } => {
                    if self.tick_epochs[device] != epoch || fabric.is_dead(device) {
                        continue;
                    }
                    retick = Some(device);
                    fabric.tick(device, now)
                }
                // The other live devices on `seg` ingest the frame;
                // triggered hellos (belief changes) go straight back
                // onto the wire — the TC-style fast propagation.
                EvKind::ControlDeliver { seg, from, pkt } => {
                    fabric.hear_control(&pkt, seg, now, from)
                }
                EvKind::Fabric(fev) => {
                    let was_dead = match fev {
                        FabricEvent::BridgeDown(d) | FabricEvent::BridgeUp(d) => fabric.is_dead(d),
                        FabricEvent::LinkDown { .. } | FabricEvent::LinkUp { .. } => false,
                    };
                    fabric.apply_event(fev, now);
                    match fev {
                        // A death orphans the device's pending tick
                        // chain (belt and braces with the dead check at
                        // tick time).
                        FabricEvent::BridgeDown(d) if !was_dead => self.tick_epochs[d] += 1,
                        // A genuine revival resumes the hello cadence
                        // with exactly one fresh chain; a `BridgeUp`
                        // for a device that was never down is a no-op.
                        FabricEvent::BridgeUp(d) if was_dead => {
                            self.tick_epochs[d] += 1;
                            retick = Some(d);
                        }
                        _ => {}
                    }
                    Vec::new()
                }
                _ => unreachable!("host-side event in the control heap"),
            };
            for out in outs {
                self.transmit_control(now, out, lanes, env);
            }
            if let (Some(device), Some(interval)) = (retick, self.hello_interval()) {
                self.ring_push(now + interval, device);
            }
        }
    }

    /// Replays every bridge interaction the lanes recorded this window
    /// against the shared fabric, in global `(time, lane)` order, and
    /// schedules the resulting forwarded copies into their destination
    /// lanes. The lookahead bound guarantees every scheduled exit lands
    /// at or beyond the window end.
    fn replay_pickups(&mut self, lanes: &mut [Lane], env: &Env) {
        let Some(fabric) = self.fabric.as_mut() else {
            return;
        };
        let mut all: Vec<(usize, Pickup)> = Vec::new();
        for (i, lane) in lanes.iter_mut().enumerate() {
            all.extend(lane.pickups.drain(..).map(|p| (i, p)));
        }
        // Stable: within a lane the recorded order is the processing
        // (time) order, so (t, lane) reproduces the one-lane
        // interleaving up to exact-instant cross-lane ties.
        all.sort_by_key(|(lane, p)| (p.t, *lane));
        for (_, heard) in all {
            for &fw in heard.offer(fabric) {
                lane_of(lanes, fw.dst).push_forward(fw, &heard.pkt, env);
            }
        }
    }
}

/// Samples the invariant observer at a point where no lane is
/// mid-window, so the cross-layer state is globally consistent
/// (invariants (a)–(d)).
fn sweep(observer: &mut Observer, lanes: &mut [Lane], fabric: Option<&mut Fabric>, now: SimTime) {
    if observer.on_event() {
        let mut hosts: Vec<&mut HostSim> =
            lanes.iter_mut().flat_map(|l| l.hosts.iter_mut()).collect();
        observer.sweep_sampled(&mut hosts, fabric, now);
    }
}

impl Simulation {
    /// Whether this run is cut into one lane per segment rather than
    /// one lane in all. Cutting the deployment along its segments needs
    /// the mode to ask for it, at least two segments, and a fabric
    /// whose non-zero forward delay is the lookahead.
    fn per_segment(&self) -> bool {
        let lookahead = self.ctrl.fabric.as_ref().map(Fabric::forward_delay);
        matches!(self.parallel, ParallelMode::Workers(n) if n >= 2)
            && self.segments.len() >= 2
            && lookahead > Some(SimDuration::ZERO)
    }

    /// Seeds the self-rescheduling event chains: one hello tick per
    /// live-election bridge device (on the timer ring), one holder
    /// re-broadcast per host when that knob is on, one open-loop
    /// arrival per host with an attached stream.
    fn seed(&mut self, env: &Env) {
        if let Some(interval) = self.ctrl.hello_interval() {
            for device in 0..self.ctrl.tick_epochs.len() {
                self.ctrl.ring_push(self.now + interval, device);
            }
        }
        for (host, h) in self.hosts.iter().enumerate() {
            if let Some(interval) = h.holder_rebroadcast_interval() {
                let at = self.now + interval;
                self.events.push(at, EvKind::Rebroadcast { host }, env);
            }
        }
        for (host, h) in self.hosts.iter().enumerate() {
            if let Some(at) = h.open_next_at() {
                self.events.push(at, EvKind::OpenArrival { host }, env);
            }
        }
    }

    /// Cuts the hosts, media and pending events into `count` lanes: one
    /// spanning everything, or one per segment.
    fn cut(&mut self, count: usize) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = (0..count)
            .rev()
            .map(|i| {
                let (seg_lo, lo) = match self.layout {
                    Some(layout) if count > 1 => (i, layout.members_range(i).start),
                    _ => (0, 0),
                };
                Lane {
                    seg_lo,
                    lo,
                    hosts: self.hosts.split_off(lo),
                    ethers: self.segments.split_off(seg_lo),
                    q: Queue {
                        seq: self.events.seq,
                        ..Queue::default()
                    },
                    now: self.now,
                    processed: 0,
                    pickups: Vec::new(),
                    paused: None,
                    done_below: 0,
                }
            })
            .collect();
        lanes.reverse();
        // An event's tier names its segment, and keys keep their order
        // wherever they are queued: no renumbering either way.
        for ev in self.events.heap.drain() {
            let seg = usize::from(ev.tier).saturating_sub(1);
            lane_of(&mut lanes, seg).q.heap.push(ev);
        }
        lanes
    }

    /// Puts the lanes' hosts, media and remaining events back.
    fn join(&mut self, lanes: Vec<Lane>) {
        self.lane_events.clear();
        let per_segment = lanes.len() > 1;
        for mut lane in lanes {
            if per_segment {
                self.lane_events.push(lane.processed);
            }
            self.hosts.append(&mut lane.hosts);
            self.segments.append(&mut lane.ethers);
            self.events.heap.append(&mut lane.q.heap);
            self.events.seq = self.events.seq.max(lane.q.seq);
            self.events.stats.absorb(&lane.q.stats);
        }
    }

    /// Runs until every process is done or a limit trips; a run cut
    /// short by a limit can be continued with another `run`.
    ///
    /// Under [`ParallelMode::Workers`] on a deployment that can be cut
    /// along its segments, the run is cut into one lane per segment
    /// (see the module docs for the synchronization protocol and its
    /// two divergence caveats); otherwise one lane runs the whole
    /// deployment. Either way on the calling thread.
    pub fn run(&mut self, limits: RunLimits) -> RunOutcome {
        let per_segment = self.per_segment();
        let env = self.env(per_segment);
        if !self.seeded {
            self.seeded = true;
            self.seed(&env);
        }
        let mut lanes = self.cut(if per_segment { self.segments.len() } else { 1 });
        // Initial dispatch in ascending host order (lanes are
        // contiguous ascending blocks).
        for lane in &mut lanes {
            for host in lane.lo..lane.lo + lane.hosts.len() {
                lane.kick(host, &env);
            }
        }
        // One lane has the fabric in hand and needs no lookahead.
        let lookahead = self.ctrl.fabric.as_ref().map(Fabric::forward_delay);
        let lookahead = lookahead.filter(|_| per_segment);
        let deadline = SimTime::ZERO + limits.max_sim_time;
        let tick = SimDuration::from_nanos(1);
        let mut observer = std::mem::take(&mut self.observer);
        let ctrl = &mut self.ctrl;
        ctrl.processed = 0;
        let mut now = self.now;
        let mut finished = lanes.iter_mut().all(Lane::all_done);
        let processed = |ctrl: &Ctrl, lanes: &[Lane]| {
            ctrl.processed + lanes.iter().map(|l| l.processed).sum::<u64>()
        };
        while !finished {
            let next_lane = lanes.iter().filter_map(Lane::next_at).min();
            let next_ctrl = ctrl.next_at();
            let Some(next) = next_lane.into_iter().chain(next_ctrl).min() else {
                break; // every queue drained
            };
            // Peek, never pop: the event that trips a limit stays
            // queued for the `run` that continues this one.
            if next > deadline || processed(ctrl, &lanes) >= limits.max_events {
                now = now.max(next);
                break;
            }
            // Control plane first at an equal instant (tier 0).
            if next_ctrl == Some(next) {
                ctrl.run_instant(next, &mut lanes, &env);
                now = now.max(next);
                sweep(&mut observer, &mut lanes, ctrl.fabric.as_mut(), now);
                continue;
            }
            // Open the window.
            let mut t_end = deadline + tick;
            if let Some(delay) = lookahead {
                t_end = t_end.min(next + delay);
            }
            if let Some(c) = next_ctrl {
                t_end = t_end.min(c);
            }
            let mut whole = (!per_segment).then(|| Whole {
                fabric: ctrl.fabric.as_mut(),
                observer: &mut observer,
                budget: limits.max_events - ctrl.processed,
            });
            // Phase 1: lanes with unfinished processes run ahead,
            // pausing at their own completion transition. The latest
            // pause, in the highest lane that paused then, is the last
            // event one heap would have popped.
            let mut dispatched = 0;
            let mut t_star = None;
            finished = true;
            for (i, lane) in lanes.iter_mut().enumerate() {
                if !lane.all_done() && lane.next_at().is_some_and(|t| t < t_end) {
                    lane.run_window(t_end, true, &env, whole.as_mut());
                    dispatched += 1;
                }
                t_star = t_star.max(lane.paused.take().map(|t| (t, i)));
                finished &= lane.all_done();
            }
            // Phase 2. A window in which every lane is done is the
            // last: the run completed at `T*` in lane `completing`, and
            // the other lanes re-run what a single heap would still
            // have popped before that event — theirs before `T*`, and
            // in the lanes below `completing` (lower tiers) theirs at
            // `T*` as well. Otherwise nothing stops inside this window,
            // and paused and already-done lanes catch up to its end.
            let (until, completing) = if finished {
                t_star.expect("an all-done barrier follows a completion transition")
            } else {
                (t_end, 0)
            };
            for (i, lane) in lanes.iter_mut().enumerate() {
                let until = if i < completing { until + tick } else { until };
                if lane.all_done() && lane.next_at().is_some_and(|t| t < until) {
                    lane.run_window(until, false, &env, whole.as_mut());
                    dispatched += 1;
                }
            }
            ctrl.q.stats.task_handoffs += dispatched;
            now = if finished {
                until
            } else {
                lanes.iter().fold(now, |now, l| now.max(l.now))
            };
            ctrl.replay_pickups(&mut lanes, &env);
            sweep(&mut observer, &mut lanes, ctrl.fabric.as_mut(), now);
        }
        let events = processed(&self.ctrl, &lanes);
        self.join(lanes);
        self.now = now;
        self.observer = observer;
        if self.observer.enabled() {
            self.check_invariants();
        }
        RunOutcome {
            finished,
            wall: now - SimTime::ZERO,
            events,
        }
    }
}
