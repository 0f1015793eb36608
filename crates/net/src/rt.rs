//! A real, threaded in-process broadcast LAN.
//!
//! `mether-runtime` nodes attach [`Endpoint`]s to a [`Lan`]. There is no
//! thread behind a `Lan`: **the transmitter delivers its own frame**.
//! [`Endpoint::broadcast`] encodes the packet, takes the segment's
//! *medium* — one mutex holding the wire's `free_at` instant, the loss
//! RNG, the traffic counters and the listener list — and, under it,
//!
//! 1. occupies the wire: `due = max(now, free_at) + dwell`, `free_at =
//!    due`, with `dwell = latency + wire_size × 8 / bandwidth` — the
//!    wall-clock twin of [`crate::sim::EtherSim::transmit`]. One frame at
//!    a time, like a shared Ethernet segment; bursts serialise behind
//!    each other;
//! 2. counts the frame, then draws its loss;
//! 3. pushes a clone of the decoded packet, stamped with `due`, into the
//!    inbox of every listener but the sender (hosts do not hear their own
//!    transmissions; the Mether page table ignores them anyway).
//!
//! Every push of every frame happens under that one lock, so all
//! listeners of a segment see its frames in one total order. A listener
//! is handed a frame no earlier than its due instant: [`Inbox::recv`]
//! sleeps the remainder, [`Inbox::try_recv`] and a timeout that ends
//! first leave it queued. An unshaped LAN ([`LanConfig::fast`]) runs the
//! same path with a zero dwell.
//!
//! Frames cross the wire in the codec's one framing: the transmitter
//! encodes a [`WireFrame`] with [`Packet::try_encode_vectored`] and
//! decodes it with [`Packet::decode_frame`], so the runtime exercises
//! the same codec the paper's UDP implementation would. No frame is ever
//! flattened (the page payload segment is a zero-copy view of the
//! sender's buffer), and each broadcast is **decoded exactly once**, by
//! its transmitter, the decoded packet fanning out to the N−1 listeners
//! as cheap clones whose page payload shares that same storage. Host
//! load for a broadcast does not scale with `receivers × PAGE_SIZE`.
//!
//! # Bridged segments
//!
//! The LANs of a segmented deployment come up together with the one
//! [`Fabric`] joining them ([`Bridges::new`]), and a broadcast on one of
//! them **carries its own crossings** as well: no bridge device has a
//! thread. The transmitting thread takes the fabric's lock and runs one
//! work list of `(segment, frame, emitting device, not-before instant)`
//! entries, its own frame first. Each entry goes through its segment's
//! medium like any transmission (steps 1–3 above, due no earlier than
//! the frame finished arriving on the segment before), then every live
//! device on the segment but the emitter routes it ([`Fabric::carry`]),
//! and each copy a device emits is a new entry. A data frame that would
//! cross more devices than the fabric has segments is dropped and
//! counted ([`crate::BridgeStats::dropped`]): a loop-free active
//! tree never reaches that bound, but a transient loop under a live
//! election can. Holding the lock from the first push to the last, the
//! walk keeps the frames crossing a device in their wire order, and a
//! broadcast returns with every crossing delivered. Fault injection is
//! [`Fabric::apply_event`] alone: there is no thread to stop or start.
//! Under a live election [`Bridges::tick`] runs the devices' hello
//! cadence, and their hellos take the same walk.
//!
//! Locks are taken fabric, then medium, then inbox. Each fabric step
//! reads the wall clock under the fabric lock ([`Bridges::now`]), so the
//! fabric sees time run forward.
//!
//! # Who wakes whom
//!
//! An inbox has up to two kinds of listener. The *background* listener,
//! a node's receiver thread, waits with [`Inbox::wait_background`] and
//! drains with [`Inbox::try_recv`]. A *foreground* waiter is a thread
//! blocked on something a frame will bring — a node's accessor waiting
//! for its page — that registers with [`Inbox::fg_enter`] and handles
//! what arrives itself, so the reply it waits for reaches it without a
//! hop through the background listener.
//!
//! A listener that finds nothing deliverable marks that it sleeps and
//! blocks on its kind's condition variable. Every push moves the inbox's
//! *epoch*. While any foreground waiter is registered, a push wakes one
//! sleeping foreground waiter — one thread is all a frame needs — and
//! leaves the others and the background listener asleep. A waiter that
//! leaves while frames are still queued (it may have been woken for
//! them and returned without draining) wakes another sleeping one, or,
//! if it was the last, the background listener. Otherwise a push into
//! an inbox whose background listener sleeps takes the mark and owes it
//! one wake-up. A foreground waiter reads the epoch before it checks its
//! condition and sleeps only while the epoch still reads the same and no
//! frame is due ([`Foreground::wait`]); whoever satisfies the condition
//! without a frame of its own — a thread that handled the frame on the
//! waiter's behalf — moves the epoch with [`Inbox::kick`], which wakes
//! every sleeping foreground waiter. No wake-up is lost between the
//! check and the sleep.
//!
//! A transmitter pays what it owes **after releasing its locks** — the
//! medium, and on a bridged segment the fabric — and only to listeners
//! that sleep. Waking under a lock is what a channel's `send` does, and
//! on one CPU it costs a round trip its whole gain: the woken listener
//! pre-empts the transmitter, handles the frame, and blocks on the lock
//! the transmitter still holds. [`Inbox::close`] wakes every listener
//! and waiter at once, each then reporting [`Error::Disconnected`], so a
//! receive loop needs no polling timeout to notice shutdown.
//!
//! The locks here, and in `mether-runtime` and `mether-lib` above, are
//! plain `std::sync` ones, taken through [`lock`], which ignores
//! poisoning.

use crate::bridge::{Emission, Fabric, FabricConfig, BRIDGE_HOST_BASE};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use mether_core::{Error, HostId, Packet, Result, SegmentLayout, WireFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, ignoring poisoning. A poisoned lock means another thread
/// already panicked while holding it, and that panic is what gets
/// reported (a failed test, a joined thread's `Err`). Taking the guard
/// anyway lets the survivors finish — `Cluster::drop` joining its
/// threads above all — instead of panicking a second time, which during
/// an unwind aborts the process.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parameters of the in-process LAN.
#[derive(Debug, Clone)]
pub struct LanConfig {
    /// Fixed one-way latency applied to every frame.
    pub latency: Duration,
    /// If set, frames additionally occupy the wire for
    /// `wire_size × 8 / bandwidth` (simulating a 10 Mbit/s segment).
    pub bandwidth_bps: Option<u64>,
    /// Probability a frame is dropped (delivered to no one).
    pub loss: f64,
    /// Seed for loss injection.
    pub seed: u64,
}

impl LanConfig {
    /// A fast LAN: no artificial latency, no bandwidth cap, no loss.
    /// Appropriate for tests and examples that care about protocol
    /// behaviour rather than timing.
    pub fn fast() -> Self {
        LanConfig {
            latency: Duration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            seed: 0,
        }
    }

    /// A LAN shaped like the paper's: 10 Mbit/s with a small latency.
    pub fn ten_megabit() -> Self {
        LanConfig {
            latency: Duration::from_micros(100),
            bandwidth_bps: Some(10_000_000),
            loss: 0.0,
            seed: 0,
        }
    }

    /// Adds uniform frame loss with probability `p`.
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

impl Default for LanConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// One frame waiting in an [`Inbox`].
struct Delivery {
    /// When the frame finishes arriving: the listener gets it no earlier.
    due: Instant,
    pkt: Packet,
}

#[derive(Default)]
struct InboxState {
    /// In due order: an inbox hears one medium, whose frames fall due in
    /// the order they were pushed.
    queue: VecDeque<Delivery>,
    /// A background listener is blocked on `ready` and nobody owes it a
    /// wake-up yet.
    asleep: bool,
    /// Registered foreground waiters ([`Inbox::fg_enter`]); while there
    /// is one, a push wakes one of them and not the background listener.
    fg_waiters: usize,
    /// Foreground waiters blocked on `fg_ready` right now.
    fg_asleep: usize,
    /// Bumped by every push and every [`Inbox::kick`].
    epoch: u64,
    closed: bool,
}

impl InboxState {
    /// Takes the head frame if the wire has finished carrying it.
    fn pop_due(&mut self) -> Option<Packet> {
        if !self.head_due(Instant::now()) {
            return None;
        }
        self.queue.pop_front().map(|d| d.pkt)
    }

    /// Has the wire finished carrying the head frame by `now`?
    fn head_due(&self, now: Instant) -> bool {
        self.queue.front().is_some_and(|d| d.due <= now)
    }

    fn head_due_at(&self) -> Option<Instant> {
        self.queue.front().map(|d| d.due)
    }

    /// `whom`, a wake-up of the foreground waiters, if any of them sleeps.
    fn fg_wake(&self, whom: Wake) -> Wake {
        if self.fg_asleep > 0 {
            whom
        } else {
            Wake::Nobody
        }
    }
}

/// Who a push or a kick owes a wake-up, paid after the caller's locks
/// are released.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    Nobody,
    Background,
    /// One sleeping foreground waiter: a frame needs one thread to take it.
    OneForeground,
    /// Every sleeping foreground waiter: each re-checks its own condition.
    AllForeground,
}

#[derive(Default)]
struct InboxShared {
    state: Mutex<InboxState>,
    /// The background listener waits here.
    ready: Condvar,
    /// Foreground waiters wait here.
    fg_ready: Condvar,
}

/// Waits on `cv` until `until`, or for good without one.
fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    until: Option<Instant>,
) -> MutexGuard<'a, T> {
    match until {
        Some(t) => {
            let timeout = t.saturating_duration_since(Instant::now());
            cv.wait_timeout(guard, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
        None => cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
    }
}

/// An endpoint's receive queue. Cloning shares the same queue.
///
/// It is built for one background listening thread; more are safe
/// (every wake-up wakes all of them) but each frame still goes to
/// exactly one. Threads that block for a reply can take the frames over
/// from the background listener while they wait ([`Inbox::fg_enter`];
/// see the module docs, "Who wakes whom").
#[derive(Clone, Default)]
pub struct Inbox {
    shared: Arc<InboxShared>,
}

/// Frames pushed under a transmitter's locks, and whom each push owes a
/// wake-up once they are released.
type Wakes = Vec<(Inbox, Wake)>;

/// Pays what the pushes owe, once the transmitter's locks are released.
fn wake(wakes: Wakes) {
    for (inbox, whom) in wakes {
        inbox.wake(whom);
    }
}

impl Inbox {
    /// Queues `d` and notes on `wakes` whom the caller must wake
    /// ([`Inbox::wake`]) after dropping its own locks.
    fn push(&self, d: Delivery, wakes: &mut Wakes) {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return;
        }
        st.queue.push_back(d);
        st.epoch += 1;
        let whom = if st.fg_waiters > 0 {
            // One foreground waiter takes this frame; the others and the
            // background listener sleep on.
            st.fg_wake(Wake::OneForeground)
        } else if std::mem::take(&mut st.asleep) {
            Wake::Background
        } else {
            Wake::Nobody
        };
        drop(st);
        if whom != Wake::Nobody {
            wakes.push((self.clone(), whom));
        }
    }

    fn wake(&self, whom: Wake) {
        match whom {
            Wake::Nobody => {}
            Wake::Background => self.shared.ready.notify_all(),
            Wake::OneForeground => self.shared.fg_ready.notify_one(),
            Wake::AllForeground => self.shared.fg_ready.notify_all(),
        }
    }

    fn recv_by(&self, deadline: Option<Instant>) -> Result<Packet> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(Error::Disconnected);
            }
            if let Some(pkt) = st.pop_due() {
                return Ok(pkt);
            }
            if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
                return Err(Error::Timeout);
            }
            // Sleep until the head frame is due or the deadline passes,
            // whichever is first; a push or a close wakes us earlier.
            let until = st.head_due_at().into_iter().chain(deadline).min();
            st.asleep = true;
            st = wait_until(&self.shared.ready, st, until);
            st.asleep = false;
        }
    }

    /// Blocks until the next frame is due and returns it.
    ///
    /// The packet was decoded once, by its transmitter; receiving it here
    /// costs a queue pop, and its page payload is a zero-copy view shared
    /// with every other receiver of the same broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] once the inbox is closed.
    pub fn recv(&self) -> Result<Packet> {
        self.recv_by(None)
    }

    /// Receives with a timeout. A frame whose due instant lies beyond the
    /// timeout stays queued for a later call.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on expiry, [`Error::Disconnected`] once closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet> {
        self.recv_by(Some(Instant::now() + timeout))
    }

    /// Non-blocking receive; `Ok(None)` when no frame is due yet.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] once closed.
    pub fn try_recv(&self) -> Result<Option<Packet>> {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return Err(Error::Disconnected);
        }
        Ok(st.pop_due())
    }

    /// The background listener's wait: blocks, popping nothing, until a
    /// frame is due and no foreground waiter is registered, then returns
    /// so the caller can drain with [`Inbox::try_recv`]. While a
    /// foreground waiter is registered the frames are its to take, and
    /// this sleeps until the last one leaves ([`Inbox::fg_enter`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] once the inbox is closed.
    pub fn wait_background(&self) -> Result<()> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(Error::Disconnected);
            }
            let mine = st.fg_waiters == 0;
            if mine && st.head_due(Instant::now()) {
                return Ok(());
            }
            let until = st.head_due_at().filter(|_| mine);
            st.asleep = true;
            st = wait_until(&self.shared.ready, st, until);
            st.asleep = false;
        }
    }

    /// Registers the calling thread as a foreground waiter until the
    /// returned guard drops. While any is registered, a push wakes one
    /// sleeping foreground waiter and not the background listener; one
    /// that leaves while frames are still queued wakes another, or, if
    /// it was the last, the background listener.
    pub fn fg_enter(&self) -> Foreground<'_> {
        lock(&self.shared.state).fg_waiters += 1;
        Foreground { inbox: self }
    }

    fn fg_leave(&self) {
        let mut st = lock(&self.shared.state);
        st.fg_waiters -= 1;
        // A waiter can leave woken by a push it did not drain: the queued
        // frames pass to another waiter, or from the last to the
        // background listener.
        let wake = if st.queue.is_empty() {
            Wake::Nobody
        } else if st.fg_waiters > 0 {
            st.fg_wake(Wake::OneForeground)
        } else if std::mem::take(&mut st.asleep) {
            Wake::Background
        } else {
            Wake::Nobody
        };
        drop(st);
        self.wake(wake);
    }

    /// Moves the epoch without a frame, waking every foreground waiter
    /// blocked in [`Foreground::wait`]: something they wait for other
    /// than a frame (a page another thread installed) has happened.
    pub fn kick(&self) {
        let mut st = lock(&self.shared.state);
        st.epoch += 1;
        let wake = st.fg_wake(Wake::AllForeground);
        drop(st);
        self.wake(wake);
    }

    /// Closes the inbox: queued frames are discarded, later ones are not
    /// queued, and every receive or wait — including one blocked right
    /// now — returns [`Error::Disconnected`] at once.
    pub fn close(&self) {
        let mut st = lock(&self.shared.state);
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.wake(Wake::Background);
        self.wake(Wake::AllForeground);
    }
}

/// A registered foreground waiter of an [`Inbox`] ([`Inbox::fg_enter`]);
/// dropping it leaves.
#[must_use = "dropping the guard leaves at once"]
pub struct Foreground<'a> {
    inbox: &'a Inbox,
}

impl Foreground<'_> {
    /// The inbox's epoch now: read it before checking what to wait for,
    /// then hand it to [`Foreground::wait`].
    pub fn epoch(&self) -> u64 {
        lock(&self.inbox.shared.state).epoch
    }

    /// Blocks until the epoch is no longer `seen` (a push or a kick came
    /// after the read), or the head frame is due; drain with
    /// [`Inbox::try_recv`] after it returns.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] once `deadline` passes, [`Error::Disconnected`]
    /// once the inbox is closed.
    pub fn wait(&self, seen: u64, deadline: Option<Instant>) -> Result<()> {
        let shared = &self.inbox.shared;
        let mut st = lock(&shared.state);
        loop {
            if st.closed {
                return Err(Error::Disconnected);
            }
            let now = Instant::now();
            if st.epoch != seen || st.head_due(now) {
                return Ok(());
            }
            if deadline.is_some_and(|deadline| deadline <= now) {
                return Err(Error::Timeout);
            }
            let until = st.head_due_at().into_iter().chain(deadline).min();
            st.fg_asleep += 1;
            st = wait_until(&shared.fg_ready, st, until);
            st.fg_asleep -= 1;
        }
    }
}

impl Drop for Foreground<'_> {
    fn drop(&mut self) {
        self.inbox.fg_leave();
    }
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Inbox(queued={})", lock(&self.shared.state).queue.len())
    }
}

/// One attachment to the segment: who listens.
struct Tap {
    host: HostId,
    inbox: Inbox,
}

/// Everything a transmission reads or writes, behind one lock.
struct Medium {
    /// When the wire is idle again.
    free_at: Instant,
    /// Frame-loss probability, reconfigurable on the live segment
    /// ([`Lan::set_loss`]).
    loss: f64,
    rng: StdRng,
    stats: NetStats,
    taps: Vec<Tap>,
}

/// One segment's wire.
struct Wire {
    latency: Duration,
    bandwidth_bps: Option<u64>,
    medium: Mutex<Medium>,
}

impl Wire {
    fn new(cfg: LanConfig) -> Arc<Wire> {
        Arc::new(Wire {
            latency: cfg.latency,
            bandwidth_bps: cfg.bandwidth_bps,
            medium: Mutex::new(Medium {
                free_at: Instant::now(),
                loss: cfg.loss,
                rng: StdRng::seed_from_u64(cfg.seed),
                stats: NetStats::new(),
                taps: Vec::new(),
            }),
        })
    }

    /// Puts `pkt` on the wire as `from`, no earlier than `not_before`
    /// (see the module docs for the steps), noting on `wakes` whom it
    /// owes a wake-up. Returns when the frame has finished arriving, or
    /// `None` if it was lost.
    fn deliver(
        &self,
        from: HostId,
        pkt: &Packet,
        not_before: Instant,
        wakes: &mut Wakes,
    ) -> Option<Instant> {
        let mut dwell = self.latency;
        if let Some(bw) = self.bandwidth_bps {
            let bits = pkt.wire_size() as u64 * 8;
            dwell += Duration::from_nanos(bits.saturating_mul(1_000_000_000) / bw);
        }
        let mut m = lock(&self.medium);
        let due = m.free_at.max(not_before).max(Instant::now()) + dwell;
        m.free_at = due;
        m.stats.record(pkt);
        if m.loss > 0.0 && m.rng.gen::<f64>() < m.loss {
            m.stats.record_loss();
            return None;
        }
        for tap in m.taps.iter().filter(|t| t.host != from) {
            let d = Delivery {
                due,
                pkt: pkt.clone(),
            };
            tap.inbox.push(d, wakes);
        }
        Some(due)
    }
}

/// An in-process broadcast LAN. Cloning shares the same segment.
#[derive(Clone)]
pub struct Lan {
    wire: Arc<Wire>,
    /// The fabric this LAN is segment `.1` of, if it is bridged.
    bridges: Option<(Arc<Bridges>, usize)>,
}

impl Lan {
    /// Brings up a quiet segment.
    pub fn new(cfg: LanConfig) -> Self {
        Lan {
            wire: Wire::new(cfg),
            bridges: None,
        }
    }

    /// Attaches `host` to the segment with an inbox of its own: every
    /// frame another host broadcasts here is queued there.
    ///
    /// # Panics
    ///
    /// Panics if `host` is already attached — one NIC per host.
    pub fn endpoint(&self, host: HostId) -> Endpoint {
        let inbox = Inbox::default();
        let mut m = lock(&self.wire.medium);
        assert!(
            m.taps.iter().all(|t| t.host != host),
            "host {host} already attached to this LAN"
        );
        m.taps.push(Tap {
            host,
            inbox: inbox.clone(),
        });
        drop(m);
        Endpoint {
            host,
            lan: self.clone(),
            inbox,
        }
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        lock(&self.wire.medium).stats
    }

    /// Reconfigures the frame-loss probability on the live segment. Loss
    /// is sampled when the frame is transmitted: every broadcast that
    /// starts after this call sees the new value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn set_loss(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        lock(&self.wire.medium).loss = p;
    }

    /// Transmits one encoded frame as `from`: the entry point of every
    /// broadcast, which carries it across the fabric too on a bridged
    /// segment, and wakes whom it owes once its locks are released.
    fn transmit(&self, from: HostId, frame: &WireFrame) {
        // Decode once per broadcast; every listener gets a cheap clone
        // whose payload is a zero-copy view of the sender's own buffer
        // (vectored framing end to end).
        let Ok(pkt) = Packet::decode_frame(frame) else {
            // `Packet::encode_vectored` cannot produce such a frame; it
            // is dropped and counted rather than crashing the segment.
            lock(&self.wire.medium).stats.record_decode_error();
            return;
        };
        match &self.bridges {
            None => {
                let mut wakes = Vec::new();
                self.wire.deliver(from, &pkt, Instant::now(), &mut wakes);
                wake(wakes);
            }
            Some((bridges, seg)) => bridges.carry(VecDeque::from([Hop {
                seg: *seg,
                pkt,
                from,
                emitter: None,
                not_before: Instant::now(),
                hops: 0,
            }])),
        }
    }
}

impl std::fmt::Debug for Lan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lan(listeners={})", lock(&self.wire.medium).taps.len())
    }
}

/// The bridge devices of a segmented deployment: the one [`Fabric`]
/// both engines drive, behind one lock, and the wires of the segments
/// it joins, which every crossing walks in the transmitting thread (see
/// the module docs, "Bridged segments").
pub struct Bridges {
    fabric: Mutex<Fabric>,
    wires: Vec<Arc<Wire>>,
    /// The wall-clock epoch the fabric's `SimTime` counts from
    /// (1 wall-ns ≙ 1 sim-ns).
    start: Instant,
}

/// One entry of a crossing's work list: `pkt` goes on segment `seg`'s
/// wire, sent by `from` — a host, or device `emitter` — no earlier than
/// `not_before`, having crossed `hops` devices.
struct Hop {
    seg: usize,
    pkt: Packet,
    from: HostId,
    emitter: Option<usize>,
    not_before: Instant,
    hops: usize,
}

impl Hop {
    /// `e` leaving its device `hops` crossings in, no earlier than
    /// `not_before`.
    fn emitted(e: Emission, not_before: Instant, hops: usize) -> Hop {
        Hop {
            seg: e.seg,
            pkt: e.pkt,
            from: HostId(BRIDGE_HOST_BASE + e.device as u16),
            emitter: Some(e.device),
            not_before,
            hops,
        }
    }
}

impl Bridges {
    /// Brings up one quiet segment per entry of `lans`, laid out as
    /// `layout`, and the fabric `cfg` joining them. Returns the fabric
    /// and the segments' LANs, in segment order; a broadcast on any of
    /// them crosses the fabric before it returns.
    ///
    /// # Panics
    ///
    /// Panics if the topology's segment count differs from the layout's
    /// or from the number of `lans`.
    pub fn new(
        lans: impl IntoIterator<Item = LanConfig>,
        layout: SegmentLayout,
        cfg: FabricConfig,
    ) -> (Arc<Bridges>, Vec<Lan>) {
        let wires: Vec<Arc<Wire>> = lans.into_iter().map(Wire::new).collect();
        assert_eq!(wires.len(), layout.segments(), "one LAN per segment");
        let bridges = Arc::new(Bridges {
            fabric: Mutex::new(Fabric::new(layout, cfg)),
            wires: wires.clone(),
            start: Instant::now(),
        });
        let lans = (wires.into_iter().enumerate())
            .map(|(seg, wire)| Lan {
                wire,
                bridges: Some((Arc::clone(&bridges), seg)),
            })
            .collect();
        (bridges, lans)
    }

    /// Locks the fabric.
    pub fn fabric(&self) -> MutexGuard<'_, Fabric> {
        lock(&self.fabric)
    }

    /// The wall time since the fabric came up, as its `SimTime`. Read it
    /// under the fabric lock, so the fabric sees time run forward.
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// One hello-cadence tick of every device ([`Fabric::tick`]), their
    /// hellos transmitted and carried like any frame. Nothing happens
    /// under a static election.
    pub fn tick(&self) {
        let hellos: VecDeque<Hop> = {
            let mut fabric = self.fabric();
            (0..fabric.device_count())
                .flat_map(|device| fabric.tick(device, self.now()))
                .map(|e| Hop::emitted(e, Instant::now(), 0))
                .collect()
        };
        self.carry(hellos);
    }

    /// Runs the work list `work` with the devices' own step: the
    /// fabric's untimed one, at the wall clock.
    fn carry(&self, work: VecDeque<Hop>) {
        self.walk(work, |fabric, hop, out| {
            fabric.carry(&hop.pkt, hop.seg, self.now(), hop.emitter, hop.hops, out);
        });
    }

    /// Runs the work list `work` under the fabric lock: each entry goes
    /// on its segment's wire, then `step` hands what the wire carried to
    /// the devices there, and what they emit joins the list one crossing
    /// on, due no earlier than the entry finished arriving. Wakes whom
    /// the pushes owe once the lock is released.
    fn walk(
        &self,
        mut work: VecDeque<Hop>,
        mut step: impl FnMut(&mut Fabric, &Hop, &mut Vec<Emission>),
    ) {
        let mut wakes = Vec::new();
        {
            let mut fabric = self.fabric();
            let mut out = Vec::new();
            while let Some(hop) = work.pop_front() {
                let wire = &self.wires[hop.seg];
                let Some(due) = wire.deliver(hop.from, &hop.pkt, hop.not_before, &mut wakes) else {
                    continue;
                };
                step(&mut fabric, &hop, &mut out);
                work.extend(out.drain(..).map(|e| Hop::emitted(e, due, hop.hops + 1)));
            }
        }
        wake(wakes);
    }
}

/// One host's attachment to one [`Lan`] ([`Lan::endpoint`]): it
/// transmits as the host and hears on an [`Inbox`] of its own. Dropping
/// it detaches.
pub struct Endpoint {
    host: HostId,
    lan: Lan,
    inbox: Inbox,
}

impl Endpoint {
    /// The host this endpoint belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Broadcasts `pkt` to every other listener on the segment, and on a
    /// bridged segment across the fabric too (see the module docs). On
    /// return the frame is in their inboxes, due once the wire has
    /// carried it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Encode`] — and counts it in
    /// [`NetStats::encode_errors`] without transmitting anything — if a
    /// field of `pkt` exceeds its wire length prefix.
    pub fn broadcast(&self, pkt: &Packet) -> Result<()> {
        let frame = pkt.try_encode_vectored().inspect_err(|_| {
            lock(&self.lan.wire.medium).stats.record_encode_error();
        })?;
        self.lan.transmit(self.host, &frame);
        Ok(())
    }

    /// Blocks until the next broadcast arrives ([`Inbox::recv`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] once the endpoint is closed.
    pub fn recv(&self) -> Result<Packet> {
        self.inbox.recv()
    }

    /// Receives with a timeout ([`Inbox::recv_timeout`]).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on expiry, [`Error::Disconnected`] once closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet> {
        self.inbox.recv_timeout(timeout)
    }

    /// Non-blocking receive; `Ok(None)` when no frame is due yet.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] once closed.
    pub fn try_recv(&self) -> Result<Option<Packet>> {
        self.inbox.try_recv()
    }

    /// The inbox this endpoint hears on.
    pub fn inbox(&self) -> &Inbox {
        &self.inbox
    }

    /// Stops listening ([`Inbox::close`]): a blocked [`Endpoint::recv`]
    /// returns [`Error::Disconnected`] at once.
    pub fn close(&self) {
        self.inbox.close();
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        lock(&self.lan.wire.medium)
            .taps
            .retain(|t| t.host != self.host);
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Endpoint({})", self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mether_core::{PageId, PageLength, Want};

    fn req_page(from: u16, page: u32) -> Packet {
        Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            want: Want::ReadOnly,
        }
    }

    fn req(from: u16) -> Packet {
        req_page(from, 1)
    }

    fn shaped(latency: Duration) -> Lan {
        Lan::new(LanConfig {
            latency,
            ..LanConfig::fast()
        })
    }

    #[test]
    fn lock_still_locks_a_poisoned_mutex() {
        let m = Mutex::new(1);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(&m);
                panic!("dies holding the lock");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let c = lan.endpoint(HostId(2));
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.recv().unwrap(), req(0));
        assert_eq!(c.recv().unwrap(), req(0));
        // The transmitter delivered the frame before `broadcast`
        // returned: had `a` heard itself, the frame would be here now.
        assert_eq!(a.try_recv().unwrap(), None, "sender does not hear itself");
    }

    #[test]
    fn frames_arrive_in_order() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        for i in 0..100 {
            a.broadcast(&req_page(0, i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(b.recv().unwrap().page(), PageId::new(i));
        }
    }

    #[test]
    fn try_recv_empty_then_some() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        assert_eq!(b.try_recv().unwrap(), None);
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(req(0)));
    }

    #[test]
    fn two_transmitters_two_listeners_one_total_order() {
        // However two transmitters interleave, every listener sees the
        // same sequence.
        const FRAMES: u32 = 1_000;
        let lan = Lan::new(LanConfig::fast());
        let senders = [lan.endpoint(HostId(0)), lan.endpoint(HostId(1))];
        let listeners = [lan.endpoint(HostId(2)), lan.endpoint(HostId(3))];
        let start = std::sync::Barrier::new(senders.len());
        let heard: Vec<Vec<u32>> = std::thread::scope(|s| {
            for (t, tx) in senders.iter().enumerate() {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..FRAMES {
                        tx.broadcast(&req_page(t as u16, t as u32 * FRAMES + i))
                            .unwrap();
                    }
                });
            }
            let heard: Vec<_> = listeners
                .iter()
                .map(|rx| {
                    s.spawn(move || {
                        (0..2 * FRAMES)
                            .map(|_| rx.recv().unwrap().page().index())
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            heard.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(heard[0], heard[1], "listeners disagree on the order");
        for t in 0..2 {
            let of_sender: Vec<u32> = heard[0]
                .iter()
                .copied()
                .filter(|p| p / FRAMES == t)
                .collect();
            assert_eq!(
                of_sender,
                (t * FRAMES..(t + 1) * FRAMES).collect::<Vec<_>>(),
                "sender {t}'s frames reordered or lost"
            );
        }
    }

    #[test]
    fn shaped_wire_carries_one_frame_at_a_time() {
        let dwell = Duration::from_millis(40);
        let lan = shaped(dwell);
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let t0 = Instant::now();
        a.broadcast(&req_page(0, 1)).unwrap();
        a.broadcast(&req_page(0, 2)).unwrap();
        // Queued at once, handed over no earlier than due: neither a poll
        // nor a wait that ends first takes the frame, or loses it.
        assert_eq!(b.try_recv().unwrap(), None);
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(2)),
            Err(Error::Timeout)
        ));
        assert_eq!(b.recv().unwrap().page(), PageId::new(1));
        assert!(t0.elapsed() >= dwell, "first frame before its dwell");
        assert_eq!(b.recv().unwrap().page(), PageId::new(2));
        assert!(
            t0.elapsed() >= 2 * dwell,
            "second frame did not queue behind the first"
        );
    }

    #[test]
    fn latency_is_applied() {
        let lan = shaped(Duration::from_millis(30));
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let t0 = Instant::now();
        a.broadcast(&req(0)).unwrap();
        let _ = b.recv().unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "latency enforced"
        );
    }

    #[test]
    fn bandwidth_stretches_the_dwell_by_frame_size() {
        // 64 wire bytes at 10 kbit/s occupy the wire for 51.2 ms.
        let lan = Lan::new(LanConfig {
            bandwidth_bps: Some(10_000),
            ..LanConfig::fast()
        });
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        assert_eq!(req(0).wire_size(), 64);
        let t0 = Instant::now();
        a.broadcast(&req(0)).unwrap();
        b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(51_200));
    }

    /// Two segments joined by one device (a star of 2), with a host
    /// endpoint on each.
    fn bridged_pair() -> (Arc<Bridges>, Vec<Lan>, Endpoint, Endpoint) {
        let layout = SegmentLayout::new(4, 2).unwrap();
        let fast = [LanConfig::fast(), LanConfig::fast()];
        let (bridges, lans) = Bridges::new(fast, layout, FabricConfig::star(2));
        let (a, b) = (lans[0].endpoint(HostId(0)), lans[1].endpoint(HostId(2)));
        (bridges, lans, a, b)
    }

    /// A request every device floods onto all its other ports.
    fn flooded(from: u16) -> Packet {
        Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(1),
            length: PageLength::Full,
            want: Want::Superset,
        }
    }

    #[test]
    fn a_broadcast_crosses_the_fabric_before_it_returns() {
        let (bridges, lans, a, b) = bridged_pair();
        a.broadcast(&flooded(0)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(flooded(0)));
        assert_eq!(a.try_recv().unwrap(), None, "the crossing came back");
        assert_eq!(bridges.fabric().device(0).stats().forwarded, 1);
        assert_eq!(lans[1].stats().packets, 1);
    }

    #[test]
    fn a_forwarding_loop_ends_at_the_hop_bound() {
        // A step that forgets who emitted each copy lets the device hear
        // its own forwards, so every copy comes back across: a loop no
        // active tree closes. The walk still ends once the frame has
        // crossed as many devices as there are segments, and the
        // crossing it refused is counted.
        let (bridges, lans, a, b) = bridged_pair();
        let first = Hop {
            seg: 0,
            pkt: flooded(0),
            from: HostId(0),
            emitter: None,
            not_before: Instant::now(),
            hops: 0,
        };
        let forgetful = |f: &mut Fabric, hop: &Hop, out: &mut Vec<Emission>| {
            f.carry(&hop.pkt, hop.seg, bridges.now(), None, hop.hops, out);
        };
        bridges.walk(VecDeque::from([first]), forgetful);
        let s = bridges.fabric().device(0).stats();
        assert_eq!((s.forwarded, s.dropped), (2, 1), "0 → 1 → 0, then no more");
        assert_eq!((lans[0].stats().packets, lans[1].stats().packets), (2, 1));
        assert_eq!(
            a.try_recv().unwrap(),
            Some(flooded(0)),
            "the copy that came back"
        );
        assert_eq!(b.try_recv().unwrap(), Some(flooded(0)));
    }

    #[test]
    fn close_wakes_a_blocked_listener() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        std::thread::scope(|s| {
            let blocked = s.spawn(|| b.recv());
            // Only close once the listener really is blocked.
            while !lock(&b.inbox.shared.state).asleep {
                std::thread::yield_now();
            }
            b.close();
            assert_eq!(blocked.join().unwrap(), Err(Error::Disconnected));
        });
        // A closed inbox takes no more frames and never delivers again.
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.try_recv(), Err(Error::Disconnected));
        assert_eq!(lock(&b.inbox.shared.state).queue.len(), 0);
    }

    /// Spins until `inbox`'s state says `asleep` (the background
    /// listener sleeps) and `fg_asleep` foreground waiters sleep.
    fn until_asleep(inbox: &Inbox, background: bool, fg_asleep: usize) {
        loop {
            let st = lock(&inbox.shared.state);
            if st.asleep == background && st.fg_asleep == fg_asleep {
                return;
            }
            drop(st);
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_push_wakes_the_foreground_waiter_not_the_background_listener() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let inbox = b.inbox();
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        let woke = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let background = s.spawn(|| {
                let r = inbox.wait_background();
                woke.store(true, std::sync::atomic::Ordering::SeqCst);
                r
            });
            until_asleep(inbox, true, 0);
            let fg = inbox.fg_enter();
            let seen = fg.epoch();
            s.spawn(|| {
                until_asleep(inbox, true, 1);
                a.broadcast(&req(0)).unwrap();
            });
            assert_eq!(fg.wait(seen, deadline), Ok(()));
            assert_eq!(inbox.try_recv().unwrap(), Some(req(0)));
            assert!(lock(&inbox.shared.state).asleep, "background was woken");
            assert!(!woke.load(std::sync::atomic::Ordering::SeqCst));
            // Nothing is queued: leaving wakes nobody.
            drop(fg);
            assert!(lock(&inbox.shared.state).asleep);
            b.close();
            assert_eq!(background.join().unwrap(), Err(Error::Disconnected));
        });
    }

    #[test]
    fn the_last_fg_leave_hands_a_queued_frame_to_the_background_listener() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let inbox = b.inbox();
        let first = inbox.fg_enter();
        let second = inbox.fg_enter();
        std::thread::scope(|s| {
            let background = s.spawn(|| inbox.wait_background().and_then(|()| inbox.try_recv()));
            until_asleep(inbox, true, 0);
            // Registered but not sleeping: the push owes nobody.
            a.broadcast(&req(0)).unwrap();
            drop(first);
            std::thread::sleep(Duration::from_millis(20));
            assert!(!background.is_finished(), "one waiter is still in");
            assert!(lock(&inbox.shared.state).asleep);
            drop(second);
            assert_eq!(background.join().unwrap(), Ok(Some(req(0))));
        });
    }

    /// Two foreground waiters sleep on `inbox`, each returning its wait's
    /// result with its guard, so it stays registered after it wakes.
    fn two_sleeping_waiters<'s, 'a: 's>(
        s: &'s std::thread::Scope<'s, 'a>,
        inbox: &'a Inbox,
    ) -> Vec<std::thread::ScopedJoinHandle<'s, (Result<()>, Foreground<'a>)>> {
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        let waiters = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let fg = inbox.fg_enter();
                    let seen = fg.epoch();
                    (fg.wait(seen, deadline), fg)
                })
            })
            .collect();
        until_asleep(inbox, false, 2);
        // Counted asleep just before the condvar wait: let both get in.
        std::thread::sleep(Duration::from_millis(20));
        waiters
    }

    #[test]
    fn a_push_wakes_one_of_two_sleeping_foreground_waiters() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let inbox = b.inbox();
        std::thread::scope(|s| {
            let waiters = two_sleeping_waiters(s, inbox);
            a.broadcast(&req(0)).unwrap();
            while !waiters.iter().any(|w| w.is_finished()) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !waiters.iter().all(|w| w.is_finished()),
                "one frame woke both waiters"
            );
            // A kick is for every waiter.
            inbox.kick();
            for w in waiters {
                assert_eq!(w.join().unwrap().0, Ok(()));
            }
        });
    }

    #[test]
    fn a_waiter_leaving_a_frame_queued_wakes_another() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let inbox = b.inbox();
        std::thread::scope(|s| {
            let mut waiters = two_sleeping_waiters(s, inbox);
            a.broadcast(&req(0)).unwrap();
            while !waiters.iter().any(|w| w.is_finished()) {
                std::thread::yield_now();
            }
            // The woken waiter leaves without draining; its guard's drop
            // hands the frame to the other.
            let woken = waiters.iter().position(|w| w.is_finished()).unwrap();
            let (r, fg) = waiters.swap_remove(woken).join().unwrap();
            assert_eq!(r, Ok(()));
            drop(fg);
            // Well before the other's deadline, which would end its wait
            // too.
            let handed = Instant::now() + Duration::from_secs(2);
            while !waiters[0].is_finished() {
                assert!(
                    Instant::now() < handed,
                    "the queued frame was left to nobody"
                );
                std::thread::yield_now();
            }
            let (r, _fg) = waiters.pop().unwrap().join().unwrap();
            assert_eq!(r, Ok(()));
            assert_eq!(inbox.try_recv().unwrap(), Some(req(0)));
        });
    }

    #[test]
    fn close_ends_a_foreground_wait() {
        let lan = Lan::new(LanConfig::fast());
        let b = lan.endpoint(HostId(1));
        let inbox = b.inbox();
        let fg = inbox.fg_enter();
        let seen = fg.epoch();
        std::thread::scope(|s| {
            s.spawn(|| {
                until_asleep(inbox, false, 1);
                b.close();
            });
            assert_eq!(fg.wait(seen, None), Err(Error::Disconnected));
        });
    }

    #[test]
    fn a_kick_ends_a_foreground_wait_and_a_stale_epoch_does_not_sleep() {
        let inbox = Inbox::default();
        let fg = inbox.fg_enter();
        let seen = fg.epoch();
        inbox.kick();
        assert_eq!(fg.wait(seen, None), Ok(()), "kicked before the wait");
        let seen = fg.epoch();
        assert_eq!(
            fg.wait(seen, Some(Instant::now() + Duration::from_millis(5))),
            Err(Error::Timeout)
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                until_asleep(&inbox, false, 1);
                inbox.kick();
            });
            assert_eq!(fg.wait(seen, None), Ok(()));
        });
    }

    #[test]
    fn loss_drops_frames() {
        let lan = Lan::new(LanConfig::fast().with_loss(1.0, 7));
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(lan.stats().lost, 1);
        assert_eq!(lan.stats().packets, 1, "a lost frame was still sent");
        // Loss is drawn per transmission: turning it off takes effect
        // with the next frame.
        lan.set_loss(0.0);
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(req(0)));
        assert_eq!(lan.stats().lost, 1);
    }

    #[test]
    fn stats_count_broadcasts() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let _b = lan.endpoint(HostId(1));
        a.broadcast(&req(0)).unwrap();
        a.broadcast(&req(0)).unwrap();
        assert_eq!(lan.stats().packets, 2);
        assert_eq!(lan.stats().requests, 2);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn duplicate_host_rejected() {
        let lan = Lan::new(LanConfig::fast());
        let _a = lan.endpoint(HostId(0));
        let _dup = lan.endpoint(HostId(0));
    }

    #[test]
    fn dropped_endpoint_detaches() {
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        {
            let _b = lan.endpoint(HostId(1));
        }
        // b is gone; broadcasting must not error or hang.
        a.broadcast(&req(0)).unwrap();
        let _c = lan.endpoint(HostId(1)); // id reusable after detach
    }

    #[test]
    fn corrupt_frame_is_counted_and_dropped_not_fatal() {
        // A frame that fails to decode increments
        // `NetStats::decode_errors`, reaches no receiver, and leaves the
        // segment alive for later traffic. (The public `broadcast` only
        // accepts well-formed `Packet`s, so the corrupt frame is injected
        // where encoded frames enter the wire.)
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let corrupt = WireFrame {
            header: bytes::Bytes::from(vec![0xffu8; 10]),
            payload: bytes::Bytes::from(vec![0u8; 4]),
        };
        lan.transmit(HostId(0), &corrupt);
        assert_eq!(
            b.try_recv().unwrap(),
            None,
            "corrupt frame must reach no receiver"
        );
        assert_eq!(lan.stats().decode_errors, 1, "decode failure counted");
        // The segment survives: a good broadcast still goes through.
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), req(0));
        assert_eq!(lan.stats().decode_errors, 1);
    }

    #[test]
    fn unencodable_packet_is_refused_and_counted() {
        // A packet whose length fields cannot be encoded without
        // wrapping is refused at the sender: counted, never on the
        // wire, segment unharmed.
        let lan = Lan::new(LanConfig::fast());
        let a = lan.endpoint(HostId(0));
        let b = lan.endpoint(HostId(1));
        let view = mether_core::DeviceView {
            version: 1,
            alive: true,
            ports: mether_core::HostMask::single(0),
        };
        let over = Packet::BridgePdu {
            from: HostId(0xFF00),
            device: 0,
            entries: (0..=mether_core::wire::MAX_PDU_VIEWS as u16)
                .map(|d| (d, view.clone()))
                .collect(),
        };
        assert!(matches!(a.broadcast(&over), Err(Error::Encode(_))));
        assert_eq!(lan.stats().encode_errors, 1, "refusal counted");
        assert_eq!(lan.stats().packets, 0, "nothing reached the wire");
        assert_eq!(b.try_recv().unwrap(), None, "no frame delivered");
        // The segment survives: a good broadcast still goes through.
        a.broadcast(&req(0)).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), req(0));
    }
}
