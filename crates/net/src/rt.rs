//! A real, threaded in-process broadcast LAN.
//!
//! `mether-runtime` nodes attach [`Endpoint`]s to a [`Lan`]; a bridge
//! device attaches one [`Inbox`] to each of its port segments
//! ([`Lan::attach`]). There is no thread behind a `Lan`: **the
//! transmitter delivers its own frame**. [`Port::broadcast`] encodes the
//! packet, takes the segment's *medium* — one mutex holding the wire's
//! `free_at` instant, the loss RNG, the traffic counters and the
//! listener list — and, under it,
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
//! # Who wakes whom
//!
//! A listener that finds nothing deliverable marks its inbox *asleep* and
//! blocks on the inbox's condition variable. A transmitter that pushes
//! into an asleep inbox takes the mark and owes that inbox one wake-up —
//! which it pays **after releasing the medium**, and only to inboxes that
//! were asleep. Waking under the lock is what a channel's `send` does,
//! and on one CPU it costs a round trip its whole gain: the woken
//! listener pre-empts the transmitter, handles the frame, and blocks on
//! the medium the transmitter still holds. [`Inbox::close`] wakes the
//! listener at once, so a receive loop needs no polling timeout to
//! notice shutdown.
//!
//! The locks here, and in `mether-runtime` and `mether-lib` above, are
//! plain `std::sync` ones, taken through [`lock`], which ignores
//! poisoning.

use crate::stats::NetStats;
use mether_core::{Error, HostId, Packet, Result, WireFrame};
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
    /// The tag of the attachment it arrived on.
    port: usize,
    pkt: Packet,
}

#[derive(Default)]
struct InboxState {
    /// Ordered by `due`; frames of one LAN keep their transmit order.
    queue: VecDeque<Delivery>,
    /// A listener is blocked on `ready` and nobody owes it a wake-up yet.
    asleep: bool,
    closed: bool,
}

impl InboxState {
    /// Takes the head frame if the wire has finished carrying it.
    fn pop_due(&mut self) -> Option<(usize, Packet)> {
        if self.queue.front()?.due > Instant::now() {
            return None;
        }
        self.queue.pop_front().map(|d| (d.port, d.pkt))
    }
}

#[derive(Default)]
struct InboxShared {
    state: Mutex<InboxState>,
    ready: Condvar,
}

/// A listener's receive queue. Cloning shares the same queue.
///
/// An inbox can be attached to several LANs ([`Lan::attach`]); every
/// frame comes out tagged with the port it arrived on, so a bridge
/// device waits on all its segments with one blocking call. It is built
/// for one listening thread; more are safe (every wake-up wakes all of
/// them) but each frame still goes to exactly one.
#[derive(Clone, Default)]
pub struct Inbox {
    shared: Arc<InboxShared>,
}

impl Inbox {
    /// An empty inbox, attached to nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `d` in due order. True if the listener was asleep: the
    /// caller must then [`Inbox::wake`] it — after dropping its own locks.
    fn push(&self, d: Delivery) -> bool {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return false;
        }
        // One LAN's frames are pushed in due order already; only a frame
        // from another port can belong ahead of the tail.
        let at = st.queue.iter().rposition(|q| q.due <= d.due);
        st.queue.insert(at.map_or(0, |i| i + 1), d);
        std::mem::take(&mut st.asleep)
    }

    fn wake(&self) {
        self.shared.ready.notify_all();
    }

    fn recv_by(&self, deadline: Option<Instant>) -> Result<(usize, Packet)> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(Error::Disconnected);
            }
            if let Some(heard) = st.pop_due() {
                return Ok(heard);
            }
            if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
                return Err(Error::Timeout);
            }
            // Sleep until the head frame is due or the deadline passes,
            // whichever is first; a push or a close wakes us earlier.
            let due = st.queue.front().map(|d| d.due);
            st.asleep = true;
            let ready = &self.shared.ready;
            st = match due.into_iter().chain(deadline).min() {
                Some(t) => {
                    let timeout = t.saturating_duration_since(Instant::now());
                    ready
                        .wait_timeout(st, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => ready.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
            st.asleep = false;
        }
    }

    /// Blocks until the next frame is due and returns it with the port
    /// it arrived on.
    ///
    /// The packet was decoded once, by its transmitter; receiving it here
    /// costs a queue pop, and its page payload is a zero-copy view shared
    /// with every other receiver of the same broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] once the inbox is closed.
    pub fn recv(&self) -> Result<(usize, Packet)> {
        self.recv_by(None)
    }

    /// Receives with a timeout. A frame whose due instant lies beyond the
    /// timeout stays queued for a later call.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on expiry, [`Error::Disconnected`] once closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(usize, Packet)> {
        self.recv_by(Some(Instant::now() + timeout))
    }

    /// Non-blocking receive; `Ok(None)` when no frame is due yet.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] once closed.
    pub fn try_recv(&self) -> Result<Option<(usize, Packet)>> {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return Err(Error::Disconnected);
        }
        Ok(st.pop_due())
    }

    /// Closes the inbox: queued frames are discarded, later ones are not
    /// queued, and every receive — including one blocked right now —
    /// returns [`Error::Disconnected`] at once.
    pub fn close(&self) {
        let mut st = lock(&self.shared.state);
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.wake();
    }
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Inbox(queued={})", lock(&self.shared.state).queue.len())
    }
}

/// One attachment to the segment: who listens, under which tag.
struct Tap {
    host: HostId,
    port: usize,
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

struct Inner {
    latency: Duration,
    bandwidth_bps: Option<u64>,
    medium: Mutex<Medium>,
}

impl Inner {
    /// Puts one encoded frame on the wire: the entry point of every
    /// transmission (see the module docs for the steps).
    fn transmit(&self, from: HostId, frame: &WireFrame, wire_size: usize) {
        let mut dwell = self.latency;
        if let Some(bw) = self.bandwidth_bps {
            dwell +=
                Duration::from_nanos((wire_size as u64 * 8).saturating_mul(1_000_000_000) / bw);
        }
        // Decode once per broadcast; every listener gets a cheap clone
        // whose payload is a zero-copy view of the sender's own buffer
        // (vectored framing end to end).
        let decoded = Packet::decode_frame(frame);
        let mut wake = Vec::new();
        {
            let mut m = lock(&self.medium);
            let due = m.free_at.max(Instant::now()) + dwell;
            m.free_at = due;
            let Ok(pkt) = decoded else {
                // `Packet::encode_vectored` cannot produce such a frame;
                // it is dropped and counted rather than crashing the
                // segment.
                m.stats.record_decode_error();
                return;
            };
            m.stats.record(&pkt);
            if m.loss > 0.0 && m.rng.gen::<f64>() < m.loss {
                m.stats.record_loss();
                return;
            }
            for tap in m.taps.iter().filter(|t| t.host != from) {
                let d = Delivery {
                    due,
                    port: tap.port,
                    pkt: pkt.clone(),
                };
                if tap.inbox.push(d) {
                    wake.push(tap.inbox.clone());
                }
            }
        }
        for inbox in wake {
            inbox.wake();
        }
    }
}

/// An in-process broadcast LAN. Cloning shares the same segment.
#[derive(Clone)]
pub struct Lan {
    inner: Arc<Inner>,
}

impl Lan {
    /// Brings up a quiet segment.
    pub fn new(cfg: LanConfig) -> Self {
        Lan {
            inner: Arc::new(Inner {
                latency: cfg.latency,
                bandwidth_bps: cfg.bandwidth_bps,
                medium: Mutex::new(Medium {
                    free_at: Instant::now(),
                    loss: cfg.loss,
                    rng: StdRng::seed_from_u64(cfg.seed),
                    stats: NetStats::new(),
                    taps: Vec::new(),
                }),
            }),
        }
    }

    /// Attaches `host` to the segment, listening on `inbox`: every frame
    /// another host broadcasts here is queued there tagged `port`. The
    /// returned [`Port`] transmits as `host` and detaches when dropped.
    ///
    /// # Panics
    ///
    /// Panics if `host` is already attached — one NIC per host.
    pub fn attach(&self, host: HostId, inbox: &Inbox, port: usize) -> Port {
        let mut m = lock(&self.inner.medium);
        assert!(
            m.taps.iter().all(|t| t.host != host),
            "host {host} already attached to this LAN"
        );
        m.taps.push(Tap {
            host,
            port,
            inbox: inbox.clone(),
        });
        Port {
            host,
            port,
            lan: Arc::clone(&self.inner),
        }
    }

    /// Attaches `host` with an inbox of its own.
    ///
    /// # Panics
    ///
    /// Panics if `host` is already attached — one NIC per host.
    pub fn endpoint(&self, host: HostId) -> Endpoint {
        let inbox = Inbox::new();
        Endpoint {
            port: self.attach(host, &inbox, 0),
            inbox,
        }
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        lock(&self.inner.medium).stats
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
        lock(&self.inner.medium).loss = p;
    }

    /// The current frame-loss probability.
    pub fn loss(&self) -> f64 {
        lock(&self.inner.medium).loss
    }
}

impl std::fmt::Debug for Lan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lan(listeners={})", lock(&self.inner.medium).taps.len())
    }
}

/// One host's transmit side of an attachment to a [`Lan`]
/// ([`Lan::attach`]); what it hears arrives in the attached [`Inbox`].
pub struct Port {
    host: HostId,
    port: usize,
    lan: Arc<Inner>,
}

impl Port {
    /// The tag frames heard on this attachment carry.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Broadcasts `pkt` to every other listener on the segment. On
    /// return the frame is in their inboxes, due once the wire has
    /// carried it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Encode`] — and counts it in
    /// [`NetStats::encode_errors`] without transmitting anything — if a
    /// field of `pkt` exceeds its wire length prefix.
    pub fn broadcast(&self, pkt: &Packet) -> Result<()> {
        match pkt.try_encode_vectored() {
            Ok(frame) => {
                self.lan.transmit(self.host, &frame, pkt.wire_size());
                Ok(())
            }
            Err(e) => {
                lock(&self.lan.medium).stats.record_encode_error();
                Err(e)
            }
        }
    }
}

impl Drop for Port {
    fn drop(&mut self) {
        lock(&self.lan.medium).taps.retain(|t| t.host != self.host);
    }
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Port({} #{})", self.host, self.port)
    }
}

/// One host's attachment to one [`Lan`]: a [`Port`] and an [`Inbox`] of
/// its own.
pub struct Endpoint {
    port: Port,
    inbox: Inbox,
}

impl Endpoint {
    /// The host this endpoint belongs to.
    pub fn host(&self) -> HostId {
        self.port.host
    }

    /// Broadcasts `pkt` to every other endpoint on the segment
    /// ([`Port::broadcast`]).
    ///
    /// # Errors
    ///
    /// As [`Port::broadcast`].
    pub fn broadcast(&self, pkt: &Packet) -> Result<()> {
        self.port.broadcast(pkt)
    }

    /// Blocks until the next broadcast arrives ([`Inbox::recv`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] once the endpoint is closed.
    pub fn recv(&self) -> Result<Packet> {
        self.inbox.recv().map(|(_, pkt)| pkt)
    }

    /// Receives with a timeout ([`Inbox::recv_timeout`]).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on expiry, [`Error::Disconnected`] once closed.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet> {
        self.inbox.recv_timeout(timeout).map(|(_, pkt)| pkt)
    }

    /// Non-blocking receive; `Ok(None)` when no frame is due yet.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] once closed.
    pub fn try_recv(&self) -> Result<Option<Packet>> {
        Ok(self.inbox.try_recv()?.map(|(_, pkt)| pkt))
    }

    /// Stops listening ([`Inbox::close`]): a blocked [`Endpoint::recv`]
    /// returns [`Error::Disconnected`] at once.
    pub fn close(&self) {
        self.inbox.close();
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Endpoint({})", self.port.host)
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
        // What the wire thread gave by construction: however two
        // transmitters interleave, every listener sees the same sequence.
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

    #[test]
    fn one_inbox_on_two_lans_tags_frames_by_port() {
        let (left, right) = (Lan::new(LanConfig::fast()), Lan::new(LanConfig::fast()));
        let inbox = Inbox::new();
        let device = HostId(9);
        let on_left = left.attach(device, &inbox, 7);
        let _on_right = right.attach(device, &inbox, 8);
        let l = left.endpoint(HostId(0));
        let r = right.endpoint(HostId(1));
        r.broadcast(&req(1)).unwrap();
        l.broadcast(&req(0)).unwrap();
        assert_eq!(inbox.recv().unwrap(), (8, req(1)));
        assert_eq!(inbox.recv().unwrap(), (7, req(0)));
        // Transmitting on one port reaches that segment only, and comes
        // back on neither.
        on_left.broadcast(&req(9)).unwrap();
        assert_eq!(l.try_recv().unwrap(), Some(req(9)));
        assert_eq!(r.try_recv().unwrap(), None);
        assert_eq!(inbox.try_recv().unwrap(), None);
    }

    #[test]
    fn a_slow_port_does_not_hold_back_a_fast_one() {
        // Frames leave a shared inbox in due order, not push order.
        let slow = shaped(Duration::from_millis(40));
        let fast = Lan::new(LanConfig::fast());
        let inbox = Inbox::new();
        let _a = slow.attach(HostId(9), &inbox, 0);
        let _b = fast.attach(HostId(9), &inbox, 1);
        slow.endpoint(HostId(0)).broadcast(&req(0)).unwrap();
        fast.endpoint(HostId(1)).broadcast(&req(1)).unwrap();
        assert_eq!(inbox.try_recv().unwrap(), Some((1, req(1))));
        assert_eq!(inbox.recv().unwrap(), (0, req(0)));
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
        lan.inner.transmit(HostId(0), &corrupt, 64);
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
