//! A Mether node: one "workstation" of the threaded runtime.
//!
//! Each [`Node`] owns a kernel-driver state ([`mether_core::PageTable`] —
//! the *same* protocol logic the simulator runs) and an endpoint on the
//! in-process LAN. Application threads access the Mether address space
//! through blocking typed accessors.
//!
//! # Who receives
//!
//! Every frame the node hears is handled by one `pump`: drain the burst
//! that is due, run the NIC rule and the driver over it under the driver
//! lock, then transmit the replies and wake whom it unblocked. Two kinds
//! of thread run it, one at a time under the node's *receive lock*, so
//! the node still handles its frames one burst at a time, in arrival
//! order:
//!
//! * a thread blocked in an access — a fault waiting for its page —
//!   registers as a foreground waiter on the endpoint's inbox and pumps
//!   whatever arrives until its access is ready, its own reply and
//!   anyone else's requests alike. A remote fault thus costs the client
//!   one thread hop each way: client → home → client;
//! * the receiver thread, which snoops every broadcast while no access
//!   is blocked, and sleeps while one is.
//!
//! Lock order is receive lock, then driver. The simulator's cost model,
//! not this thread structure, is what models the paper's user-level
//! server process.
//!
//! # Loss
//!
//! A fault that sent a request (a demand or consistent fetch) re-sends
//! it when no reply comes within the node's retransmission timeout, by
//! the per-fault rules of [`mether_core::rto`] that the hardened
//! simulator host follows too; a read here stays at one timeout. So a
//! read without a deadline is live on a lossy LAN, and a deadline only
//! says how long the caller will wait. A data-driven wait sends
//! nothing, so nothing of it is re-sent: as the paper defines it, it
//! ends when a broadcast brings the page.
//!
//! One deliberate simplification versus SunOS: the PURGE → server →
//! DO-PURGE handshake is performed inline by the purging thread. In the
//! paper that indirection exists because the server is a separate process
//! that owns the socket; in a threaded runtime every thread can transmit,
//! so the handshake collapses without changing what reaches the wire.

use mether_core::rto::RETRY_FLOOR_NS;
use mether_core::{
    AccessOutcome, Admit, Effect, Error, FaultKind, FaultTimer, HostId, MapMode, MetherConfig,
    NicDrop, Packet, PageId, PageLength, PageTable, Result, RtoEstimator, VAddr,
};
use mether_net::rt::{lock, Endpoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames drained in one burst at most: a fabric melting down into a
/// frame storm — a queue that never goes quiet — cannot grow an
/// unbounded batch, nor keep a pump from returning.
const BURST_CAP: usize = 1024;

pub(crate) struct NodeInner {
    host: HostId,
    pub(crate) driver: Mutex<PageTable>,
    /// The receive lock: whoever pumps holds it, with the buffers the
    /// burst is drained into (see the module docs, "Who receives").
    receive: Mutex<Burst>,
    endpoint: Endpoint,
    next_waiter: AtomicU64,
    /// Wake effects applied so far, each counted before its kick: a
    /// blocked access re-checks only once this moved, since a check
    /// takes the driver lock and one that stays blocked changes nothing.
    wakes: AtomicU64,
    /// Page requests [`Admit::Coalesced`] within a drained receive burst
    /// (see [`Node::requests_coalesced`]).
    requests_coalesced: AtomicU64,
    /// Times this node's fault re-sends (see the module docs, "Loss");
    /// locked only by a fault that blocked.
    rto: Mutex<RtoEstimator>,
    /// The instant the fault timers count their nanoseconds from.
    clock: Instant,
}

/// A drained burst and the effects it produced; kept between pumps so
/// neither allocates per frame.
#[derive(Default)]
struct Burst {
    frames: Vec<Packet>,
    effects: Vec<Effect>,
}

impl NodeInner {
    fn apply_effects(&self, effects: impl IntoIterator<Item = Effect>) -> Result<()> {
        for fx in effects {
            match fx {
                Effect::Send(pkt) => self.endpoint.broadcast(&pkt)?,
                Effect::Wake(_) | Effect::WakeAll(_) | Effect::ConsistentArrived(_) => {
                    // Individual waiter identities are not tracked in the
                    // threaded runtime: every blocked accessor re-checks
                    // its own condition once the epoch moves. A coalesced
                    // `WakeAll` batch drains in this single kick.
                    self.wakes.fetch_add(1, Ordering::SeqCst);
                    self.endpoint.inbox().kick();
                }
                Effect::ServerPurge { .. } => {
                    unreachable!("writeable purges are handled inline by Node::purge")
                }
            }
        }
        Ok(())
    }

    /// Nanoseconds on the fault timers' clock.
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Handles the burst of frames due now, if any: the one receive path
    /// of the node (see the module docs, "Who receives").
    fn pump(&self) -> Result<()> {
        let mut burst = lock(&self.receive);
        let Burst { frames, effects } = &mut *burst;
        while frames.len() < BURST_CAP {
            let Some(pkt) = self.endpoint.try_recv()? else {
                break;
            };
            frames.push(pkt);
        }
        if frames.is_empty() {
            return Ok(());
        }
        {
            let mut driver = lock(&self.driver);
            for (i, pkt) in frames.iter().enumerate() {
                // The NIC's rule, with the frames ahead of this one in
                // the burst as the queue. Its drops skip only frames
                // `handle_packet` would ignore, but for one: a refresh
                // of a copy nobody has read since the last one is
                // installed anyway. Nothing here re-fetches a present
                // copy (the simulator's read lease), so a reader that
                // misses the last refresh of a page would read it stale
                // for good; dropping these hung the 64-count counting
                // run in half its runs on 2 cores.
                match driver.admit(pkt, None, &frames[..i]) {
                    Admit::Coalesced => {
                        self.requests_coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    Admit::Drop(NicDrop::Untracked | NicDrop::NotInRequestGroup) => {}
                    Admit::Keep | Admit::Drop(NicDrop::Unread) => {
                        driver.handle_packet(pkt, effects);
                    }
                }
            }
        }
        // Not kept past the pump: a queued payload shares its sender's
        // page buffer, and would turn the sender's next write into a
        // copy.
        frames.clear();
        self.apply_effects(effects.drain(..))
    }
}

/// Tells the bridge fabric a page was created on this node, so the
/// devices between the page's home and this node's segment can route
/// requests to it before it has transmitted anything
/// ([`mether_net::BridgePolicy::seed_holder`]).
pub(crate) type Announce = Box<dyn Fn(PageId) + Send + Sync>;

/// One host of a threaded Mether deployment.
pub struct Node {
    pub(crate) inner: Arc<NodeInner>,
    receiver: Option<JoinHandle<()>>,
    /// `None` on a flat cluster: there is no fabric to tell.
    announce: Option<Announce>,
}

impl Node {
    /// Attaches a new node as `host` to `endpoint`'s LAN; `announce`
    /// reaches the bridge fabric, if there is one.
    pub(crate) fn start(
        host: HostId,
        endpoint: Endpoint,
        cfg: MetherConfig,
        announce: Option<Announce>,
    ) -> Node {
        let inner = Arc::new(NodeInner {
            host,
            driver: Mutex::new(PageTable::new(host, cfg)),
            receive: Mutex::new(Burst::default()),
            endpoint,
            next_waiter: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            requests_coalesced: AtomicU64::new(0),
            rto: Mutex::new(RtoEstimator::new(RETRY_FLOOR_NS, 0)),
            clock: Instant::now(),
        });
        let rx_inner = Arc::clone(&inner);
        let receiver = std::thread::Builder::new()
            .name(format!("mether-node-{host}"))
            .spawn(move || {
                // The background listener: pumps while no access is
                // blocked. It sleeps until a frame is due or
                // [`Node::shutdown`] closes the endpoint, which every
                // wait and drain reports at once.
                while rx_inner.endpoint.inbox().wait_background().is_ok() {
                    if rx_inner.pump().is_err() {
                        break;
                    }
                }
            })
            .expect("spawn node receiver thread");
        Node {
            inner,
            receiver: Some(receiver),
            announce,
        }
    }

    /// This node's host id.
    pub fn host(&self) -> HostId {
        self.inner.host
    }

    /// Page requests this node's receiver dropped as
    /// [`Admit::Coalesced`]: an identical one was earlier in the same
    /// drained burst. The simulator's NIC counts the same verdict, so
    /// the engines' reports line up.
    pub fn requests_coalesced(&self) -> u64 {
        self.inner.requests_coalesced.load(Ordering::Relaxed)
    }

    /// The node's measured retransmission timeout: how long a fault
    /// waits for a reply before it re-sends its request, before backoff.
    pub fn fault_timeout(&self) -> Duration {
        Duration::from_nanos(lock(&self.inner.rto).rto_ns())
    }

    /// Seeds `page` as created here: zero-filled, consistent copy local.
    /// On a bridged cluster the fabric learns where, when it needs to.
    pub fn create_owned(&self, page: PageId) {
        if let Some(announce) = &self.announce {
            announce(page);
        }
        lock(&self.inner.driver).create_owned(page);
    }

    /// Does this node currently hold the consistent copy of `page`?
    pub fn is_consistent_holder(&self, page: PageId) -> bool {
        lock(&self.inner.driver).is_consistent_holder(page)
    }

    /// Reads a little-endian `u32` at `addr` through a mapping of `mode`,
    /// blocking until the page is available (forever for a data-driven
    /// view that nobody ever publishes — use
    /// [`Node::read_u32_timeout`] when that is possible).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongMapMode`] for writeable access through a
    /// data-driven view, or [`Error::Disconnected`] if the LAN is gone.
    pub fn read_u32(&self, addr: VAddr, mode: MapMode) -> Result<u32> {
        self.read_u32_deadline(addr, mode, None)
    }

    /// [`Node::read_u32`] with a timeout.
    ///
    /// # Errors
    ///
    /// As [`Node::read_u32`], plus [`Error::Timeout`].
    pub fn read_u32_timeout(&self, addr: VAddr, mode: MapMode, timeout: Duration) -> Result<u32> {
        self.read_u32_deadline(addr, mode, Some(Instant::now() + timeout))
    }

    fn read_u32_deadline(
        &self,
        addr: VAddr,
        mode: MapMode,
        deadline: Option<Instant>,
    ) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_bytes_deadline(addr, mode, &mut b, deadline)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `addr` through the consistent
    /// (writeable) mapping, fetching the consistent copy if needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongMapMode`] if `addr` encodes a data-driven
    /// view, or [`Error::Disconnected`] if the LAN is gone.
    pub fn write_u32(&self, addr: VAddr, value: u32) -> Result<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads `buf.len()` bytes at `addr` (see [`Node::read_u32`]),
    /// waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// As [`Node::read_u32`], plus [`Error::OffsetOutsideView`] if the
    /// range crosses the view bound and [`Error::Timeout`].
    pub fn read_bytes_timeout(
        &self,
        addr: VAddr,
        mode: MapMode,
        buf: &mut [u8],
        timeout: Duration,
    ) -> Result<()> {
        self.read_bytes_deadline(addr, mode, buf, Some(Instant::now() + timeout))
    }

    fn read_bytes_deadline(
        &self,
        addr: VAddr,
        mode: MapMode,
        buf: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<()> {
        self.when_ready(addr, mode, deadline, |driver| {
            driver
                .page_buf(addr.page())
                .expect("ready implies present")
                .read(addr.offset() as usize, buf)
        })
    }

    /// Writes `buf` at `addr` through the consistent mapping.
    ///
    /// # Errors
    ///
    /// As [`Node::write_u32`].
    pub fn write_bytes(&self, addr: VAddr, buf: &[u8]) -> Result<()> {
        self.when_ready(addr, MapMode::Writeable, None, |driver| {
            driver
                .page_buf_mut(addr.page())
                .expect("ready implies present")
                .write(addr.offset() as usize, buf)
        })
    }

    /// Runs `op` on the driver once an access to `addr` through `mode`
    /// is ready, faulting the page in first and re-sending a lost
    /// request (see the module docs, "Loss"); gives the fault up at
    /// `deadline` with [`Error::Timeout`]. While blocked, the calling
    /// thread receives for the node (see "Who receives").
    fn when_ready<T>(
        &self,
        addr: VAddr,
        mode: MapMode,
        deadline: Option<Instant>,
        op: impl FnOnce(&mut PageTable) -> Result<T>,
    ) -> Result<T> {
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let page = addr.page();
        let access = |driver: &mut PageTable, effects: &mut Vec<Effect>| {
            driver.access(page, addr.view(), mode, waiter, effects)
        };
        // A request's timer, and when it falls due.
        let arm = |last: Option<FaultTimer>| {
            let rto = lock(&self.inner.rto);
            let timer = rto.request_sent(last, self.inner.now_ns());
            let due = rto.due_ns(timer, mode != MapMode::ReadOnly);
            (timer, self.inner.clock + Duration::from_nanos(due))
        };
        let finish = |mut driver: MutexGuard<'_, PageTable>,
                      effects: Vec<Effect>,
                      retry: Option<(FaultTimer, Instant)>| {
            if let Some((timer, _)) = retry {
                lock(&self.inner.rto).answered(timer, self.inner.now_ns());
            }
            let out = op(&mut driver)?;
            drop(driver);
            self.inner.apply_effects(effects)?;
            Ok(out)
        };
        let mut effects = Vec::new();
        // Read before every check, so whatever readies the access after
        // it moves `wakes` past `checked` (and the epoch past `seen`).
        let mut checked = self.inner.wakes.load(Ordering::SeqCst);
        let mut driver = lock(&self.inner.driver);
        let kind = match access(&mut driver, &mut effects)? {
            AccessOutcome::Ready => return finish(driver, effects, None),
            AccessOutcome::Blocked(kind) => kind,
        };
        drop(driver);
        let mut retry =
            matches!(kind, FaultKind::DemandFetch | FaultKind::ConsistentFetch).then(|| arm(None));
        // A miss: from here until it returns this thread receives for
        // the node, registered before the fault request goes out so the
        // reply wakes it.
        let fg = self.inner.endpoint.inbox().fg_enter();
        loop {
            self.inner.apply_effects(effects.drain(..))?;
            let seen = fg.epoch();
            let wakes = self.inner.wakes.load(Ordering::SeqCst);
            if wakes != checked {
                checked = wakes;
                let mut driver = lock(&self.inner.driver);
                if access(&mut driver, &mut effects)? == AccessOutcome::Ready {
                    return finish(driver, effects, retry);
                }
                drop(driver);
                if !effects.is_empty() {
                    continue;
                }
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| d <= now) {
                return Err(self.give_up(page, waiter));
            }
            if let Some((timer, _)) = retry.filter(|&(_, due)| due <= now) {
                // No reply in time: the request or the reply was lost.
                // Accessing anew re-sends the request.
                let mut driver = lock(&self.inner.driver);
                driver.cancel_wait(page, waiter);
                if access(&mut driver, &mut effects)? == AccessOutcome::Ready {
                    return finish(driver, effects, retry);
                }
                drop(driver);
                retry = Some(arm(Some(timer)));
                continue;
            }
            self.inner.pump()?;
            let until = deadline.into_iter().chain(retry.map(|(_, due)| due)).min();
            match fg.wait(seen, until) {
                // The deadline or the re-send: the loop's top tells which.
                Err(Error::Timeout) => {}
                other => other?,
            }
        }
    }

    /// Abandons a fault at its deadline so a retry retransmits the
    /// request (drop recovery on the lossy LAN).
    fn give_up(&self, page: PageId, waiter: u64) -> Error {
        lock(&self.inner.driver).cancel_wait(page, waiter);
        Error::Timeout
    }

    /// PURGEs `page` through a mapping of `mode`.
    ///
    /// Read-only: invalidates the local inconsistent copy. Writeable:
    /// broadcasts a read-only copy of length `length` (the paper's
    /// PURGE/DO-PURGE pair, collapsed inline — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotConsistentHolder`] for a writeable purge
    /// without the consistent copy here.
    pub fn purge(&self, page: PageId, mode: MapMode, length: PageLength) -> Result<()> {
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let mut effects = Vec::new();
        let mut driver = lock(&self.inner.driver);
        match driver.purge(page, mode, length, waiter, &mut effects)? {
            AccessOutcome::Ready => {
                drop(driver);
                self.inner.apply_effects(effects)?;
                Ok(())
            }
            AccessOutcome::Blocked(_) => {
                // Inline server: broadcast the page, then DO-PURGE.
                let pkt = driver.server_purge_broadcast(page, length)?;
                let mut wake = Vec::new();
                driver.do_purge(page, &mut wake);
                drop(driver);
                self.inner.endpoint.broadcast(&pkt)?;
                // `wake` names only this thread; nothing to notify.
                Ok(())
            }
        }
    }

    /// Locks `page` into this node (Figure 1 lock semantics).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LockFailed`] if the consistent copy (with all
    /// subsets) is not present.
    pub fn lock(&self, page: PageId, length: PageLength) -> Result<()> {
        lock(&self.inner.driver).lock(page, length)
    }

    /// Unlocks `page`, releasing any deferred consistency transfers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] if a deferred transfer cannot be
    /// transmitted.
    pub fn unlock(&self, page: PageId) -> Result<()> {
        let mut effects = Vec::new();
        {
            let mut driver = lock(&self.inner.driver);
            driver.unlock(page, &mut effects);
        }
        self.inner.apply_effects(effects)
    }

    /// Tells the receiver thread and every blocked accessor to stop,
    /// without waiting for them: closing the endpoint wakes them at once,
    /// and a blocked access returns [`Error::Disconnected`].
    pub(crate) fn signal_shutdown(&self) {
        self.inner.endpoint.close();
    }

    /// Stops the receiver thread. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.signal_shutdown();
        if let Some(h) = self.receiver.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({})", self.inner.host)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Node;
    use crate::{Cluster, ClusterConfig};
    use mether_core::{
        Error, HostId, MapMode, MetherConfig, Packet, PageId, PageLength, VAddr, View, Want,
    };
    use mether_net::rt::{lock, Endpoint, Lan, LanConfig};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn a_read_without_deadline_ends_when_the_endpoint_closes() {
        // Page 5 is homed nowhere: the request goes unanswered and the
        // read blocks with no deadline until the endpoint closes.
        let c = Arc::new(Cluster::new(ClusterConfig::fast(2)).unwrap());
        let addr = VAddr::new(PageId::new(5), View::short_demand(), 0).unwrap();
        let (tx, rx) = mpsc::channel();
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                tx.send(c.node(1).read_u32(addr, MapMode::ReadOnly))
                    .unwrap();
            })
        };
        while lock(&c.node(1).inner.driver).stats().demand_faults == 0 {
            std::thread::yield_now();
        }
        c.node(1).signal_shutdown();
        let read = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(read, Ok(Err(Error::Disconnected)));
        reader.join().unwrap();
    }

    /// Page 5 is homed nowhere, so no reply comes: the read re-sends its
    /// request at each timeout until its deadline, and no timeout is
    /// under the 20 ms floor.
    #[test]
    fn an_unanswered_demand_read_re_sends_until_its_deadline() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        assert_eq!(c.node(1).fault_timeout(), Duration::from_millis(20));
        let addr = VAddr::new(PageId::new(5), View::short_demand(), 0).unwrap();
        let read = c
            .node(1)
            .read_u32_timeout(addr, MapMode::ReadOnly, Duration::from_millis(100));
        assert_eq!(read, Err(Error::Timeout));
        let requests = c.net_stats().requests;
        assert!((2..=5).contains(&requests), "{requests} requests in 100 ms");
    }

    /// Eight threads block on a data-driven read of a page nobody
    /// publishes while the node makes 1 000 purge-and-refetch round
    /// trips: every reply wakes them to re-check, and each stays one
    /// waiter and one fault.
    #[test]
    fn a_blocked_accessor_is_registered_once() {
        let c = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(1);
        c.node(0).create_owned(page);
        let fetched = VAddr::new(page, View::short_demand(), 0).unwrap();
        let unpublished = VAddr::new(PageId::new(2), View::short_data(), 0).unwrap();
        let node = c.node(1);
        let data_faults = || lock(&node.inner.driver).stats().data_faults;
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| s.spawn(|| node.read_u32(unpublished, MapMode::ReadOnly)))
                .collect();
            while data_faults() < 8 {
                std::thread::yield_now();
            }
            for _ in 0..1000 {
                node.purge(page, MapMode::ReadOnly, PageLength::Short)
                    .unwrap();
                node.read_u32(fetched, MapMode::ReadOnly).unwrap();
            }
            let faults = data_faults();
            node.signal_shutdown();
            for r in readers {
                assert_eq!(r.join().unwrap(), Err(Error::Disconnected));
            }
            assert_eq!(faults, 8);
        });
    }

    /// A node whose receiver thread and two accessor threads all drain
    /// its inbox still answers requests in the order they arrived: one
    /// receive lock covers a burst from its drain to its replies.
    #[test]
    fn pumping_threads_answer_requests_in_arrival_order() {
        let lan = Lan::new(LanConfig::fast());
        let node = Node::start(
            HostId(1),
            lan.endpoint(HostId(1)),
            MetherConfig::new(),
            None,
        );
        answers_in_arrival_order(&node, &lan.endpoint(HostId(0)));
    }

    /// `asker` asks `node` for 64 pages a round, 50 rounds, while two
    /// of the node's threads block on a page nobody publishes and pump
    /// whatever arrives; the replies must come back in request order.
    pub(crate) fn answers_in_arrival_order(node: &Node, asker: &Endpoint) {
        const PAGES: u32 = 64;
        for p in 0..PAGES {
            node.create_owned(PageId::new(p));
        }
        // Nobody publishes this page: its data-driven readers block for
        // a millisecond, step aside for one — while both are aside, the
        // receiver thread pumps — and block again until the endpoint
        // closes (or, should the test fail first, `give_up` passes).
        let unpublished = VAddr::new(PageId::new(PAGES), View::short_data(), 0).unwrap();
        let give_up = Instant::now() + Duration::from_secs(20);
        let blocked = || loop {
            let wait = Duration::from_millis(1);
            match node.read_u32_timeout(unpublished, MapMode::ReadOnly, wait) {
                Err(Error::Timeout) if Instant::now() < give_up => std::thread::sleep(wait),
                other => return other,
            }
        };
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2).map(|_| s.spawn(blocked)).collect();
            while lock(&node.inner.driver).stats().data_faults < 2 {
                std::thread::yield_now();
            }
            for round in 0..50 {
                for p in 0..PAGES {
                    let ask = Packet::PageRequest {
                        from: asker.host(),
                        page: PageId::new(p),
                        length: PageLength::Short,
                        want: Want::ReadOnly,
                    };
                    asker.broadcast(&ask).unwrap();
                }
                let answered: Vec<u32> = (0..PAGES)
                    .map(|_| {
                        let reply = asker.recv_timeout(Duration::from_secs(5)).unwrap();
                        reply.page().index()
                    })
                    .collect();
                assert_eq!(
                    answered,
                    (0..PAGES).collect::<Vec<_>>(),
                    "round {round}: replies out of request order"
                );
            }
            node.signal_shutdown();
            for r in readers {
                assert_eq!(r.join().unwrap(), Err(Error::Disconnected));
            }
        });
    }
}
