//! A Mether node: one "workstation" of the threaded runtime.
//!
//! Each [`Node`] owns a kernel-driver state ([`mether_core::PageTable`] —
//! the *same* protocol logic the simulator runs), an endpoint on the
//! in-process LAN, and a receiver thread that snoops every broadcast.
//! Application threads access the Mether address space through blocking
//! typed accessors; a faulting access blocks the calling thread on a
//! condition variable until the receiver thread installs the page and
//! wakes it, exactly mirroring the paper's fault → server → wakeup path.
//!
//! One deliberate simplification versus SunOS: the PURGE → server →
//! DO-PURGE handshake is performed inline by the purging thread. In the
//! paper that indirection exists because the server is a separate process
//! that owns the socket; in a threaded runtime every thread can transmit,
//! so the handshake collapses without changing what reaches the wire.

use mether_core::{
    AccessOutcome, Admit, Effect, Error, HostId, MapMode, MetherConfig, NicDrop, Packet, PageId,
    PageLength, PageTable, Result, VAddr,
};
use mether_net::rt::{lock, Endpoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) struct NodeInner {
    host: HostId,
    pub(crate) driver: Mutex<PageTable>,
    wakeups: Condvar,
    endpoint: Endpoint,
    next_waiter: AtomicU64,
    /// Page requests [`Admit::Coalesced`] within a drained receive burst
    /// (see [`Node::requests_coalesced`]).
    requests_coalesced: AtomicU64,
}

impl NodeInner {
    fn apply_effects(&self, effects: impl IntoIterator<Item = Effect>) -> Result<()> {
        for fx in effects {
            match fx {
                Effect::Send(pkt) => self.endpoint.broadcast(&pkt)?,
                Effect::Wake(_) | Effect::WakeAll(_) | Effect::ConsistentArrived(_) => {
                    // Individual waiter identities are not tracked in the
                    // threaded runtime: every blocked accessor re-checks
                    // its own condition on wakeup. A coalesced `WakeAll`
                    // batch drains in this single `notify_all` — one
                    // condvar storm per transit, however many accessors
                    // the packet unblocked (previously one per waiter).
                    self.wakeups.notify_all();
                }
                Effect::ServerPurge(_) => {
                    unreachable!("writeable purges are handled inline by Node::purge")
                }
            }
        }
        Ok(())
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
            wakeups: Condvar::new(),
            endpoint,
            next_waiter: AtomicU64::new(0),
            requests_coalesced: AtomicU64::new(0),
        });
        let rx_inner = Arc::clone(&inner);
        let receiver = std::thread::Builder::new()
            .name(format!("mether-node-{host}"))
            .spawn(move || {
                // The snooping receiver: every broadcast on the segment is
                // fed to the driver; effects (replies, wakeups) happen here.
                // It blocks until a frame arrives or [`Node::shutdown`]
                // closes the endpoint, which every receive — the burst
                // drain's too — reports at once; the drain is capped as
                // well, so a fabric melting down into a frame storm — a
                // queue that never goes quiet — can neither wedge the
                // join nor grow an unbounded batch.
                let endpoint = &rx_inner.endpoint;
                let mut batch: Vec<Packet> = Vec::new();
                let mut effects = Vec::new();
                while let Ok(pkt) = endpoint.recv() {
                    // Drain the burst queued behind this frame.
                    batch.push(pkt);
                    for _ in 0..1024 {
                        let Ok(Some(next)) = endpoint.try_recv() else {
                            break;
                        };
                        batch.push(next);
                    }
                    {
                        let mut driver = lock(&rx_inner.driver);
                        for (i, pkt) in batch.iter().enumerate() {
                            // The NIC's rule, with the frames ahead of
                            // this one in the burst as the queue. Its
                            // drops skip only frames `handle_packet`
                            // would ignore, but for one: a refresh of a
                            // copy nobody has read since the last one is
                            // installed anyway. Nothing here re-fetches
                            // a present copy (the simulator's read
                            // lease), so a reader that misses the last
                            // refresh of a page would read it stale for
                            // good; dropping these hung the 64-count
                            // counting run in half its runs on 2 cores.
                            match driver.admit(pkt, None, &batch[..i]) {
                                Admit::Coalesced => {
                                    rx_inner.requests_coalesced.fetch_add(1, Ordering::Relaxed);
                                }
                                Admit::Drop(NicDrop::Untracked | NicDrop::NotInRequestGroup) => {}
                                Admit::Keep | Admit::Drop(NicDrop::Unread) => {
                                    driver.handle_packet(pkt, &mut effects);
                                }
                            }
                        }
                    }
                    // Not kept over the wait: a queued payload shares its
                    // sender's page buffer, and would turn the sender's
                    // next write into a copy.
                    batch.clear();
                    if rx_inner.apply_effects(effects.drain(..)).is_err() {
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
    /// is ready, faulting the page in first; gives the fault up at
    /// `deadline` with [`Error::Timeout`].
    fn when_ready<T>(
        &self,
        addr: VAddr,
        mode: MapMode,
        deadline: Option<Instant>,
        op: impl FnOnce(&mut PageTable) -> Result<T>,
    ) -> Result<T> {
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let mut driver = lock(&self.inner.driver);
        loop {
            let mut effects = Vec::new();
            let outcome = driver.access(addr.page(), addr.view(), mode, waiter, &mut effects)?;
            match outcome {
                AccessOutcome::Ready => {
                    let out = op(&mut driver)?;
                    drop(driver);
                    self.inner.apply_effects(effects)?;
                    return Ok(out);
                }
                AccessOutcome::Blocked(_) => {
                    // Transmit the fault request (if any) without holding
                    // the driver lock, then wait for the receiver thread.
                    if !effects.is_empty() {
                        drop(driver);
                        self.inner.apply_effects(effects)?;
                        driver = lock(&self.inner.driver);
                        // State may have changed while unlocked; re-check
                        // before sleeping.
                        continue;
                    }
                    let (woken, in_time) = self.wait(driver, deadline);
                    driver = woken;
                    if !in_time {
                        // Abandon the fault so a retry retransmits the
                        // request (drop recovery on the lossy LAN).
                        driver.cancel_wait(addr.page(), waiter);
                        return Err(Error::Timeout);
                    }
                }
            }
        }
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
        match driver.purge(page, mode, waiter, &mut effects)? {
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

    /// Waits on the node's wakeup condition, handing the guard back with
    /// false if `deadline` passed first.
    fn wait<'a>(
        &self,
        driver: MutexGuard<'a, PageTable>,
        deadline: Option<Instant>,
    ) -> (MutexGuard<'a, PageTable>, bool) {
        let wakeups = &self.inner.wakeups;
        match deadline {
            None => (
                wakeups.wait(driver).unwrap_or_else(PoisonError::into_inner),
                true,
            ),
            Some(d) => {
                let timeout = d.saturating_duration_since(Instant::now());
                let (driver, res) = wakeups
                    .wait_timeout(driver, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                (driver, !res.timed_out())
            }
        }
    }

    /// Tells the receiver thread to stop, without waiting for it: closing
    /// the endpoint wakes it at once.
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
