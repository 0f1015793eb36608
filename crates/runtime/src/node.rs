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
    AccessOutcome, Effect, Error, HostId, MapMode, MetherConfig, Packet, PageId, PageLength,
    PageTable, Result, VAddr, Want,
};
use mether_net::rt::Endpoint;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) struct NodeInner {
    host: HostId,
    pub(crate) driver: Mutex<PageTable>,
    wakeups: Condvar,
    endpoint: Endpoint,
    next_waiter: AtomicU64,
    /// Page requests dropped because an identical one was already in
    /// the same drained receive burst (see [`Node::requests_coalesced`]).
    requests_coalesced: AtomicU64,
}

/// Is `pkt` a page request identical (same page, length, and want —
/// plus same requester for directed consistency transfers) to one
/// already in `earlier`? The runtime's counterpart of the simulator's
/// NIC-level request coalescing: every reply is a broadcast the whole
/// wire snoops, so one request per distinct ask satisfies every waiter
/// a duplicate could.
fn duplicate_request(pkt: &Packet, earlier: &[Packet]) -> bool {
    let Packet::PageRequest {
        from,
        page,
        length,
        want,
    } = pkt
    else {
        return false;
    };
    earlier.iter().any(|e| {
        matches!(e, Packet::PageRequest { from: f2, page: p2, length: l2, want: w2 }
            if p2 == page && l2 == length && w2 == want
                && (*want != Want::Consistent || f2 == from))
    })
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

/// One host of a threaded Mether deployment.
pub struct Node {
    pub(crate) inner: Arc<NodeInner>,
    receiver: Option<JoinHandle<()>>,
}

impl Node {
    /// Attaches a new node as `host` to `endpoint`'s LAN.
    pub(crate) fn start(host: HostId, endpoint: Endpoint, cfg: MetherConfig) -> Node {
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
                    // Drain the burst queued behind this frame,
                    // coalescing identical page requests within
                    // it — the one broadcast reply satisfies
                    // every requester the duplicates speak for.
                    batch.push(pkt);
                    for _ in 0..1024 {
                        let Ok(Some(next)) = endpoint.try_recv() else {
                            break;
                        };
                        if duplicate_request(&next, &batch) {
                            rx_inner.requests_coalesced.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        batch.push(next);
                    }
                    {
                        let mut driver = rx_inner.driver.lock();
                        for pkt in &batch {
                            driver.handle_packet(pkt, &mut effects);
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
        }
    }

    /// This node's host id.
    pub fn host(&self) -> HostId {
        self.inner.host
    }

    /// Page requests this node's receiver dropped because an identical
    /// request was already in the same drained burst — the runtime's
    /// counterpart of the simulator's NIC-level coalescing counter
    /// (`Calib::with_request_coalescing`), so the engines' reports
    /// line up.
    pub fn requests_coalesced(&self) -> u64 {
        self.inner.requests_coalesced.load(Ordering::Relaxed)
    }

    /// Seeds `page` as created here: zero-filled, consistent copy local.
    pub fn create_owned(&self, page: PageId) {
        self.inner.driver.lock().create_owned(page);
    }

    /// Does this node currently hold the consistent copy of `page`?
    pub fn is_consistent_holder(&self, page: PageId) -> bool {
        self.inner.driver.lock().is_consistent_holder(page)
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
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let mut driver = self.inner.driver.lock();
        loop {
            let mut effects = Vec::new();
            let outcome = driver.access(addr.page(), addr.view(), mode, waiter, &mut effects)?;
            match outcome {
                AccessOutcome::Ready => {
                    let v = driver
                        .page_buf(addr.page())
                        .expect("ready implies present")
                        .read_u32(addr.offset() as usize)?;
                    drop(driver);
                    self.inner.apply_effects(effects)?;
                    return Ok(v);
                }
                AccessOutcome::Blocked(_) => {
                    // Transmit the fault request (if any) without holding
                    // the driver lock, then wait for the receiver thread.
                    if !effects.is_empty() {
                        drop(driver);
                        self.inner.apply_effects(effects)?;
                        driver = self.inner.driver.lock();
                        // State may have changed while unlocked; re-check
                        // before sleeping.
                        continue;
                    }
                    if !self.wait(&mut driver, deadline) {
                        // Abandon the fault so a retry retransmits the
                        // request (drop recovery on the lossy LAN).
                        driver.cancel_wait(addr.page(), waiter);
                        return Err(Error::Timeout);
                    }
                }
            }
        }
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

    /// Reads `buf.len()` bytes at `addr` (see [`Node::read_u32`]).
    ///
    /// # Errors
    ///
    /// As [`Node::read_u32`]; additionally
    /// [`Error::OffsetOutsideView`] if the range crosses the view bound.
    pub fn read_bytes(&self, addr: VAddr, mode: MapMode, buf: &mut [u8]) -> Result<()> {
        self.read_bytes_deadline(addr, mode, buf, None)
    }

    /// [`Node::read_bytes`] with a timeout.
    ///
    /// # Errors
    ///
    /// As [`Node::read_bytes`], plus [`Error::Timeout`].
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
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let mut driver = self.inner.driver.lock();
        loop {
            let mut effects = Vec::new();
            let outcome = driver.access(addr.page(), addr.view(), mode, waiter, &mut effects)?;
            match outcome {
                AccessOutcome::Ready => {
                    driver
                        .page_buf(addr.page())
                        .expect("ready implies present")
                        .read(addr.offset() as usize, buf)?;
                    drop(driver);
                    self.inner.apply_effects(effects)?;
                    return Ok(());
                }
                AccessOutcome::Blocked(_) => {
                    if !effects.is_empty() {
                        drop(driver);
                        self.inner.apply_effects(effects)?;
                        driver = self.inner.driver.lock();
                        continue;
                    }
                    if !self.wait(&mut driver, deadline) {
                        driver.cancel_wait(addr.page(), waiter);
                        return Err(Error::Timeout);
                    }
                }
            }
        }
    }

    /// Writes `buf` at `addr` through the consistent mapping.
    ///
    /// # Errors
    ///
    /// As [`Node::write_u32`].
    pub fn write_bytes(&self, addr: VAddr, buf: &[u8]) -> Result<()> {
        let waiter = self.inner.next_waiter.fetch_add(1, Ordering::Relaxed);
        let mut driver = self.inner.driver.lock();
        loop {
            let mut effects = Vec::new();
            let outcome = driver.access(
                addr.page(),
                addr.view(),
                MapMode::Writeable,
                waiter,
                &mut effects,
            )?;
            match outcome {
                AccessOutcome::Ready => {
                    driver
                        .page_buf_mut(addr.page())
                        .expect("ready implies present")
                        .write(addr.offset() as usize, buf)?;
                    drop(driver);
                    self.inner.apply_effects(effects)?;
                    return Ok(());
                }
                AccessOutcome::Blocked(_) => {
                    if !effects.is_empty() {
                        drop(driver);
                        self.inner.apply_effects(effects)?;
                        driver = self.inner.driver.lock();
                        continue;
                    }
                    self.wait(&mut driver, None);
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
        let mut driver = self.inner.driver.lock();
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
        self.inner.driver.lock().lock(page, length)
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
            let mut driver = self.inner.driver.lock();
            driver.unlock(page, &mut effects);
        }
        self.inner.apply_effects(effects)
    }

    /// Waits on the node's wakeup condition. Returns false on deadline.
    fn wait(
        &self,
        driver: &mut parking_lot::MutexGuard<'_, PageTable>,
        deadline: Option<Instant>,
    ) -> bool {
        match deadline {
            None => {
                self.inner.wakeups.wait(driver);
                true
            }
            Some(d) => !self.inner.wakeups.wait_until(driver, d).timed_out(),
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
