//! The per-host Mether page table and protocol state machine.
//!
//! A [`PageTable`] holds one host's view of every Mether page: the local
//! copy (if any), whether this host holds *the* consistent copy, the lock
//! and purge-pending bits, and the processes blocked on the page. It is
//! pure logic: callers feed it accesses, purges, and packets, and it
//! returns [`Effect`]s (packets to send, waiters to wake, work for the
//! user-level server). Both the discrete-event simulator and the threaded
//! runtime drive this same state machine, so protocol behaviour cannot
//! diverge between them.
//!
//! Protocol summary (paper §3):
//!
//! * There is only ever **one consistent copy** of a page. Writes (and any
//!   access through a writeable mapping) require it; acquiring it moves the
//!   copy, not just write permission.
//! * Read-only mappings see **inconsistent** copies: present copies are
//!   returned however stale they are. Absent copies fault.
//! * A **demand-driven** fault broadcasts a [`Packet::PageRequest`]; a
//!   **data-driven** fault blocks silently until the page transits the
//!   network.
//! * **PURGE** on a read-only mapping invalidates the local copy. PURGE on
//!   a writeable mapping sets *purge pending*; the server broadcasts a
//!   read-only copy and then issues **DO-PURGE**, which clears the bit and
//!   wakes the purger.
//! * Every server **snoops**: any page copy on the wire refreshes the
//!   local inconsistent copy and wakes data-driven waiters — a
//!   [`Packet::PageReply`] (everything [`PageTable::handle_packet`] sends
//!   in answer to a request: read replies, `Superset` replies, consistency
//!   transfers) and a [`Packet::PageData`] publication (a purge
//!   broadcast) alike.

use crate::rules::Presence;
use crate::{
    DriveMode, Error, Generation, HostId, MapMode, MetherConfig, Packet, PageBuf, PageId,
    PageLength, Result, View, Want,
};
use std::fmt;

/// Token identifying a blocked process; opaque to the page table. The
/// embedding runtime maps it back to a process/thread.
pub type WaiterId = u64;

/// An ordered, duplicate-free batch of waiters to wake.
///
/// The paper's load argument is that a broadcast costs each host a
/// *constant* amount of work: the network does the fan-out, the host just
/// takes one interrupt. Emitting one `Effect::Wake` per blocked process
/// re-introduced O(waiters) event churn on exactly the hot path the paper
/// optimises — every `PageData` transit wakes every data-driven waiter on
/// every snooping host. A `WakeSet` coalesces all waiters woken by one
/// `handle_packet` call into a single [`Effect::WakeAll`], so the
/// simulator schedules one wake batch per host per transit and the
/// threaded runtime wakes the whole set with one kick of its inbox.
///
/// Invariants (pinned by unit tests below):
/// * order-preserving — waiters wake in the order the per-waiter
///   `Effect::Wake` emission would have woken them (demand waiters in
///   queue order, then data waiters in queue order);
/// * duplicate-free — a waiter is woken at most once per batch, even if
///   it was queued on several lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WakeSet {
    /// Waiters in wake (insertion) order. Dedup on insert is a linear
    /// scan: batch sizes are bounded by the processes blocked on one
    /// page of one host (single digits in the paper's workloads, 16 in
    /// the repo's own stress benches), where a scan over a short vector
    /// beats any indexed structure's extra allocation and bookkeeping.
    waiters: Vec<WaiterId>,
}

impl WakeSet {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` waiters (one allocation up
    /// front instead of doubling growth during the per-transit build).
    pub fn with_capacity(n: usize) -> Self {
        WakeSet {
            waiters: Vec::with_capacity(n),
        }
    }

    /// Adds `w` to the batch, preserving insertion order. Returns false
    /// (and does nothing) if `w` is already present.
    pub fn insert(&mut self, w: WaiterId) -> bool {
        if self.waiters.contains(&w) {
            return false;
        }
        self.waiters.push(w);
        true
    }

    /// True if no waiter is batched.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Number of distinct waiters batched.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// True if `w` is in the batch.
    pub fn contains(&self, w: WaiterId) -> bool {
        self.waiters.contains(&w)
    }

    /// The waiters in wake order.
    pub fn iter(&self) -> impl Iterator<Item = WaiterId> + '_ {
        self.waiters.iter().copied()
    }
}

impl IntoIterator for WakeSet {
    type Item = WaiterId;
    type IntoIter = std::vec::IntoIter<WaiterId>;
    fn into_iter(self) -> Self::IntoIter {
        self.waiters.into_iter()
    }
}

impl FromIterator<WaiterId> for WakeSet {
    fn from_iter<I: IntoIterator<Item = WaiterId>>(iter: I) -> Self {
        let mut set = WakeSet::new();
        for w in iter {
            set.insert(w);
        }
        set
    }
}

/// All waiters an effect list wakes, in wake order, whether they were
/// emitted as individual [`Effect::Wake`]s or coalesced into an
/// [`Effect::WakeAll`] batch. Embedding runtimes and tests should use
/// this instead of matching the two variants by hand.
pub fn woken_waiters(effects: &[Effect]) -> Vec<WaiterId> {
    let mut out = Vec::new();
    for fx in effects {
        match fx {
            Effect::Wake(w) => out.push(*w),
            Effect::WakeAll(set) => out.extend(set.iter()),
            _ => {}
        }
    }
    out
}

/// The kind of fault a blocked access is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Demand-driven read fault: a request was broadcast.
    DemandFetch,
    /// Data-driven fault: waiting passively for a broadcast.
    DataWait,
    /// Waiting for the consistent copy to arrive.
    ConsistentFetch,
    /// Waiting for the server to complete a purge of a writeable page.
    PurgeWait,
}

/// Result of attempting an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access may proceed against the local copy right now.
    Ready,
    /// The process must block; the accompanying effects say what was set
    /// in motion.
    Blocked(FaultKind),
}

/// Side effects the embedding runtime must carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit this packet (broadcast).
    Send(Packet),
    /// Wake this blocked process; its access can be retried.
    Wake(WaiterId),
    /// Wake every process in the batch (one coalesced wakeup per
    /// `handle_packet` call; see [`WakeSet`]). The batch is never empty.
    WakeAll(WakeSet),
    /// The purge-pending bit was set: the user-level server must broadcast
    /// a read-only copy of `length` of the page and then call
    /// [`PageTable::do_purge`]. (The paper's PURGE → server → DO-PURGE
    /// handshake.)
    ServerPurge {
        /// The page purged.
        page: PageId,
        /// The length of the view it was purged through.
        length: PageLength,
    },
    /// This host just became the consistent holder of the page.
    ConsistentArrived(PageId),
}

/// Per-page protocol state on one host.
#[derive(Debug, Clone)]
struct PageEntry {
    /// Local copy, if any. `None` = absent/invalid.
    buf: Option<PageBuf>,
    /// Generation of the local copy.
    generation: Generation,
    /// True if this host holds the consistent copy.
    consistent: bool,
    /// Lock count (Figure 1 "lock" row); only meaningful on the holder.
    locked: bool,
    /// Purge of the writeable page requested; server must act.
    purge_pending: bool,
    /// Waiter blocked purging (woken by DO-PURGE).
    purge_waiter: Option<WaiterId>,
    /// Processes blocked on demand faults, with the view length each needs.
    demand_waiters: Vec<(WaiterId, PageLength, Want)>,
    /// Processes blocked on data-driven faults.
    data_waiters: Vec<WaiterId>,
    /// True if a request for this page is outstanding from this host
    /// (suppresses duplicate requests).
    requested: Option<Want>,
    /// Consistent-copy requests that arrived while the page was locked;
    /// satisfied at unlock, in arrival order.
    deferred_transfers: Vec<(HostId, PageLength)>,
    /// A process on this host has mapped the page (accessed it at least
    /// once). Mapped pages are installed from snooped broadcasts even
    /// with no copy and no waiter — this closes the purge → data-block
    /// window: a broadcast that transits in between still lands, so the
    /// subsequent data-driven access hits instead of sleeping forever.
    /// It never clears; what ends a copy's refreshes is `referenced`
    /// (see [`PageTable::wants_refresh`]).
    mapped: bool,
    /// Somebody here has read the copy since it was last installed or
    /// refreshed: a `ReadOnly` access hit it. Every data frame that
    /// reaches the slot clears it, including one that wakes a waiter.
    referenced: bool,
    /// Already queued in the table's dirty list since the last drain
    /// (dedup flag so a hot page costs one list entry per observer
    /// sweep, not one per mutation).
    dirty: bool,
}

impl PageEntry {
    fn new() -> Self {
        PageEntry {
            buf: None,
            generation: Generation::zero(),
            consistent: false,
            locked: false,
            purge_pending: false,
            purge_waiter: None,
            demand_waiters: Vec::new(),
            data_waiters: Vec::new(),
            requested: None,
            deferred_transfers: Vec::new(),
            mapped: false,
            referenced: false,
            dirty: false,
        }
    }

    fn presence(&self, short_len: usize) -> Presence {
        Presence::from_valid_len(self.buf.as_ref().map(PageBuf::valid_len), short_len)
    }

    /// Is `waiter` on this page's demand or data list?
    fn waits(&self, waiter: WaiterId) -> bool {
        self.demand_waiters.iter().any(|(w, _, _)| *w == waiter)
            || self.data_waiters.contains(&waiter)
    }
}

/// Per-page state, sized by the pages this host has touched.
///
/// `PageId`s are small integers (the page number in the shared address
/// space), so lookup on every access, snoop, and wake path is two array
/// indexes, not a SipHash of the key: `slots` maps a page id to the
/// position of its entry in `entries`, and only a touched page has an
/// entry. An untouched page id below the highest touched one costs its
/// 4-byte [`UNTOUCHED`] index word, never a [`PageEntry`]. Entries are
/// never removed, so positions are stable and need no free list.
#[derive(Default)]
struct PageSlots {
    /// Page id → position in `entries`, or [`UNTOUCHED`]; grown to the
    /// highest page id touched. Walking it in order yields the touched
    /// pages in ascending page order.
    slots: Vec<u32>,
    /// The state of every touched page, in first-touch order.
    entries: Vec<PageEntry>,
    /// Pages whose observable consistency state (holder bit, buffer
    /// presence, generation) changed since the last
    /// [`PageTable::take_dirty_pages`] drain. Deduplicated via
    /// `PageEntry::dirty`; drained by the incremental invariant
    /// observer.
    dirty: Vec<PageId>,
}

/// The [`PageSlots::slots`] word of a page this host has not touched.
const UNTOUCHED: u32 = u32::MAX;

impl PageSlots {
    /// Position of `page`'s entry, if the page has been touched.
    fn position(&self, page: PageId) -> Option<usize> {
        match self.slots.get(page.index() as usize) {
            Some(&s) if s != UNTOUCHED => Some(s as usize),
            _ => None,
        }
    }

    fn get(&self, page: PageId) -> Option<&PageEntry> {
        self.position(page).map(|s| &self.entries[s])
    }

    fn get_mut(&mut self, page: PageId) -> Option<&mut PageEntry> {
        self.position(page).map(|s| &mut self.entries[s])
    }

    /// The entry for `page`, created (and the index grown) on first touch.
    fn slot(&mut self, page: PageId) -> &mut PageEntry {
        let i = page.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, UNTOUCHED);
        }
        if self.slots[i] == UNTOUCHED {
            self.slots[i] = u32::try_from(self.entries.len()).expect("fewer than 2^32 pages");
            self.entries.push(PageEntry::new());
        }
        &mut self.entries[self.slots[i] as usize]
    }

    /// The touched pages, in ascending page order.
    fn ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != UNTOUCHED)
            .map(|(i, _)| PageId::new(i as u32))
    }

    fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Queues `page` for the next dirty drain. A no-op when the slot
    /// does not exist (mutations that never materialise a slot have no
    /// observable state to re-check) or is already queued.
    fn mark_dirty(&mut self, page: PageId) {
        if let Some(s) = self.position(page) {
            let e = &mut self.entries[s];
            if !e.dirty {
                e.dirty = true;
                self.dirty.push(page);
            }
        }
    }

    fn take_dirty(&mut self) -> Vec<PageId> {
        let drained = std::mem::take(&mut self.dirty);
        for &p in &drained {
            if let Some(e) = self.get_mut(p) {
                e.dirty = false;
            }
        }
        drained
    }
}

/// One host's Mether page table (kernel-driver state).
pub struct PageTable {
    host: HostId,
    cfg: MetherConfig,
    pages: PageSlots,
    stats: TableStats,
}

/// Counters the simulator and runtime surface as metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Demand faults taken (request broadcast).
    pub demand_faults: u64,
    /// Data-driven faults taken (silent block).
    pub data_faults: u64,
    /// Consistent-copy fetches initiated.
    pub consistent_faults: u64,
    /// Purges of read-only mappings (local invalidate).
    pub ro_purges: u64,
    /// Purges of writeable mappings (broadcast + DO-PURGE).
    pub rw_purges: u64,
    /// Packets snooped that refreshed a local copy.
    pub snoop_refreshes: u64,
}

impl PageTable {
    /// Creates an empty table for `host`.
    pub fn new(host: HostId, cfg: MetherConfig) -> Self {
        PageTable {
            host,
            cfg,
            pages: PageSlots::default(),
            stats: TableStats::default(),
        }
    }

    /// The host this table belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The configuration in force.
    pub fn config(&self) -> &MetherConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Seeds `page` as created on this host: a zeroed, fully valid page
    /// whose consistent copy lives here. Used at segment-creation time.
    pub fn create_owned(&mut self, page: PageId) {
        let e = self.pages.slot(page);
        e.buf = Some(PageBuf::new_zeroed());
        e.consistent = true;
        e.generation = Generation::zero();
        self.pages.mark_dirty(page);
    }

    /// Does this host currently hold the consistent copy of `page`?
    pub fn is_consistent_holder(&self, page: PageId) -> bool {
        self.pages.get(page).is_some_and(|e| e.consistent)
    }

    /// The generation of the local copy (zero if absent).
    pub fn generation(&self, page: PageId) -> Generation {
        self.pages
            .get(page)
            .map_or(Generation::zero(), |e| e.generation)
    }

    /// Immutable view of the local copy of `page`, if present.
    pub fn page_buf(&self, page: PageId) -> Option<&PageBuf> {
        self.pages.get(page).and_then(|e| e.buf.as_ref())
    }

    /// Mutable view of the local copy of `page`, if present.
    ///
    /// Callers must only mutate pages they verified are consistent-held
    /// (an [`AccessOutcome::Ready`] from a writeable access).
    pub fn page_buf_mut(&mut self, page: PageId) -> Option<&mut PageBuf> {
        self.pages.get_mut(page).and_then(|e| e.buf.as_mut())
    }

    /// Attempts an access to `page` through `view` under `mode`.
    ///
    /// On [`AccessOutcome::Ready`], the caller may read (and for
    /// [`MapMode::Writeable`], write) the local copy via
    /// [`PageTable::page_buf`] / [`PageTable::page_buf_mut`]. On
    /// [`AccessOutcome::Blocked`], the caller must block `waiter` until a
    /// [`Effect::Wake`] names it, then retry. A waiter already blocked on
    /// the page is listed, and its fault counted, once however often it
    /// re-checks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongMapMode`] for a writeable access through a
    /// data-driven view ("the data driven view is by definition read-only").
    pub fn access(
        &mut self,
        page: PageId,
        view: View,
        mode: MapMode,
        waiter: WaiterId,
        effects: &mut Vec<Effect>,
    ) -> Result<AccessOutcome> {
        if mode == MapMode::Writeable && view.drive == DriveMode::Data {
            return Err(Error::WrongMapMode {
                needed: MapMode::ReadOnly,
            });
        }
        let short_len = self.cfg.short_len;
        let host = self.host;
        let e = self.pages.slot(page);
        e.mapped = true;
        match mode {
            MapMode::Writeable => {
                // Access through the consistent space: needs the consistent
                // copy here, covering the view.
                if e.consistent && e.presence(short_len).satisfies_fault(view.length) {
                    return Ok(AccessOutcome::Ready);
                }
                // Fault (demand only; data-driven writes were rejected
                // above). Two cases: we lack consistency entirely, or we
                // hold it as a short prefix and the full view faulted —
                // Figure 1's "supersets not present are marked wanted".
                let want = if e.consistent {
                    Want::Superset
                } else {
                    Want::Consistent
                };
                if !e.waits(waiter) {
                    self.stats.consistent_faults += 1;
                    e.demand_waiters.push((waiter, view.length, want));
                }
                if e.requested != Some(want) {
                    e.requested = Some(want);
                    effects.push(Effect::Send(Packet::PageRequest {
                        from: host,
                        page,
                        length: view.length,
                        want,
                    }));
                }
                Ok(AccessOutcome::Blocked(FaultKind::ConsistentFetch))
            }
            MapMode::ReadOnly => {
                // Inconsistent space: any present copy satisfies, however
                // stale.
                if e.presence(short_len).satisfies_fault(view.length) {
                    e.referenced = true;
                    return Ok(AccessOutcome::Ready);
                }
                let registered = e.waits(waiter);
                match view.drive {
                    DriveMode::Demand => {
                        if !registered {
                            self.stats.demand_faults += 1;
                            e.demand_waiters.push((waiter, view.length, Want::ReadOnly));
                        }
                        if e.requested.is_none() {
                            e.requested = Some(Want::ReadOnly);
                            effects.push(Effect::Send(Packet::PageRequest {
                                from: host,
                                page,
                                length: view.length,
                                want: Want::ReadOnly,
                            }));
                        }
                        Ok(AccessOutcome::Blocked(FaultKind::DemandFetch))
                    }
                    DriveMode::Data => {
                        // "the server does not send out a request. Some
                        // other process must actively send out an update."
                        if !registered {
                            self.stats.data_faults += 1;
                            e.data_waiters.push(waiter);
                        }
                        Ok(AccessOutcome::Blocked(FaultKind::DataWait))
                    }
                }
            }
        }
    }

    /// Purges `page` through a mapping of `mode`.
    ///
    /// * Read-only: invalidates the local copy immediately (unless this
    ///   host holds the consistent copy, in which case the inconsistent
    ///   view shares the consistent storage and there is nothing separate
    ///   to purge — the purge is a no-op). Returns `Ready`.
    /// * Writeable: sets purge-pending, emits [`Effect::ServerPurge`]
    ///   with `length`; the purger must block until DO-PURGE. Returns
    ///   `Blocked(PurgeWait)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotConsistentHolder`] for a writeable purge by a
    /// host that does not hold the consistent copy.
    pub fn purge(
        &mut self,
        page: PageId,
        mode: MapMode,
        length: PageLength,
        waiter: WaiterId,
        effects: &mut Vec<Effect>,
    ) -> Result<AccessOutcome> {
        let e = self.pages.slot(page);
        match mode {
            MapMode::ReadOnly => {
                self.stats.ro_purges += 1;
                if !e.consistent {
                    // Figure 1 "purge": all consistent subsets purged;
                    // supersets not affected — dropping the whole local
                    // copy drops every subset view of it.
                    e.buf = None;
                    self.pages.mark_dirty(page);
                }
                Ok(AccessOutcome::Ready)
            }
            MapMode::Writeable => {
                if !e.consistent {
                    return Err(Error::NotConsistentHolder { page });
                }
                self.stats.rw_purges += 1;
                e.purge_pending = true;
                e.purge_waiter = Some(waiter);
                effects.push(Effect::ServerPurge { page, length });
                Ok(AccessOutcome::Blocked(FaultKind::PurgeWait))
            }
        }
    }

    /// Builds the broadcast the server sends to satisfy a pending purge of
    /// `page` (a read-only copy of the page). Bumps the generation: each
    /// purge broadcast publishes a new version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotConsistentHolder`] if the page is not held
    /// consistent here or no purge is pending.
    pub fn server_purge_broadcast(&mut self, page: PageId, length: PageLength) -> Result<Packet> {
        let short_len = self.cfg.short_len;
        let host = self.host;
        let e = self.pages.slot(page);
        if !e.consistent || !e.purge_pending {
            return Err(Error::NotConsistentHolder { page });
        }
        let buf = e.buf.as_mut().ok_or(Error::NotConsistentHolder { page })?;
        e.generation = e.generation.next();
        let transfer_len = match length {
            PageLength::Full => crate::PAGE_SIZE,
            PageLength::Short => short_len,
        };
        let pkt = Packet::PageData {
            from: host,
            page,
            length,
            generation: e.generation,
            transfer_to: None,
            data: buf.payload(transfer_len),
        };
        self.pages.mark_dirty(page);
        Ok(pkt)
    }

    /// DO-PURGE: the server acknowledges that the purge broadcast went
    /// out. Clears purge-pending and wakes the blocked purger.
    pub fn do_purge(&mut self, page: PageId, effects: &mut Vec<Effect>) {
        let e = self.pages.slot(page);
        if e.purge_pending {
            e.purge_pending = false;
            if let Some(w) = e.purge_waiter.take() {
                effects.push(Effect::Wake(w));
            }
        }
    }

    /// True if a purge is pending on `page` (the server has work to do).
    pub fn purge_pending(&self, page: PageId) -> bool {
        self.pages.get(page).is_some_and(|e| e.purge_pending)
    }

    /// Locks `page` into this host's address space (Figure 1 "lock" row).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LockFailed`] if the consistent copy (with all its
    /// subsets) is not present here — per Figure 1 the missing pieces are
    /// marked wanted, which in this implementation means the caller should
    /// fault them in with [`PageTable::access`] first.
    pub fn lock(&mut self, page: PageId, length: PageLength) -> Result<()> {
        let short_len = self.cfg.short_len;
        let e = self.pages.slot(page);
        if !e.consistent || !e.presence(short_len).satisfies_lock(length) {
            return Err(Error::LockFailed { page });
        }
        e.locked = true;
        Ok(())
    }

    /// Unlocks `page`, releasing any consistent-copy transfers that were
    /// deferred while the lock was held.
    pub fn unlock(&mut self, page: PageId, effects: &mut Vec<Effect>) {
        let deferred = {
            let e = self.pages.slot(page);
            e.locked = false;
            std::mem::take(&mut e.deferred_transfers)
        };
        for (to, length) in deferred {
            self.grant_consistent(page, to, length, effects);
        }
    }

    /// True if `page` is locked on this host.
    pub fn is_locked(&self, page: PageId) -> bool {
        self.pages.get(page).is_some_and(|e| e.locked)
    }

    /// Handles a packet snooped off the network. Every host calls this for
    /// every broadcast, including its own transmissions' recipients.
    pub fn handle_packet(&mut self, pkt: &Packet, effects: &mut Vec<Effect>) {
        match pkt {
            Packet::PageRequest {
                from,
                page,
                length,
                want,
            } => {
                if *from == self.host {
                    return; // our own broadcast
                }
                self.handle_request(*from, *page, *length, *want, effects);
            }
            Packet::PageData {
                from,
                page,
                length,
                generation,
                transfer_to,
                data,
            }
            | Packet::PageReply {
                from,
                page,
                length,
                generation,
                transfer_to,
                data,
            } => {
                if *from == self.host {
                    return;
                }
                self.handle_data(*page, *length, *generation, *transfer_to, data, effects);
            }
            // Bridge-to-bridge spanning-tree control traffic: no Mether
            // server consumes it (a real NIC would filter the BPDU
            // multicast address before the driver ever saw the frame).
            Packet::BridgePdu { .. } => {}
        }
    }

    /// Answers a request snooped from `from`. Everything sent here — the
    /// read reply, the `Superset` reply, and the consistency transfer
    /// (deferred ones too, via [`PageTable::unlock`]) — is a
    /// [`Packet::PageReply`]: bridges carry it back toward the pending
    /// request alone.
    fn handle_request(
        &mut self,
        from: HostId,
        page: PageId,
        length: PageLength,
        want: Want,
        effects: &mut Vec<Effect>,
    ) {
        // One slot lookup serves the whole request; host/config values are
        // copied out first so the entry borrow can stay live throughout.
        // A host with no state for the page can never answer, so no slot
        // is materialised for it — a snooped request for an arbitrary
        // page id must not make every host on the LAN allocate tracking
        // state (the dense index would otherwise grow to the id).
        let host = self.host;
        let transfer_len = self.cfg.transfer_len(length);
        let Some(e) = self.pages.get_mut(page) else {
            return;
        };
        if want == Want::Superset {
            // Answered by any host still holding a full copy (the
            // requester holds the consistent short prefix and will merge
            // our bytes underneath it). Never the holder itself.
            if !e.consistent && e.buf.as_ref().is_some_and(PageBuf::full_valid) {
                let gen = e.generation;
                let data = e
                    .buf
                    .as_mut()
                    .expect("checked above")
                    .payload(crate::PAGE_SIZE);
                effects.push(Effect::Send(Packet::PageReply {
                    from: host,
                    page,
                    length: PageLength::Full,
                    generation: gen,
                    transfer_to: None,
                    data,
                }));
            }
            return;
        }
        if !e.consistent {
            return; // only the consistent holder answers
        }
        match want {
            Want::ReadOnly => {
                // Broadcast an up-to-date read-only copy; we remain the
                // holder. "all the Mether servers having a copy of the
                // page will refresh their copy" — the broadcast itself
                // does that.
                e.generation = e.generation.next();
                let gen = e.generation;
                let data = e
                    .buf
                    .as_mut()
                    .expect("consistent holder has a buffer")
                    .payload(transfer_len);
                effects.push(Effect::Send(Packet::PageReply {
                    from: host,
                    page,
                    length,
                    generation: gen,
                    transfer_to: None,
                    data,
                }));
                self.pages.mark_dirty(page);
            }
            Want::Consistent => {
                if e.locked || e.purge_pending {
                    // Defer: the page is pinned here until unlock/DO-PURGE.
                    e.deferred_transfers.push((from, length));
                } else {
                    self.grant_consistent(page, from, length, effects);
                }
            }
            Want::Superset => unreachable!("handled above"),
        }
    }

    /// Ships the consistent copy to `to`, honouring the requested view
    /// length: a short-view write fault moves consistency with only a
    /// 32-byte transfer. This is central to the paper's short-page
    /// economics — even ownership moves are cheap. The new holder then
    /// has a consistent copy whose *superset* is absent, exactly the
    /// Figure 1 "pagein from the network" rule (all subsets paged in, no
    /// supersets paged in).
    fn grant_consistent(
        &mut self,
        page: PageId,
        to: HostId,
        length: PageLength,
        effects: &mut Vec<Effect>,
    ) {
        let host = self.host;
        let transfer_len = self.cfg.transfer_len(length);
        let e = self.pages.slot(page);
        if !e.consistent {
            return;
        }
        e.generation = e.generation.next();
        let gen = e.generation;
        let data = e
            .buf
            .as_mut()
            .expect("consistent holder has a buffer")
            .payload(transfer_len);
        // We keep an inconsistent copy; consistency moves to `to`.
        e.consistent = false;
        effects.push(Effect::Send(Packet::PageReply {
            from: host,
            page,
            length,
            generation: gen,
            transfer_to: Some(to),
            data,
        }));
        self.pages.mark_dirty(page);
    }

    fn handle_data(
        &mut self,
        page: PageId,
        _length: PageLength,
        generation: Generation,
        transfer_to: Option<HostId>,
        data: &bytes::Bytes,
        effects: &mut Vec<Effect>,
    ) {
        let short_len = self.cfg.short_len;
        let host = self.host;
        let becomes_holder = transfer_to == Some(host);
        // Hosts with no state for the page (nothing mapped, nothing
        // waiting, not the transfer target) take nothing from the wire
        // and, crucially, allocate nothing: a broadcast naming an
        // arbitrary page id must not grow every snooping host's dense
        // slot index to that id.
        if !becomes_holder && self.pages.get(page).is_none() {
            return;
        }
        let e = self.pages.slot(page);

        // A consistent holder with only the short prefix merges superset
        // bytes underneath its authoritative prefix (Want::Superset reply
        // path); its own generation stands.
        if e.consistent && !becomes_holder {
            if let Some(buf) = &mut e.buf {
                buf.extend_from_network(data);
            }
        }

        // Snoopy refresh: every transit updates the local copy (if we have
        // one or want one). A host that holds the consistent copy ignores
        // stale broadcasts of its own page. With snooping ablated, only
        // transfers addressed to us and pages with blocked waiters are
        // taken from the wire.
        let interested = self.cfg.snoopy
            || becomes_holder
            || !e.demand_waiters.is_empty()
            || !e.data_waiters.is_empty();
        // Reject stale broadcasts: a frame that queued behind newer ones
        // on the wire must not regress a copy that already reflects a
        // later version. (Only equal-or-newer generations refresh.)
        let fresh_enough = becomes_holder || !e.generation.newer_than(generation);
        if (!e.consistent || becomes_holder) && interested && fresh_enough {
            match &mut e.buf {
                Some(buf) => {
                    // Zero-copy in steady state: a transfer covering the
                    // valid prefix adopts the datagram's storage.
                    buf.refresh_from_payload(data);
                    self.stats.snoop_refreshes += 1;
                }
                None => {
                    // Install if someone here is waiting, the page is
                    // mapped, or we are becoming the holder. Unmapped
                    // pages are not installed: an uninterested host must
                    // not accumulate copies of every page on the LAN.
                    if becomes_holder
                        || (e.mapped && self.cfg.snoopy)
                        || !e.demand_waiters.is_empty()
                        || !e.data_waiters.is_empty()
                    {
                        // Zero-copy install: share the datagram's storage.
                        e.buf = Some(PageBuf::from_payload(data));
                        self.stats.snoop_refreshes += 1;
                    }
                }
            }
            if generation.newer_than(e.generation) || becomes_holder {
                e.generation = generation;
            }
        }

        if becomes_holder {
            e.consistent = true;
            e.requested = None;
            effects.push(Effect::ConsistentArrived(page));
        }

        // Wake waiters whose needs are now met — demand waiters first (in
        // queue order), then every data-driven waiter (the page transited
        // the network). All wakes from this one transit are coalesced
        // into a single `WakeAll` batch: the host does O(1) event work
        // per broadcast, however many processes were blocked.
        let presence = e.presence(short_len);
        let mut wakes = WakeSet::with_capacity(e.demand_waiters.len() + e.data_waiters.len());
        let mut still_waiting = Vec::new();
        for (w, len, want) in e.demand_waiters.drain(..) {
            let satisfied = match want {
                Want::ReadOnly => presence.satisfies_fault(len),
                Want::Consistent | Want::Superset => e.consistent && presence.satisfies_fault(len),
            };
            if satisfied {
                wakes.insert(w);
            } else {
                still_waiting.push((w, len, want));
            }
        }
        e.demand_waiters = still_waiting;
        if e.demand_waiters.is_empty() && !becomes_holder {
            e.requested = None;
        }

        for w in e.data_waiters.drain(..) {
            wakes.insert(w);
        }
        // Only a read marks a copy read: a woken process re-executes its
        // access, whose hit sets the mark, and an open-loop waiter is
        // done once woken.
        e.referenced = false;
        if !wakes.is_empty() {
            effects.push(Effect::WakeAll(wakes));
        }
        // Conservatively dirty: any transit that reached this slot may
        // have refreshed the copy, advanced the generation, or moved the
        // holder bit here.
        self.pages.mark_dirty(page);
    }

    /// Abandons `waiter`'s blocked access on `page` (a timed-out fault).
    ///
    /// Removes the waiter from the demand and data queues and clears the
    /// outstanding-request flag, so that a *retry* of the access
    /// transmits a fresh request — the recovery path for a request or
    /// reply datagram lost on the unreliable network.
    ///
    /// The flag is cleared even when other demand waiters remain: they
    /// all ride on one deduplicated request, and if that request's
    /// answer is never coming (the holder handed consistency off between
    /// request and serve), every one of them needs the canceling
    /// waiter's retry to retransmit. Keeping the latch while the list
    /// was non-empty used to strand two same-page waiters on one host
    /// forever: each retry canceled itself, saw the other still listed,
    /// and re-blocked without sending. At worst the eager clear costs a
    /// duplicate request on the wire, which the protocol already
    /// tolerates (server-side dedup and reply broadcast).
    pub fn cancel_wait(&mut self, page: PageId, waiter: WaiterId) {
        if let Some(e) = self.pages.get_mut(page) {
            e.demand_waiters.retain(|(w, _, _)| *w != waiter);
            e.data_waiters.retain(|w| *w != waiter);
            if !e.consistent {
                e.requested = None;
            }
        }
    }

    /// Drops a non-consistent (cached read-only) copy of `page`, if one
    /// is present. Always safe: such a copy is only a cache of some
    /// holder's data and can be re-fetched on demand.
    ///
    /// This is the fault-retry path for a *data wait*: a data-view read
    /// over a stale-but-present copy blocks without transmitting
    /// anything, so merely re-executing it blocks again. Dropping the
    /// copy first turns the re-execution into a demand fetch whose
    /// request both fetches fresh data and re-stamps the fabric's
    /// learned interest in this segment.
    pub fn drop_stale_copy(&mut self, page: PageId) {
        if let Some(e) = self.pages.get_mut(page) {
            if !e.consistent && e.buf.is_some() {
                e.buf = None;
                self.pages.mark_dirty(page);
            }
        }
    }

    /// Whether this table has a slot for `page` — one index lookup, where
    /// searching [`PageTable::tracked_pages`] walks every slot.
    pub fn tracks(&self, page: PageId) -> bool {
        self.pages.get(page).is_some()
    }

    /// Is this host in `page`'s data group: would a snooped data frame
    /// for it be used here? One slot lookup, no allocation. False for a
    /// page with no slot, and for a copy that nobody here has read
    /// since it was last installed or refreshed when nothing else needs
    /// the frame. Only a read hit marks a copy read; every data frame
    /// clears the mark, including the one that installs a fault's copy
    /// and wakes its waiter (a woken process re-executes its read, and
    /// that hit marks it). Four things need the frame however long the
    /// copy goes unread:
    /// * a full copy, the only thing that answers a `Superset` request;
    /// * the consistent holder, which merges superset bytes;
    /// * a slot with no copy (a mapped page purged, or dropped as
    ///   stale), where the frame closes the purge → data-read window;
    /// * a demand or data waiter.
    ///
    /// A copy that leaves the group keeps its bytes; the next read hit
    /// or fault on the page brings it back. This is the invalidate half
    /// of an update/invalidate hybrid (Karlin, Manasse, Rudolph and
    /// Sleator's competitive snoopy caching, with no free updates): an
    /// unread copy takes no refresh, so nobody pays for updates nobody
    /// uses. Not the paper's rule, whose servers installed every frame
    /// for every page they had mapped.
    pub fn wants_refresh(&self, page: PageId) -> bool {
        self.pages.get(page).is_some_and(|e| {
            e.referenced
                || e.consistent
                || e.buf.as_ref().is_none_or(PageBuf::full_valid)
                || !e.demand_waiters.is_empty()
                || !e.data_waiters.is_empty()
        })
    }

    /// Pages this table currently tracks (for diagnostics).
    pub fn tracked_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.ids()
    }

    /// Pages whose observable consistency state (holder bit, buffer
    /// presence, generation) changed since the last drain, deduplicated.
    /// Draining clears the set; the incremental invariant observer calls
    /// this once per sweep and re-checks only what it returns.
    pub fn take_dirty_pages(&mut self) -> Vec<PageId> {
        self.pages.take_dirty()
    }

    /// Number of pages currently queued for the next dirty drain.
    #[cfg(test)]
    fn dirty_page_count(&self) -> usize {
        self.pages.dirty.len()
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PageTable(host={}, pages={})",
            self.host,
            self.pages.tracked()
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;

    fn table(host: u16) -> PageTable {
        PageTable::new(HostId(host), MetherConfig::new())
    }

    fn p0() -> PageId {
        PageId::new(0)
    }

    /// A `PageData` frame from host 0, full if `data` is a whole page.
    pub(crate) fn frame(
        page: PageId,
        generation: u64,
        transfer_to: Option<u16>,
        data: Vec<u8>,
    ) -> Packet {
        Packet::PageData {
            from: HostId(0),
            page,
            length: if data.len() == crate::PAGE_SIZE {
                PageLength::Full
            } else {
                PageLength::Short
            },
            generation: Generation(generation),
            transfer_to: transfer_to.map(HostId),
            data: Bytes::from(data),
        }
    }

    #[test]
    fn owned_page_access_is_ready() {
        let mut t = table(0);
        t.create_owned(p0());
        let mut fx = Vec::new();
        let out = t
            .access(p0(), View::full_demand(), MapMode::Writeable, 1, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Ready);
        assert!(fx.is_empty());
    }

    #[test]
    fn write_through_data_view_rejected() {
        let mut t = table(0);
        t.create_owned(p0());
        let mut fx = Vec::new();
        let err = t
            .access(p0(), View::short_data(), MapMode::Writeable, 1, &mut fx)
            .unwrap_err();
        assert!(matches!(err, Error::WrongMapMode { .. }));
    }

    #[test]
    fn demand_read_fault_broadcasts_request() {
        let mut t = table(1);
        let mut fx = Vec::new();
        let out = t
            .access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Blocked(FaultKind::DemandFetch));
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            Effect::Send(Packet::PageRequest {
                from,
                page,
                length,
                want,
            }) => {
                assert_eq!(*from, HostId(1));
                assert_eq!(*page, p0());
                assert_eq!(*length, PageLength::Short);
                assert_eq!(*want, Want::ReadOnly);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn duplicate_demand_faults_send_one_request() {
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 2, &mut fx)
            .unwrap();
        let sends = fx.iter().filter(|e| matches!(e, Effect::Send(_))).count();
        assert_eq!(
            sends, 1,
            "second fault piggybacks on the outstanding request"
        );
    }

    /// A waiter that re-checks a blocked access stays one list entry
    /// and one fault; the request latch still decides what is sent.
    #[test]
    fn a_blocked_waiter_is_listed_once() {
        let mut t = table(1);
        let mut fx = Vec::new();
        for _ in 0..2 {
            t.access(p0(), View::short_data(), MapMode::ReadOnly, 7, &mut fx)
                .unwrap();
        }
        assert_eq!(t.pages.get(p0()).unwrap().data_waiters, [7]);
        assert_eq!(t.stats().data_faults, 1);
        t.cancel_wait(p0(), 7);
        for _ in 0..2 {
            t.access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
                .unwrap();
        }
        let e = t.pages.get(p0()).unwrap();
        assert_eq!((e.data_waiters.len(), e.demand_waiters.len()), (0, 1));
        assert_eq!(t.stats().demand_faults, 1);
        let sends = fx.iter().filter(|e| matches!(e, Effect::Send(_))).count();
        assert_eq!(sends, 1, "the re-check rides on the outstanding request");
    }

    #[test]
    fn data_driven_fault_is_silent() {
        let mut t = table(1);
        let mut fx = Vec::new();
        let out = t
            .access(p0(), View::short_data(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Blocked(FaultKind::DataWait));
        assert!(fx.is_empty(), "completely passive: no request on the wire");
        assert_eq!(t.stats().data_faults, 1);
    }

    #[test]
    fn stale_present_copy_reads_ready() {
        // An inconsistent copy is returned however stale: that is the
        // point of the inconsistent space.
        let mut t = table(1);
        let mut fx = Vec::new();
        let pkt = frame(p0(), 1, None, vec![1u8; 32]);
        // Fault first so the snoop installs the copy.
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        t.handle_packet(&pkt, &mut fx);
        let out = t
            .access(p0(), View::short_demand(), MapMode::ReadOnly, 8, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Ready);
    }

    #[test]
    fn short_copy_does_not_satisfy_full_view() {
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        t.handle_packet(&frame(p0(), 1, None, vec![1u8; 32]), &mut fx);
        let out = t
            .access(p0(), View::full_demand(), MapMode::ReadOnly, 2, &mut fx)
            .unwrap();
        assert_eq!(
            out,
            AccessOutcome::Blocked(FaultKind::DemandFetch),
            "Figure 1: a full-view fault needs the superset present"
        );
    }

    /// The mark behind [`PageTable::wants_refresh`]: only a read hit
    /// sets it. Every data frame clears it, the one that wakes a waiter
    /// too (the wake itself still goes out), so a woken waiter's copy
    /// rejoins the data group only when the waiter re-reads. A page
    /// with no slot is in no data group.
    #[test]
    fn only_a_read_keeps_a_copy_in_the_data_group() {
        let mut t = table(1);
        let frame = |generation| frame(p0(), generation, None, vec![1u8; 32]);
        let read = |t: &mut PageTable| {
            let out = t.access(
                p0(),
                View::short_demand(),
                MapMode::ReadOnly,
                7,
                &mut Vec::new(),
            );
            assert_eq!(out, Ok(AccessOutcome::Ready));
        };
        assert!(!t.wants_refresh(p0()), "no slot");
        t.access(
            p0(),
            View::short_data(),
            MapMode::ReadOnly,
            7,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(t.wants_refresh(p0()), "a data waiter");
        let mut woke = Vec::new();
        t.handle_packet(&frame(1), &mut woke);
        assert_eq!(woken_waiters(&woke), [7]);
        assert!(!t.wants_refresh(p0()), "a wake is not a read");
        read(&mut t);
        assert!(t.wants_refresh(p0()), "the woken waiter re-read");
        t.handle_packet(&frame(2), &mut Vec::new());
        assert!(!t.wants_refresh(p0()), "unread again");
        read(&mut t);
        assert!(t.wants_refresh(p0()), "a read hit");
        assert_eq!(t.generation(p0()), Generation(2));
    }

    #[test]
    fn holder_answers_ro_request_with_broadcast() {
        let mut t = table(0);
        t.create_owned(p0());
        let mut fx = Vec::new();
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Short,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            Effect::Send(Packet::PageReply {
                transfer_to,
                length,
                data,
                ..
            }) => {
                assert_eq!(*transfer_to, None);
                assert_eq!(*length, PageLength::Short);
                assert_eq!(data.len(), 32);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            t.is_consistent_holder(p0()),
            "RO request does not move consistency"
        );
    }

    #[test]
    fn non_holder_ignores_requests() {
        let mut t = table(2);
        let mut fx = Vec::new();
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Full,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn consistent_request_moves_ownership() {
        let mut t0 = table(0);
        let mut t1 = table(1);
        t0.create_owned(p0());
        let mut fx = Vec::new();

        // Host 1 write-faults.
        let out = t1
            .access(p0(), View::full_demand(), MapMode::Writeable, 9, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Blocked(FaultKind::ConsistentFetch));
        let req = match fx.remove(0) {
            Effect::Send(p) => p,
            other => panic!("{other:?}"),
        };

        // Host 0 grants, shipping the full page and giving up consistency.
        t0.handle_packet(&req, &mut fx);
        let data = match fx.remove(0) {
            Effect::Send(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(!t0.is_consistent_holder(p0()), "holder relinquished");
        assert!(
            t0.page_buf(p0()).is_some(),
            "but keeps an inconsistent copy"
        );

        // Host 1 receives and becomes the holder; waiter wakes.
        t1.handle_packet(&data, &mut fx);
        assert!(t1.is_consistent_holder(p0()));
        assert!(fx.contains(&Effect::ConsistentArrived(p0())));
        assert!(woken_waiters(&fx).contains(&9));
        let mut fx2 = Vec::new();
        let out = t1
            .access(p0(), View::full_demand(), MapMode::Writeable, 9, &mut fx2)
            .unwrap();
        assert_eq!(out, AccessOutcome::Ready);
    }

    #[test]
    fn consistent_transfer_honours_view_length() {
        // A short-view write fault moves consistency with a 32-byte
        // transfer; a full-view fault ships the whole page.
        let mut t0 = table(0);
        t0.create_owned(p0());
        let mut fx = Vec::new();
        t0.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Short,
                want: Want::Consistent,
            },
            &mut fx,
        );
        match &fx[0] {
            Effect::Send(Packet::PageReply { data, length, .. }) => {
                assert_eq!(*length, PageLength::Short);
                assert_eq!(data.len(), 32);
            }
            other => panic!("{other:?}"),
        }

        let mut t1 = table(1);
        t1.create_owned(p0());
        fx.clear();
        t1.handle_packet(
            &Packet::PageRequest {
                from: HostId(2),
                page: p0(),
                length: PageLength::Full,
                want: Want::Consistent,
            },
            &mut fx,
        );
        match &fx[0] {
            Effect::Send(Packet::PageReply { data, length, .. }) => {
                assert_eq!(*length, PageLength::Full);
                assert_eq!(data.len(), crate::PAGE_SIZE);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_consistent_transfer_leaves_superset_absent() {
        // Figure 1 "pagein from the network": all subsets paged in, no
        // supersets. After a short consistency transfer the new holder can
        // satisfy short-view accesses but faults on full-view ones.
        let mut t0 = table(0);
        let mut t1 = table(1);
        t0.create_owned(p0());
        let mut fx = Vec::new();
        let out = t1
            .access(p0(), View::short_demand(), MapMode::Writeable, 1, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Blocked(FaultKind::ConsistentFetch));
        let req = match fx.remove(0) {
            Effect::Send(p) => p,
            other => panic!("{other:?}"),
        };
        t0.handle_packet(&req, &mut fx);
        let data = match fx.remove(0) {
            Effect::Send(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(data.is_reply(), "a consistency transfer answers a request");
        t1.handle_packet(&data, &mut fx);
        assert!(t1.is_consistent_holder(p0()));
        let mut fx2 = Vec::new();
        assert_eq!(
            t1.access(p0(), View::short_demand(), MapMode::Writeable, 1, &mut fx2)
                .unwrap(),
            AccessOutcome::Ready
        );
        assert_eq!(
            t1.access(p0(), View::full_demand(), MapMode::Writeable, 2, &mut fx2)
                .unwrap(),
            AccessOutcome::Blocked(FaultKind::ConsistentFetch),
            "superset absent after short transfer"
        );
        // The fault broadcast a Superset request...
        let sup_req = match fx2.remove(0) {
            Effect::Send(
                p @ Packet::PageRequest {
                    want: Want::Superset,
                    ..
                },
            ) => p,
            other => panic!("{other:?}"),
        };
        // ...which the old holder (full inconsistent copy) answers.
        // First make the new prefix observable: write through the short view.
        t1.page_buf_mut(p0()).unwrap().write_u32(0, 0xfeed).unwrap();
        let mut fx3 = Vec::new();
        t0.handle_packet(&sup_req, &mut fx3);
        let sup_data = match fx3.remove(0) {
            Effect::Send(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(sup_data.is_reply(), "so does a Superset answer");
        let mut fx4 = Vec::new();
        t1.handle_packet(&sup_data, &mut fx4);
        assert!(woken_waiters(&fx4).contains(&2), "superset waiter woken");
        assert_eq!(
            t1.access(p0(), View::full_demand(), MapMode::Writeable, 2, &mut fx4)
                .unwrap(),
            AccessOutcome::Ready
        );
        assert_eq!(
            t1.page_buf(p0()).unwrap().read_u32(0).unwrap(),
            0xfeed,
            "merge kept the consistent short prefix"
        );
        assert!(t1.page_buf(p0()).unwrap().full_valid());
    }

    #[test]
    fn purges_publish_and_hosts_snoop_replies_alike() {
        // A purge broadcast is sent unasked: a publication, not a reply.
        let mut t0 = table(0);
        t0.create_owned(p0());
        let mut fx = Vec::new();
        t0.purge(p0(), MapMode::Writeable, PageLength::Short, 9, &mut fx)
            .unwrap();
        let purge = t0.server_purge_broadcast(p0(), PageLength::Short).unwrap();
        assert!(purge.is_data() && !purge.is_reply());
        t0.do_purge(p0(), &mut fx);
        // A data-driven waiter wakes on a reply someone else asked for,
        // exactly as on a publication.
        let mut t2 = table(2);
        t2.access(p0(), View::short_data(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        fx.clear();
        t0.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Short,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        let Some(Effect::Send(reply)) = fx.pop() else {
            panic!("the holder answers")
        };
        assert!(reply.is_reply());
        let mut woke = Vec::new();
        t2.handle_packet(&reply, &mut woke);
        assert_eq!(woken_waiters(&woke), vec![1]);
        assert!(t2.page_buf(p0()).is_some());
    }

    #[test]
    fn snoop_refreshes_inconsistent_copies() {
        let mut t = table(2);
        let mut fx = Vec::new();
        // Install via a data-driven wait + broadcast.
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        t.handle_packet(&frame(p0(), 1, None, 7u32.to_le_bytes().to_vec()), &mut fx);
        assert_eq!(t.page_buf(p0()).unwrap().read_u32(0).unwrap(), 7);
        // A later broadcast refreshes in place.
        t.handle_packet(&frame(p0(), 2, None, 8u32.to_le_bytes().to_vec()), &mut fx);
        assert_eq!(t.page_buf(p0()).unwrap().read_u32(0).unwrap(), 8);
        assert_eq!(t.generation(p0()), Generation(2));
    }

    #[test]
    fn snoop_does_not_install_on_uninterested_host() {
        let mut t = table(3);
        let mut fx = Vec::new();
        t.handle_packet(&frame(p0(), 1, None, vec![0u8; 8192]), &mut fx);
        assert!(
            t.page_buf(p0()).is_none(),
            "no waiters, no copy: no install"
        );
    }

    #[test]
    fn snooped_packets_for_foreign_pages_allocate_no_state() {
        // A broadcast naming an arbitrary (huge) page id must not grow
        // the dense slot index on uninvolved hosts: one 56-byte datagram
        // would otherwise cost megabytes of tracking state per snooper.
        let mut t = table(3);
        let mut fx = Vec::new();
        let far = PageId::new(crate::config::MAX_PAGES - 1);
        t.handle_packet(&frame(far, 1, None, vec![0u8; 8192]), &mut fx);
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: far,
                length: PageLength::Full,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        assert_eq!(t.tracked_pages().count(), 0, "no slot materialised");
        assert!(!t.tracks(far));
        assert!(fx.is_empty());
        // ...but a transfer addressed to this host still installs.
        t.handle_packet(&frame(far, 2, Some(3), vec![9u8; 8192]), &mut fx);
        assert!(t.is_consistent_holder(far));
    }

    #[test]
    fn data_waiters_wake_on_any_transit() {
        let mut t = table(2);
        let mut fx = Vec::new();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 11, &mut fx)
            .unwrap();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 12, &mut fx)
            .unwrap();
        assert!(fx.is_empty());
        t.handle_packet(&frame(p0(), 1, None, vec![0u8; 32]), &mut fx);
        let woken = woken_waiters(&fx);
        assert!(woken.contains(&11));
        assert!(woken.contains(&12));
        // Both waiters wake from ONE coalesced batch: one event's worth
        // of host work, not one per waiter.
        let batches = fx
            .iter()
            .filter(|e| matches!(e, Effect::WakeAll(_)))
            .count();
        assert_eq!(batches, 1, "one transit, one wake batch");
    }

    #[test]
    fn ro_purge_invalidates_local_copy() {
        let mut t = table(2);
        let mut fx = Vec::new();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        t.handle_packet(&frame(p0(), 1, None, vec![0u8; 32]), &mut fx);
        assert!(t.page_buf(p0()).is_some());
        let out = t
            .purge(p0(), MapMode::ReadOnly, PageLength::Short, 1, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Ready);
        assert!(t.page_buf(p0()).is_none());
        assert_eq!(t.stats().ro_purges, 1);
    }

    #[test]
    fn ro_purge_on_holder_is_noop() {
        let mut t = table(0);
        t.create_owned(p0());
        let mut fx = Vec::new();
        t.purge(p0(), MapMode::ReadOnly, PageLength::Short, 1, &mut fx)
            .unwrap();
        assert!(
            t.page_buf(p0()).is_some(),
            "the consistent copy is never purged away"
        );
        assert!(t.is_consistent_holder(p0()));
    }

    #[test]
    fn rw_purge_roundtrip_with_do_purge() {
        let mut t = table(0);
        t.create_owned(p0());
        t.page_buf_mut(p0()).unwrap().write_u32(0, 42).unwrap();
        let mut fx = Vec::new();

        let out = t
            .purge(p0(), MapMode::Writeable, PageLength::Short, 5, &mut fx)
            .unwrap();
        assert_eq!(out, AccessOutcome::Blocked(FaultKind::PurgeWait));
        assert_eq!(
            fx,
            vec![Effect::ServerPurge {
                page: p0(),
                length: PageLength::Short
            }]
        );
        assert!(t.purge_pending(p0()));

        // Server: broadcast then DO-PURGE.
        let pkt = t.server_purge_broadcast(p0(), PageLength::Short).unwrap();
        match &pkt {
            Packet::PageData {
                data,
                generation,
                transfer_to,
                ..
            } => {
                assert_eq!(&data[..4], &42u32.to_le_bytes());
                assert_eq!(*generation, Generation(1), "purge publishes a new version");
                assert_eq!(*transfer_to, None);
            }
            other => panic!("{other:?}"),
        }
        fx.clear();
        t.do_purge(p0(), &mut fx);
        assert_eq!(fx, vec![Effect::Wake(5)]);
        assert!(!t.purge_pending(p0()));
        assert_eq!(t.stats().rw_purges, 1);
    }

    #[test]
    fn rw_purge_requires_holder() {
        let mut t = table(1);
        let mut fx = Vec::new();
        let err = t
            .purge(p0(), MapMode::Writeable, PageLength::Short, 1, &mut fx)
            .unwrap_err();
        assert_eq!(err, Error::NotConsistentHolder { page: p0() });
    }

    #[test]
    fn lock_requires_present_consistent_copy() {
        let mut t = table(1);
        assert_eq!(
            t.lock(p0(), PageLength::Full).unwrap_err(),
            Error::LockFailed { page: p0() }
        );
        t.create_owned(p0());
        t.lock(p0(), PageLength::Full).unwrap();
        assert!(t.is_locked(p0()));
    }

    #[test]
    fn locked_page_defers_consistent_transfer_until_unlock() {
        let mut t = table(0);
        t.create_owned(p0());
        t.lock(p0(), PageLength::Full).unwrap();
        let mut fx = Vec::new();
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Full,
                want: Want::Consistent,
            },
            &mut fx,
        );
        assert!(fx.is_empty(), "transfer deferred while locked");
        assert!(t.is_consistent_holder(p0()));

        t.unlock(p0(), &mut fx);
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            Effect::Send(Packet::PageReply { transfer_to, .. }) => {
                assert_eq!(*transfer_to, Some(HostId(1)));
            }
            other => panic!("{other:?}"),
        }
        assert!(!t.is_consistent_holder(p0()));
    }

    #[test]
    fn own_broadcasts_are_ignored() {
        let mut t = table(0);
        t.create_owned(p0());
        let mut fx = Vec::new();
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(0),
                page: p0(),
                length: PageLength::Full,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn holder_ignores_stale_broadcasts_of_its_page() {
        let mut t = table(0);
        t.create_owned(p0());
        t.page_buf_mut(p0()).unwrap().write_u32(0, 9).unwrap();
        let mut fx = Vec::new();
        t.handle_packet(
            &Packet::PageData {
                from: HostId(1),
                page: p0(),
                length: PageLength::Short,
                generation: Generation(5),
                transfer_to: None,
                data: Bytes::from(vec![0u8; 32]),
            },
            &mut fx,
        );
        assert_eq!(
            t.page_buf(p0()).unwrap().read_u32(0).unwrap(),
            9,
            "the consistent copy is never overwritten by snooping"
        );
    }

    #[test]
    fn stale_broadcast_does_not_regress_copy() {
        // A late frame carrying an older generation must not overwrite
        // newer content in an inconsistent copy.
        let mut t = table(2);
        let mut fx = Vec::new();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        let mk = |g: u64, v: u32| frame(p0(), g, None, v.to_le_bytes().to_vec().repeat(8));
        t.handle_packet(&mk(5, 0x0505_0505), &mut fx);
        assert_eq!(t.page_buf(p0()).unwrap().read_u32(0).unwrap(), 0x0505_0505);
        // An older generation arrives late: rejected.
        t.handle_packet(&mk(3, 0x0303_0303), &mut fx);
        assert_eq!(t.page_buf(p0()).unwrap().read_u32(0).unwrap(), 0x0505_0505);
        assert_eq!(t.generation(p0()), Generation(5));
        // A newer one refreshes.
        t.handle_packet(&mk(6, 0x0606_0606), &mut fx);
        assert_eq!(t.page_buf(p0()).unwrap().read_u32(0).unwrap(), 0x0606_0606);
    }

    #[test]
    fn cancel_wait_allows_retransmission() {
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        assert_eq!(
            fx.iter().filter(|e| matches!(e, Effect::Send(_))).count(),
            1
        );
        // A second attempt without cancel is deduplicated.
        fx.clear();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        assert!(fx.iter().all(|e| !matches!(e, Effect::Send(_))));
        // After a cancel (timed-out fault), the retry retransmits.
        t.cancel_wait(p0(), 7);
        fx.clear();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        assert_eq!(
            fx.iter().filter(|e| matches!(e, Effect::Send(_))).count(),
            1,
            "fresh request after cancel"
        );
    }

    #[test]
    fn cancel_wait_retransmits_with_other_waiters_still_listed() {
        // Two waiters on one host fault the same page writeable; both
        // ride on one deduplicated request. If that request's answer
        // never comes, each waiter's retry cancels *itself* — the other
        // stays listed — and the re-access must still send a fresh
        // request, or both spin in block/cancel/block forever (the
        // livelock the open-loop soak flushed out).
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::Writeable, 7, &mut fx)
            .unwrap();
        t.access(p0(), View::short_demand(), MapMode::Writeable, 8, &mut fx)
            .unwrap();
        assert_eq!(
            fx.iter().filter(|e| matches!(e, Effect::Send(_))).count(),
            1,
            "second same-want fault is deduplicated"
        );
        t.cancel_wait(p0(), 7);
        fx.clear();
        t.access(p0(), View::short_demand(), MapMode::Writeable, 7, &mut fx)
            .unwrap();
        assert_eq!(
            fx.iter().filter(|e| matches!(e, Effect::Send(_))).count(),
            1,
            "retry must retransmit even though waiter 8 is still listed"
        );
    }

    #[test]
    fn wakeset_preserves_order_and_dedupes() {
        let mut set = WakeSet::new();
        assert!(set.insert(5));
        assert!(set.insert(3));
        assert!(!set.insert(5), "duplicate rejected");
        assert!(set.insert(9));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 3, 9]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(3));
        let from_iter: WakeSet = [1u64, 2, 1, 3].into_iter().collect();
        assert_eq!(from_iter.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn wakeall_never_drops_a_waiter_wake_would_have_woken() {
        // Mixed demand + data waiters on one page: every waiter the old
        // per-waiter Effect::Wake emission would have woken must be in
        // the coalesced batch, exactly once, demand first then data.
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 2, &mut fx)
            .unwrap();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 3, &mut fx)
            .unwrap();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 4, &mut fx)
            .unwrap();
        fx.clear();
        t.handle_packet(&frame(p0(), 1, None, vec![0u8; 32]), &mut fx);
        assert_eq!(
            woken_waiters(&fx),
            vec![1, 2, 3, 4],
            "demand waiters in queue order, then data waiters in queue order"
        );
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(e, Effect::Wake(_) | Effect::WakeAll(_)))
                .count(),
            1,
            "all four wakes ride one batch"
        );
    }

    #[test]
    fn wakeall_never_wakes_twice() {
        // The same waiter id queued as both a demand and a data waiter
        // (a runtime reusing the token across views) wakes once.
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::short_demand(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 7, &mut fx)
            .unwrap();
        fx.clear();
        t.handle_packet(&frame(p0(), 1, None, vec![0u8; 32]), &mut fx);
        assert_eq!(woken_waiters(&fx), vec![7], "woken exactly once");
    }

    #[test]
    fn wake_batch_ordered_before_retry_visible_effects() {
        // Wake-before-retry: by the time the embedding runtime sees the
        // wake batch, the page state that satisfies the retried access is
        // already installed — and any ConsistentArrived notification for
        // the same transit precedes the batch in the effect list, so a
        // runtime draining effects in order arms the holder state before
        // any woken process retries.
        let mut t = table(1);
        let mut fx = Vec::new();
        t.access(p0(), View::full_demand(), MapMode::Writeable, 9, &mut fx)
            .unwrap();
        fx.clear();
        t.handle_packet(&frame(p0(), 1, Some(1), vec![0u8; 8192]), &mut fx);
        let arrived_pos = fx
            .iter()
            .position(|e| matches!(e, Effect::ConsistentArrived(_)))
            .expect("transfer emits ConsistentArrived");
        let wake_pos = fx
            .iter()
            .position(|e| matches!(e, Effect::WakeAll(_)))
            .expect("waiter woken");
        assert!(arrived_pos < wake_pos, "state visible before wake");
        // And the retried access succeeds immediately.
        let mut fx2 = Vec::new();
        assert_eq!(
            t.access(p0(), View::full_demand(), MapMode::Writeable, 9, &mut fx2)
                .unwrap(),
            AccessOutcome::Ready
        );
    }

    #[test]
    fn generation_monotone_under_snooping() {
        let mut t = table(2);
        let mut fx = Vec::new();
        t.access(p0(), View::short_data(), MapMode::ReadOnly, 1, &mut fx)
            .unwrap();
        for g in [3u64, 1, 5, 2] {
            t.handle_packet(&frame(p0(), g, None, vec![0u8; 32]), &mut fx);
        }
        assert_eq!(
            t.generation(p0()),
            Generation(5),
            "generation never regresses"
        );
    }

    #[test]
    fn dirty_pages_track_consistency_mutations_and_dedupe() {
        let mut t = table(0);
        assert_eq!(t.dirty_page_count(), 0);
        t.create_owned(p0());
        t.create_owned(PageId::new(3));
        // Slots 1 and 2 exist in the index but hold no page.
        let tracked: Vec<bool> = (0..5).map(|p| t.tracks(PageId::new(p))).collect();
        assert_eq!(tracked, [true, false, false, true, false]);
        // A second mutation of an already-dirty page adds no entry.
        let mut fx = Vec::new();
        t.purge(p0(), MapMode::Writeable, PageLength::Short, 1, &mut fx)
            .unwrap();
        t.server_purge_broadcast(p0(), PageLength::Short).unwrap();
        assert_eq!(t.dirty_page_count(), 2);
        let mut drained = t.take_dirty_pages();
        drained.sort();
        assert_eq!(drained, vec![p0(), PageId::new(3)]);
        assert_eq!(t.dirty_page_count(), 0);
        assert!(t.take_dirty_pages().is_empty(), "drain clears the flags");
        // After a drain the same page can be re-queued.
        t.do_purge(p0(), &mut fx);
        t.handle_packet(
            &Packet::PageRequest {
                from: HostId(1),
                page: p0(),
                length: PageLength::Short,
                want: Want::ReadOnly,
            },
            &mut fx,
        );
        assert_eq!(t.take_dirty_pages(), vec![p0()]);
    }

    #[test]
    fn foreign_page_snoops_mark_nothing_dirty() {
        let mut t = table(3);
        let mut fx = Vec::new();
        let far = PageId::new(crate::config::MAX_PAGES - 1);
        t.handle_packet(&frame(far, 1, None, vec![0u8; 8192]), &mut fx);
        assert_eq!(
            t.dirty_page_count(),
            0,
            "no slot, no observable state, no dirty entry"
        );
    }

    #[test]
    fn a_far_page_costs_one_entry() {
        let mut t = table(3);
        t.create_owned(PageId::new(10_000));
        assert_eq!(t.pages.entries.len(), 1, "one entry, however high the id");
        assert_eq!(t.tracked_pages().collect::<Vec<_>>(), [PageId::new(10_000)]);
        assert!(t.tracks(PageId::new(10_000)));
        assert!(!t.tracks(PageId::new(9_999)));
    }

    #[test]
    fn tracked_pages_ascend_whatever_the_touch_order() {
        let mut t = table(3);
        for p in [9, 2, 5] {
            t.create_owned(PageId::new(p));
        }
        let ids: Vec<u32> = t.tracked_pages().map(|p| p.index()).collect();
        assert_eq!(ids, [2, 5, 9]);
        assert!(t.is_consistent_holder(PageId::new(5)));
    }
}
