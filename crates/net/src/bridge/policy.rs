//! Per-page filtering and routing.
//!
//! # Filtering and routing
//!
//! [`BridgePolicy`](super::BridgePolicy) is one device's forwarding filter — time-free and
//! transport-free, shared verbatim by the discrete-event simulator and
//! the threaded runtime. Per page it keeps, per port:
//!
//! * **learned interest** — a port is interested when a `PageRequest`
//!   arrived on it, a page copy arrived on it (that side holds copies
//!   the snoopy protocol must keep refreshed), or a `transfer_to` moved
//!   the consistent copy toward it. Each of these writes the port's
//!   [`PortStamp`], and nothing else records interest: a port has
//!   learned interest exactly when its stamp is written (not
//!   [`PortStamp::NEVER`]). Publications are forwarded to interested
//!   ports only.
//! * **pending requests** — a `PageRequest` heard on a port marks it
//!   pending for the page ([`PortStamp::requested_at`]) until a reply
//!   is forwarded back out through it. Replies follow these marks
//!   (below), and no aging horizon expires them.
//! * the **home port** — the port toward the page's home segment
//!   ([`mether_core::PageHomePolicy`]) *on the active tree*, permanently
//!   interested so the home always holds fresh copies for cross-segment
//!   misses to find. Never aged out; re-derived automatically when the
//!   tree changes; absent while the home segment is partitioned away.
//! * **pins** ([`BridgePolicy::subscribe`](super::BridgePolicy::subscribe)) — explicit subscriptions for
//!   purely data-driven readers, stored as *segments* and resolved to
//!   ports through the active tree, so they survive reconvergence. Few
//!   pages have any, so they are kept apart from the filters, in a
//!   list of their own.
//! * the **believed holder port** — learned from the direction page
//!   copies arrive from (only when they *advance* the
//!   page's generation, so a non-holder's stale `Want::Superset` reply
//!   cannot repoint the belief away from the live holder) and from
//!   snooped `transfer_to` moves (authoritative — they name the new
//!   holder).
//!
//! A `PageRequest` is forwarded toward the believed holder, *anchored at
//! the home port*; with no belief it walks toward the home (below), and
//! the reply repairs the table at every hop it crosses. So request
//! traffic grows with the tree distance to the holder, not with the
//! segment count. Two kinds of request still leave through every other
//! forwarding port: a `Want::Superset` request, which any host holding
//! a full copy may answer, so no one holder direction covers it; and a
//! belief-less request on a device that cannot trust its silence
//! (below). Belief quality is accounted per device in [`BridgeStats`]:
//! `belief_hits` (requests routed on a belief), `home_routed` (no
//! belief — toward home), `belief_fallback_floods` (no belief on a
//! device that cannot trust its silence — flooded), and
//! `belief_repairs` (an existing belief repointed by fresher evidence).
//!
//! # Replies and publications
//!
//! A page copy crosses the wire as one of two types with one header
//! layout ([`mether_core::Packet`]). A **publication**
//! ([`Packet::PageData`]: a purge broadcast) is sent unasked, for
//! data-driven readers that send no request; it leaves a device through
//! every port with fresh learned interest, the home port, and the pins
//! — the snoopy protocol's fan-out. A **reply**
//! ([`Packet::PageReply`]: a read reply, a `Superset` reply, a
//! consistency transfer) answers requests; it leaves only through
//!
//! * the ports whose requests are still pending,
//! * the next hop toward its `transfer_to` target, and
//! * the pins,
//!
//! and clears the pending mark of each port it leaves through. So a
//! demand reader fetches its own data, and a bystander segment no longer
//! snoops every reply to a page it once asked for: the paper's split
//! between demand-driven and data-driven faults, carried onto the
//! fabric. Two requesters pending on different ports (a holder that
//! coalesced or piggybacked the second request onto its answer to the
//! first) both get the one reply. A reply teaches everything a
//! publication does — ingress interest, holder beliefs — and a grant
//! still walks the whole old holder → new holder path, which is what the
//! trail below rests on.
//!
//! # The probable-owner trail
//!
//! A missing belief is evidence too. A page's consistent copy starts at
//! its creator and moves only by `transfer_to` data, which every device
//! on the old holder → new holder path forwards and follows; a device
//! off that path has both holders on the same side of itself. So a
//! device still on the tree it booted on, holding no belief for a page,
//! knows the holder is on the home side — the probable-owner trail of
//! Li and Hudak's dynamic distributed manager, kept by the bridges —
//! and sends the request out its home port alone (nowhere, when it came
//! in through it). Two cases break the argument, and both are covered.
//! A page created off its home segment has crossed nothing yet, so
//! creating it seeds the belief on the devices between home and
//! creator ([`BridgePolicy::seed_holder`](super::BridgePolicy::seed_holder)). A device whose tree changed
//! (a re-election flushes beliefs on the ports whose role changed) or
//! that was revived cold may have missed moves, so it floods
//! belief-less requests until replies teach it beliefs again. The
//! simulator's invariant observer checks the argument itself: on every
//! device that trusts its silence, a page with no belief has its holder
//! homeward.
//!
//! # Interest aging
//!
//! Learned interest carries a last-use stamp; an [`AgeHorizon`] (in
//! device-forwarded transits, or in sim time) evicts entries whose port
//! has shown no demand for that long, so a reader segment that stops
//! touching a page stops receiving its publications. Re-use reinstates the
//! entry via the ordinary learning path; home ports and pins never age.
//! The default, [`AgeHorizon::Sticky`], never evicts.
//!
//! # Per frame
//!
//! One pickup is one walk over the device's own port list, and what it
//! costs does not depend on how many segments or devices the fabric
//! has, and only logarithmically on how many pages the device heard
//! of. It *reads* the shared tree by reference (is this port
//! Forwarding; the next hop toward the page's home and toward a
//! `transfer_to` target), the device's hold-downs, the page's filter
//! and its row of the stamp slab, both found through one binary search
//! of the page index; it *writes* that one filter (the holder belief,
//! the newest generation) and the stamps of the ports that showed
//! demand — one row, one or two entries. Every forwarding rule is a
//! test applied to one port at a
//! time, and the ports that pass are pushed, ascending, into a buffer
//! the caller reuses ([`BridgePolicy::route_into`](super::BridgePolicy::route_into): each device's
//! engine keeps one, and lends it out for an untimed forward), as are
//! the egress schedules a device and a fabric pickup return. No
//! segment-id mask is built, copied or
//! combined along the way, so nothing is allocated — with one
//! exception: a page with pins ([`BridgePolicy::subscribe`](super::BridgePolicy::subscribe)) resolves
//! them to ports through the tree into a small mask, once per frame.
//! The unit tests' mask-returning `targets` and `interest` collect the
//! same walk's ports into a mask, and the invariant observer asks the
//! walk's test of one port ([`BridgePolicy::interested`](super::BridgePolicy::interested)); there is no
//! second copy of the rules.

use super::{AgeHorizon, BridgeStats};
use crate::time::SimTime;
use mether_core::{
    ActiveTree, BridgeTopology, HostId, HostMask, Packet, PageHomePolicy, PageId, SegmentLayout,
    Want,
};
use std::sync::Arc;

/// Per-page filter state of one device: where the consistent holder
/// is believed to be. Which ports learned interest in the page, and
/// when each last showed demand, lives beside it in the device's stamp
/// slab ([`Filters::stamps`]); its pins, if any, in [`Filters::pins`].
#[derive(Debug, Clone, Default)]
struct PageFilter {
    /// Port (segment id) toward the believed consistent holder.
    holder: Option<u16>,
    /// Newest generation seen in any data transit for the page. Holder
    /// beliefs only follow data that *advances* it: `Want::Superset`
    /// replies come from non-holders by definition (`table.rs`: "never
    /// the holder itself") and echo a stale generation, so without this
    /// gate one superset reply would repoint every device on its path
    /// at a segment that cannot answer ordinary requests.
    newest_gen: Option<mether_core::Generation>,
    /// Already queued in the policy's dirty-page list since the last
    /// drain (dedup flag for the incremental invariant observer).
    dirty: bool,
}

impl PageFilter {
    /// Repoints the holder belief to `port`; true when that overwrote
    /// an existing, different belief (a repair).
    fn point_holder(&mut self, port: usize) -> bool {
        let before = self.holder.replace(port as u16);
        before.is_some_and(|old| usize::from(old) != port)
    }
}

/// The last demand evidence one port of a device showed for one page.
/// A written stamp is the port's learned interest in the page; a port
/// without it holds `PortStamp::NEVER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStamp {
    /// The device's forwarded-transit clock at the last demand.
    pub clock: u64,
    /// Sim time of the last demand.
    pub at: SimTime,
    /// The port's **pending marker**: the sim time of the last
    /// `PageRequest` heard on the port that no reply has been carried
    /// back through it since, or `SimTime::ZERO` when none is pending
    /// (real arrivals are strictly later than the epoch). A
    /// [`Packet::PageReply`] leaves a device through its pending ports,
    /// whatever the aging horizon, and clears each one it leaves
    /// through.
    pub requested_at: SimTime,
}

impl PortStamp {
    /// The stamp of a port that has shown no demand for the page since
    /// the filter was made or the port flushed: no learned interest.
    /// Its `at` is [`SimTime::MAX`], which no demand is heard at; every
    /// other field may be anything a written stamp holds (a frame heard
    /// at the epoch on a fresh device is stamped clock 0, time zero).
    pub(super) const NEVER: PortStamp = PortStamp {
        clock: 0,
        at: SimTime::MAX,
        requested_at: SimTime::ZERO,
    };

    /// Is this stamp written — does its port have learned interest?
    pub(crate) fn is_learned(&self) -> bool {
        self.at != SimTime::MAX
    }
}

/// One page's interest at one instant, as a per-port test (see
/// [`Filters::interested`] for the rules).
struct Interest<'a> {
    filters: &'a Filters,
    now: SimTime,
    /// The port toward the page's home segment.
    home: Option<usize>,
    /// The ports the page's pins resolve to; `None` without pins.
    pins: Option<HostMask>,
    /// The page's stamp row, once materialised.
    row: Option<&'a [PortStamp]>,
}

impl Interest<'_> {
    /// Does the device's `i`th port (segment `port`) want the page's
    /// publications?
    fn covers(&self, i: usize, port: usize) -> bool {
        Some(port) == self.home
            || self.pinned(port)
            || self
                .row
                .is_some_and(|row| row[i].is_learned() && self.filters.fresh(&row[i], self.now))
    }

    /// Does the device's `i`th port (segment `port`) want a reply: is a
    /// request heard on it still pending, or is the page pinned there?
    fn asked(&self, i: usize, port: usize) -> bool {
        self.pinned(port)
            || self
                .row
                .is_some_and(|row| row[i].requested_at != SimTime::ZERO)
    }

    fn pinned(&self, port: usize) -> bool {
        self.pins.as_ref().is_some_and(|pins| pins.contains(port))
    }
}

/// Which ports a `PageRequest` leaves a device through (see
/// [`Filters::request_route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestRoute {
    /// A `Superset` request: every other forwarding port — not a belief
    /// event.
    Superset,
    /// The believed holder's port (a segment id), anchored at the home
    /// port.
    Holder(usize),
    /// No belief, on a device whose silence proves the holder homeward:
    /// the home port alone.
    Home,
    /// No belief, on a device that may have missed a move: every other
    /// forwarding port.
    Fallback,
}

/// What routing reads of the device's election, lent for one call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tree<'a> {
    /// The active forwarding tree the device routes on.
    pub(crate) active: &'a ActiveTree,
    /// Per own-port index: no data before this time (the hold-down).
    /// Empty under static election, which never holds a port down.
    pub(crate) hold_until: &'a [SimTime],
    /// Whether a missing holder belief still proves the holder homeward
    /// (see the module docs, "The probable-owner trail").
    pub(crate) trail_intact: bool,
}

/// One device's per-page filters: which of its ports must hear a frame
/// about a page, and where the page's holder is believed to be. It
/// reads the election only through a lent [`Tree`], so it is driven
/// without a fabric.
#[derive(Debug, Clone)]
pub(crate) struct Filters {
    layout: SegmentLayout,
    topology: Arc<BridgeTopology>,
    device: usize,
    homes: PageHomePolicy,
    aging: AgeHorizon,
    /// Belief-quality counters: only the `belief_*` and `home_routed`
    /// fields are kept here (merged into the device's [`BridgeStats`]).
    beliefs: BridgeStats,
    /// `(page, slot of its filter in pages)` for every page the device
    /// has heard of, ascending by page: 8 bytes per page heard, none
    /// for a page never heard of.
    index: Vec<(PageId, u32)>,
    /// The filters of the pages this device has heard of, one per slot,
    /// in first-touch order.
    pages: Vec<PageFilter>,
    /// Per-port demand stamps of every materialised page, one flat
    /// `slots × ports` slab: slot `s`'s row is
    /// `stamps[s * nports..][..nports]`, parallel to the port list.
    stamps: Vec<PortStamp>,
    /// `(page, pinned segments)` for every page with pins, ascending by
    /// page. A pinned segment is any segment of the fabric, resolved to
    /// a port through the active tree at use time so pins survive
    /// reconvergence. Never aged; only [`Filters::subscribe`] adds one.
    pins: Vec<(PageId, HostMask)>,
    /// Transits this device has forwarded — the aging clock.
    clock: u64,
    /// Pages whose filter state changed since the last
    /// [`Filters::take_dirty`] drain (dedup via `PageFilter::dirty`).
    dirty_pages: Vec<PageId>,
}

/// The mask [`Filters::pinned_segs`] lends for a page without pins.
static NO_PORTS: HostMask = HostMask::EMPTY;

impl Filters {
    /// The empty filters of device `device` of `topology`, over
    /// `layout`, with pages homed by `homes` and interest aged by
    /// `aging`.
    pub(crate) fn new(
        layout: SegmentLayout,
        topology: Arc<BridgeTopology>,
        device: usize,
        homes: PageHomePolicy,
        aging: AgeHorizon,
    ) -> Self {
        Filters {
            layout,
            topology,
            device,
            homes,
            aging,
            beliefs: BridgeStats::default(),
            index: Vec::new(),
            pages: Vec::new(),
            stamps: Vec::new(),
            pins: Vec::new(),
            clock: 0,
            dirty_pages: Vec::new(),
        }
    }

    /// The host layout the filters route over.
    pub(crate) fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// Which device of the topology these filters belong to.
    pub(crate) fn device(&self) -> usize {
        self.device
    }

    /// The home segment of `page`.
    pub(crate) fn home_of(&self, page: PageId) -> usize {
        self.homes.home_of(page, self.layout.segments())
    }

    /// The port toward `page`'s home segment on `tree`.
    pub(crate) fn home_port(&self, page: PageId, tree: Tree) -> Option<usize> {
        tree.active.next_hop(self.device, self.home_of(page))
    }

    /// This device's ports (segment ids), ascending.
    fn ports(&self) -> &[usize] {
        self.topology.ports(self.device)
    }

    fn port_index(&self, port: usize) -> usize {
        self.ports()
            .iter()
            .position(|&p| p == port)
            .unwrap_or_else(|| panic!("segment {port} is not a port of device {}", self.device))
    }

    /// The slot of `page`'s filter, materialised on first touch, with
    /// the page queued for the observer's next dirty drain. Every
    /// mutation of a page's filter state goes through here, so this is
    /// the one place page-level dirty marking has to happen.
    fn slot_mut(&mut self, page: PageId) -> usize {
        let slot = match self.slot(page) {
            Some(slot) => slot,
            None => self.materialise(page),
        };
        let f = &mut self.pages[slot];
        if !f.dirty {
            f.dirty = true;
            self.dirty_pages.push(page);
        }
        slot
    }

    /// Slot `slot`'s filter and its row of the stamp slab, for a slot
    /// [`Filters::slot_mut`] handed out (and dirty-marked) for the
    /// same change.
    fn row_mut(&mut self, slot: usize) -> (&mut PageFilter, &mut [PortStamp]) {
        let nports = self.ports().len();
        (
            &mut self.pages[slot],
            &mut self.stamps[slot * nports..][..nports],
        )
    }

    /// `page`'s filter, materialised and dirty-marked by
    /// [`Filters::slot_mut`].
    fn filter_mut(&mut self, page: PageId) -> &mut PageFilter {
        let slot = self.slot_mut(page);
        &mut self.pages[slot]
    }

    /// Gives `page`, which the device has not heard of before, a slot:
    /// a default filter and a row of never-stamped ports.
    #[cold]
    fn materialise(&mut self, page: PageId) -> usize {
        let at = self.index.partition_point(|&(p, _)| p < page);
        let slot = self.pages.len();
        self.index.insert(at, (page, slot as u32));
        self.pages.push(PageFilter::default());
        let nports = self.ports().len();
        self.stamps.resize((slot + 1) * nports, PortStamp::NEVER);
        slot
    }

    /// The slot of `page`'s filter, if the device has heard of the page.
    fn slot(&self, page: PageId) -> Option<usize> {
        let at = self.index.binary_search_by_key(&page, |&(p, _)| p).ok()?;
        Some(self.index[at].1 as usize)
    }

    /// `page`'s filter, if the device has heard of the page.
    fn filter(&self, page: PageId) -> Option<&PageFilter> {
        self.slot(page).map(|slot| &self.pages[slot])
    }

    /// The stamp-slab row of slot `slot`.
    fn row(&self, slot: usize) -> &[PortStamp] {
        let nports = self.ports().len();
        &self.stamps[slot * nports..][..nports]
    }

    /// Is the last demand evidence `stamp` still within the aging
    /// horizon at `now`?
    fn fresh(&self, stamp: &PortStamp, now: SimTime) -> bool {
        match self.aging {
            AgeHorizon::Sticky => true,
            AgeHorizon::Transits(h) => self.clock.saturating_sub(stamp.clock) <= h,
            AgeHorizon::SimTime(d) => now.since(stamp.at) <= d,
        }
    }

    /// May this device carry data on its `i`th port (segment `port`)
    /// right now? The active tree's Forwarding ports, minus any still
    /// in their post-election hold-down.
    fn carries(&self, i: usize, port: usize, now: SimTime, tree: Tree) -> bool {
        tree.active.forwards(self.device, port)
            && tree.hold_until.get(i).is_none_or(|&until| until <= now)
    }

    /// What decides, port by port, whether `page` (whose filter sits in
    /// `slot`, if it has one) has its data wanted at `now`: everything
    /// the forwarding rules read about the page, looked up once per
    /// frame.
    fn interest_in(
        &self,
        page: PageId,
        slot: Option<usize>,
        now: SimTime,
        tree: Tree,
    ) -> Interest<'_> {
        Interest {
            filters: self,
            now,
            home: self.home_port(page, tree),
            // Pins name segments anywhere in the fabric; resolve them to
            // own ports through the active tree — only when there are
            // any, which on the data path there almost never are.
            pins: self.pins_of(page).map(|segs| {
                segs.iter()
                    .filter_map(|seg| tree.active.next_hop(self.device, seg))
                    .collect()
            }),
            row: slot.map(|slot| self.row(slot)),
        }
    }

    /// Does port `port` want `page`'s publications at `now`? The per-port
    /// test data forwarding applies: a fresh learned port, a pin or the
    /// home port.
    pub(crate) fn interested(&self, page: PageId, port: usize, now: SimTime, tree: Tree) -> bool {
        let interest = self.interest_in(page, self.slot(page), now, tree);
        interest.covers(self.port_index(port), port)
    }

    /// Belief-quality counters (the `belief_*` and `home_routed` fields).
    pub(crate) fn belief_counters(&self) -> BridgeStats {
        self.beliefs
    }

    /// Drains the pages whose filter state changed since the last drain,
    /// deduplicated, for the incremental invariant observer.
    pub(crate) fn take_dirty(&mut self) -> Vec<PageId> {
        let pages = std::mem::take(&mut self.dirty_pages);
        for &p in &pages {
            if let Some(slot) = self.slot(p) {
                self.pages[slot].dirty = false;
            }
        }
        pages
    }

    /// The port toward the believed consistent holder of `page`.
    pub(crate) fn holder_port(&self, page: PageId) -> Option<usize> {
        self.filter(page).and_then(|f| f.holder.map(usize::from))
    }

    /// Transits this device has forwarded so far: the aging clock.
    pub(crate) fn aging_clock(&self) -> u64 {
        self.clock
    }

    /// The ids of the pages with a materialised filter, ascending.
    pub(crate) fn tracked_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.index.iter().map(|&(page, _)| page)
    }

    /// `page`'s raw, unaged learned-interest ports: those with a written
    /// stamp.
    pub(crate) fn learned(&self, page: PageId) -> HostMask {
        let Some(row) = self.stamps(page) else {
            return HostMask::EMPTY;
        };
        (self.ports().iter().zip(row))
            .filter(|(_, stamp)| stamp.is_learned())
            .map(|(&port, _)| port)
            .collect()
    }

    /// The segments pinned to `page`, if it has any.
    fn pins_of(&self, page: PageId) -> Option<&HostMask> {
        if self.pins.is_empty() {
            return None;
        }
        let at = self.pins.binary_search_by_key(&page, |&(p, _)| p).ok()?;
        Some(&self.pins[at].1)
    }

    /// The segments pinned to `page`.
    pub(crate) fn pinned_segs(&self, page: PageId) -> &HostMask {
        self.pins_of(page).unwrap_or(&NO_PORTS)
    }

    /// `page`'s row of the stamp slab, if it has a filter.
    pub(crate) fn stamps(&self, page: PageId) -> Option<&[PortStamp]> {
        self.slot(page).map(|slot| self.row(slot))
    }

    /// The newest data generation seen for `page`.
    pub(crate) fn newest_gen(&self, page: PageId) -> Option<mether_core::Generation> {
        self.filter(page).and_then(|f| f.newest_gen)
    }

    /// Test-only fault injection: stamps demand for `page` on the
    /// device's first port one transit ahead of the aging clock — a
    /// stamp no forwarded frame can have written — through the ordinary
    /// mutation path.
    #[doc(hidden)]
    pub(crate) fn corrupt_learned_for_test(&mut self, page: PageId) {
        let clock = self.clock + 1;
        let slot = self.slot_mut(page);
        self.row_mut(slot).1[0] = PortStamp {
            clock,
            at: SimTime::ZERO,
            requested_at: SimTime::ZERO,
        };
    }

    /// Test-only fault injection: points (or, with `None`, erases)
    /// `page`'s holder belief, through the ordinary mutation path.
    #[doc(hidden)]
    pub(crate) fn corrupt_holder_belief_for_test(&mut self, page: PageId, segment: Option<usize>) {
        self.filter_mut(page).holder = segment.map(|s| s as u16);
    }

    /// Pins segment `seg` to `page`'s transits; panics if `seg` is out
    /// of range.
    pub(crate) fn subscribe(&mut self, page: PageId, seg: usize) {
        assert!(
            seg < self.layout.segments(),
            "segment {seg} >= {}",
            self.layout.segments()
        );
        // A pin is filter state too: the page is tracked and dirty.
        self.slot_mut(page);
        match self.pins.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(at) => self.pins[at].1.insert(seg),
            Err(at) => self.pins.insert(at, (page, HostMask::single(seg))),
        }
    }

    /// `page` was just created on segment `seg`: points the holder belief
    /// toward `seg` when this device lies between it and the page's home.
    pub(crate) fn seed_holder(&mut self, page: PageId, seg: usize, tree: Tree) {
        let home = self.home_port(page, tree);
        if let Some(port) = tree.active.next_hop(self.device, seg) {
            if Some(port) != home {
                self.filter_mut(page).holder = Some(port as u16);
            }
        }
    }

    /// The segment a transfer target host sits on, if the host id is in
    /// range (wire-decoded frames can carry garbage ids).
    fn transfer_segment(&self, transfer_to: &Option<HostId>) -> Option<usize> {
        transfer_to.as_ref().and_then(|h| {
            ((h.0 as usize) < self.layout.hosts()).then(|| self.layout.segment_of(h.0 as usize))
        })
    }

    /// This device's port toward the segment of a transfer target, if
    /// the target is valid and its segment reachable.
    fn transfer_port(&self, transfer_to: &Option<HostId>, tree: Tree) -> Option<usize> {
        self.transfer_segment(transfer_to)
            .and_then(|seg| tree.active.next_hop(self.device, seg))
    }

    /// Updates the learning tables (the filter in `slot`) for one frame
    /// heard on the device's `in_idx`th port (segment `in_port`) at
    /// `now`.
    fn learn(
        &mut self,
        pkt: &Packet,
        slot: usize,
        in_idx: usize,
        in_port: usize,
        now: SimTime,
        tree: Tree,
    ) {
        let clock = self.clock;
        match pkt {
            Packet::PageRequest { .. } => {
                // The requester's side now wants this page's transits:
                // the reply must route back out this port (the pending
                // marker, which no aging horizon expires), and later
                // publications too (learned interest).
                self.row_mut(slot).1[in_idx] = PortStamp {
                    clock,
                    at: now,
                    requested_at: now,
                };
            }
            Packet::PageData {
                transfer_to,
                generation,
                ..
            }
            | Packet::PageReply {
                transfer_to,
                generation,
                ..
            } => {
                let transfer = self
                    .transfer_port(transfer_to, tree)
                    .map(|port| (self.port_index(port), port));
                let (f, row) = self.row_mut(slot);
                let mut demand = |i: usize| (row[i].clock, row[i].at) = (clock, now);
                // The sending side holds copies (at least the sender's
                // own); keep it refreshed once consistency moves on.
                demand(in_idx);
                let mut repairs = 0;
                // The data also came *from* the holder's direction —
                // the belief request routing follows — but only when it
                // advances the page's generation: the holder's replies
                // and purge broadcasts always do, while a stale echo (a
                // non-holder's `Want::Superset` reply) must not repoint
                // the belief away from the live holder.
                if f.newest_gen.is_none_or(|g| generation.newer_than(g)) {
                    f.newest_gen = Some(*generation);
                    repairs += u64::from(f.point_holder(in_port));
                }
                // A consistency transfer must reach the new holder, that
                // side stays interested from then on, and the belief
                // follows the move unconditionally — `transfer_to`
                // names the new holder explicitly.
                if let Some((i, port)) = transfer {
                    demand(i);
                    repairs += u64::from(f.point_holder(port));
                }
                self.beliefs.belief_repairs += repairs;
            }
            Packet::BridgePdu { .. } => {}
        }
    }

    /// The index of `in_port` among this device's ports, if a frame
    /// heard on it at `now` enters the data plane at all: a frame heard
    /// on a Blocked or held-down port is neither learned from nor
    /// forwarded — the dormant redundancy stays invisible.
    fn ingress(&self, in_port: usize, now: SimTime, tree: Tree) -> Option<usize> {
        let i = self.ports().iter().position(|&p| p == in_port)?;
        self.carries(i, in_port, now, tree).then_some(i)
    }

    /// Calls `emit` with each port a frame heard on `in_port` at `now`
    /// may leave through and that `wanted(port index, port)` asks for,
    /// ascending: **the** walk over the device's port list that every
    /// forwarding decision is made by. Nothing leaves through the port
    /// it came in on or through a port that is Blocked or held down.
    fn egress(
        &self,
        in_port: usize,
        now: SimTime,
        tree: Tree,
        wanted: impl Fn(usize, usize) -> bool,
        mut emit: impl FnMut(usize),
    ) {
        for (i, &port) in self.ports().iter().enumerate() {
            if port != in_port && self.carries(i, port, now, tree) && wanted(i, port) {
                emit(port);
            }
        }
    }

    /// How a request asking `want`, for the page whose filter sits in
    /// `slot` (if it has one), leaves this device.
    fn request_route(&self, slot: Option<usize>, want: Want, tree: Tree) -> RequestRoute {
        // Any host still holding a full copy may answer a Superset
        // request, so no single holder direction covers it.
        if want == Want::Superset {
            return RequestRoute::Superset;
        }
        match slot.and_then(|slot| self.pages[slot].holder) {
            Some(holder) => RequestRoute::Holder(holder.into()),
            // No belief: the holder is homeward (the module docs' "The
            // probable-owner trail") — unless this device may have
            // missed the moves that would have taught it otherwise.
            None if tree.trail_intact => RequestRoute::Home,
            None => RequestRoute::Fallback,
        }
    }

    /// The forwarding decision for one frame that entered through
    /// `in_port` at `now` ([`Filters::ingress`] admitted it), its
    /// page's filter in `slot` (if it has one), with no learning side
    /// effects: `emit` is called with each target port, ascending.
    fn each_target(
        &self,
        pkt: &Packet,
        slot: Option<usize>,
        in_port: usize,
        now: SimTime,
        tree: Tree,
        emit: impl FnMut(usize),
    ) {
        match pkt {
            Packet::PageRequest { page, want, .. } => {
                let holder = match self.request_route(slot, *want, tree) {
                    RequestRoute::Superset | RequestRoute::Fallback => {
                        return self.egress(in_port, now, tree, |_, _| true, emit);
                    }
                    RequestRoute::Holder(holder) => Some(holder),
                    RequestRoute::Home => None,
                };
                // Toward the believed holder, *anchored at the home
                // port*: the home is where the consistent copy is
                // seeded (and, under workload-derived placement, where
                // the dominant writer keeps it), so a belief that has
                // gone bad — taught by a frame the live holder's
                // traffic never corrected — still lands the request
                // where a holder is most likely to answer, and the
                // reply repairs the belief. When the belief (and home)
                // point back where the frame came from, the request is
                // already travelling in the right direction and another
                // device on that segment continues the chase —
                // forwarding elsewhere cannot reach the holder sooner.
                // With no belief the home alone is the direction, and
                // nowhere is when the request came from there.
                let home = self.home_port(*page, tree);
                self.egress(
                    in_port,
                    now,
                    tree,
                    |_, port| Some(port) == holder || Some(port) == home,
                    emit,
                );
            }
            Packet::PageData {
                page, transfer_to, ..
            }
            | Packet::PageReply {
                page, transfer_to, ..
            } => {
                // A publication goes wherever the page has interest; a
                // reply only back toward the requests it answers. Both
                // follow a consistency move to its new holder.
                let interest = self.interest_in(*page, slot, now, tree);
                let transfer = self.transfer_port(transfer_to, tree);
                let reply = pkt.is_reply();
                self.egress(
                    in_port,
                    now,
                    tree,
                    |i, port| {
                        Some(port) == transfer
                            || if reply {
                                interest.asked(i, port)
                            } else {
                                interest.covers(i, port)
                            }
                    },
                    emit,
                );
            }
            Packet::BridgePdu { .. } => {}
        }
    }

    /// Routes one frame heard on `in_port` at `now`: learns from it and
    /// leaves its target ports in `out`, ascending (see
    /// [`BridgePolicy::route_into`](super::BridgePolicy::route_into)).
    pub(crate) fn route_into(
        &mut self,
        pkt: &Packet,
        in_port: usize,
        now: SimTime,
        tree: Tree,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        debug_assert!(
            self.ports().contains(&in_port),
            "device {} has no port on segment {in_port}",
            self.device
        );
        if pkt.is_control() {
            return; // the election consumes control frames
        }
        let Some(in_idx) = self.ingress(in_port, now, tree) else {
            return;
        };
        let slot = self.slot_mut(pkt.page());
        self.learn(pkt, slot, in_idx, in_port, now, tree);
        if let Packet::PageRequest { want, .. } = pkt {
            match self.request_route(Some(slot), *want, tree) {
                RequestRoute::Superset => {}
                RequestRoute::Holder(_) => self.beliefs.belief_hits += 1,
                RequestRoute::Home => self.beliefs.home_routed += 1,
                RequestRoute::Fallback => self.beliefs.belief_fallback_floods += 1,
            }
        }
        self.each_target(pkt, Some(slot), in_port, now, tree, |port| out.push(port));
        if pkt.is_reply() {
            self.answer_pending(slot, out);
        }
        if !out.is_empty() {
            self.clock += 1;
        }
    }

    /// A reply for the page in `slot` leaves through `out`: the
    /// requests pending on those ports are answered, so their markers
    /// clear.
    fn answer_pending(&mut self, slot: usize, out: &[usize]) {
        let ports = self.topology.ports(self.device);
        let row = &mut self.stamps[slot * ports.len()..][..ports.len()];
        for (stamp, port) in row.iter_mut().zip(ports) {
            if out.contains(port) {
                stamp.requested_at = SimTime::ZERO;
            }
        }
    }

    /// The forwarding mask of one frame heard on `in_port` at `now`,
    /// with no learning side effects, for the unit tests (the
    /// `transfer_to` port is included even before learning records it).
    #[cfg(test)]
    pub(super) fn targets(
        &self,
        pkt: &Packet,
        in_port: usize,
        now: SimTime,
        tree: Tree,
    ) -> HostMask {
        let mut m = HostMask::EMPTY;
        if self.ingress(in_port, now, tree).is_some() {
            let slot = self.slot(pkt.page());
            self.each_target(pkt, slot, in_port, now, tree, |port| m.insert(port));
        }
        m
    }

    /// Forgets everything learned through `port`: its demand stamps
    /// (its learned interest) and any holder belief pointing out of it.
    /// Called when the port's role changed — on the new tree those
    /// directions are meaningless, and a stale belief would bounce
    /// requests into the dead part of the fabric.
    pub(crate) fn flush_port(&mut self, port: usize) {
        let i = self.port_index(port);
        let nports = self.ports().len();
        // Walked through the index, so the dirty pushes keep page order.
        for &(page, slot) in &self.index {
            let slot = slot as usize;
            let f = &mut self.pages[slot];
            self.stamps[slot * nports + i] = PortStamp::NEVER;
            if f.holder == Some(port as u16) {
                f.holder = None;
                // Let the next reply re-teach the belief from scratch:
                // post-reconvergence data may legitimately arrive with a
                // generation the old path already reported.
                f.newest_gen = None;
            }
            if !f.dirty {
                f.dirty = true;
                self.dirty_pages.push(page);
            }
        }
    }
}
