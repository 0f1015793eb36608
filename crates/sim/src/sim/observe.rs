//! The always-on DSM invariant observer.
//!
//! After PRs 3–6 the protocol state is spread over three layers — host
//! page tables, per-device bridge filters, and the elected fabric —
//! and a contradiction between them (two consistent holders, a belief
//! pointing off the device's own ports, a stamp from the future) can
//! stay latent for thousands of events before it surfaces as a wrong
//! answer. The observer cross-checks the deployment for such
//! contradictions after event pops, the way scx_model's `Observer`
//! sweeps its kernel state every step.
//!
//! # The invariant catalogue
//!
//! **(a) Page-table / holder agreement** — across all hosts, every page
//! has *at most one* consistent (writable) holder. Not "exactly one":
//! during a consistency transfer the granting side clears its
//! `consistent` bit before the `transfer_to` frame lands, so a page
//! legitimately has zero holders mid-flight (and permanently, if a
//! lossy wire ate the transfer — that is livelock, not corruption).
//! A holder must actually hold a buffer, and each host's generation for
//! a page never moves backwards.
//!
//! **(b) Bridge belief sanity** — a device's believed-holder port, its
//! learned-interest bits, and its post-election hold-downs all name
//! physical ports of that device; pinned segments name segments of the
//! layout. (The belief may legitimately be *stale* — pointing where the
//! holder used to be until the next data transit repairs it — so the
//! structural check is the invariant; chasing accuracy is the belief
//! counters' job.) Per device life and election epoch, the
//! newest-generation gate only moves forward.
//!
//! **(c) Interest-table / age-stamp coherence** — demand stamps never
//! run ahead of the device's forwarded-transit clock or of sim time,
//! and the page's home port is always in the effective interest mask,
//! however old (home ports never age out).
//!
//! **(d) Port-state symmetry and elected-tree consistency** — a
//! device's forwarding ports are a subset of its live ports (dead links
//! never forward), every active-tree next hop leaves through a
//! forwarding port, election epochs only advance within one device
//! life, and two live devices whose gossiped `DeviceView`s agree
//! exactly *and* sit in the same view-induced component have elected
//! identical active trees (the election is a deterministic function of
//! the views, restricted to the electing device's partition — islands
//! of a cut fabric each elect their own tree). The sweep does that work
//! once per group, not once per device: devices are sorted into classes
//! of equal view tables, each class's components are labelled in one
//! pass over the wiring, and every device is compared with the single
//! representative of its (views, component) group. A fabric shares its
//! boot views and boot tree by reference (`mether_net::bridge`, "Per
//! fabric, per device"), so both comparisons try address identity
//! before value equality — on a fabric that never diverged the whole
//! check is two pointer tests per device and one labelling.
//!
//! **(e) Lane/window invariants** — no lane ever pops time backwards,
//! which under [`ParallelMode::Workers`](super::ParallelMode) is the
//! lookahead contract (a forwarded copy pushed into a lane behind its
//! clock would trip it); the check lives inline in `par.rs`, gated on
//! the same switch as the sweeps here.
//!
//! # Gating and cost: the dirty-set model
//!
//! The observer is on under `debug_assertions` (so the whole test suite
//! runs swept), forced on/off by `METHER_OBSERVE=1` / `METHER_OBSERVE=0`,
//! and samples every [`Observer::stride`] events. Sampled sweeps are
//! **incremental**: every mutation site that can change observable
//! consistency state registers its entity in a dirty set — page-table
//! slot writes and generation advances mark `(host, page)` (see
//! `PageTable::take_dirty_pages`), belief/interest/port-state/election
//! changes mark `(device, page)` or the device structurally (every
//! filter mutation flows through `BridgePolicy::filter_mut`, every
//! election recompute and port kill/revival sets the structural flag;
//! see `Fabric::take_dirty`), and bridge deaths/revivals set a
//! fabric-wide liveness flag. A sampled sweep drains the dirty sets and
//! checks *only* those entities: dirty host pages update a persistent
//! page → holder map (invariant (a) stays a whole-deployment property —
//! a page is re-checked exactly when some replica of it moved), dirty
//! device pages get the (b)/(c) block, structurally-dirty devices get
//! the per-device (d) block, and any structural or liveness dirt
//! re-runs the cross-device elected-tree consistency check. Cost is
//! O(what changed since the last sweep), not O(deployment).
//!
//! The **full sweep stays the oracle**: it rebuilds the holder map from
//! scratch and re-checks every entity, and runs at every `run` return,
//! on every [`check_invariants`](super::Simulation::check_invariants)
//! call (the soak harness calls it in release builds), and on a sampled
//! cadence (every [`ORACLE_EVERY`]th sampled sweep). In the
//! differential mode (`METHER_OBSERVE_DIFF=1`) each oracle sweep
//! asserts the incrementally-maintained holder map is *identical* to
//! the rebuilt one, so under-conservative dirty-marking (a mutation
//! site that forgot to mark) can never stay quiet; without the flag the
//! oracle silently adopts the rebuilt map, keeping incremental state
//! self-healing.
//!
//! Unless pinned by `METHER_OBSERVE_EVERY=n` (1 = sweep after every
//! event), the stride self-tunes from the measured incremental cost
//! plus the amortised oracle share, keeping the overhead at a few
//! checks per event — but because incremental sweeps are cheap, the
//! tuned stride lands orders of magnitude lower than the full-sweep
//! observer could afford on a 100+ device fabric: same budget, far more
//! coverage. [`ObserverStats`] (surfaced through
//! [`ProtocolMetrics`](crate::metrics::ProtocolMetrics)) records
//! sweeps, entities checked, the dirty-set high-water mark, and the
//! effective stride.

use crate::host::HostSim;
use mether_core::{BridgeTopology, DeviceView, Generation, PageId};
use mether_net::{Fabric, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Every `ORACLE_EVERY`th *sampled* sweep is a full-deployment oracle
/// sweep instead of an incremental one (run returns and explicit
/// `check_invariants` calls are always oracles). Amortised over the
/// stride, the oracle share of the budget stays small while bounding
/// how long an under-marked mutation could hide.
const ORACLE_EVERY: u64 = 64;

/// Observer coverage counters, surfaced through
/// [`ProtocolMetrics`](crate::metrics::ProtocolMetrics) so soak reports
/// show what the invariant observer actually looked at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverStats {
    /// Sampled incremental sweeps run (oracle sweeps included).
    pub sweeps: u64,
    /// Full-deployment oracle sweeps run (a subset of `sweeps` plus the
    /// run-return / `check_invariants` sweeps).
    pub full_sweeps: u64,
    /// Cumulative entity states scanned across all sweeps.
    pub entities_checked: u64,
    /// Largest dirty set (host pages + device pages + structural marks)
    /// drained by a single sweep.
    pub dirty_high_water: u64,
    /// The current sampling stride (events between sampled sweeps).
    pub effective_stride: u64,
}

/// Labels every device with the connected component it sits in on the
/// fabric graph induced by `views` — alive devices joined through
/// their live ports (physical ∩ view port set) — in one pass over the
/// wiring. `None` for a device that is dead or portless in `views`: it
/// shares a component with nobody.
///
/// The election computes the spanning tree of the *electing device's*
/// component, so two view-identical devices must agree on the tree only
/// when they share a component: after a partition, devices on opposite
/// sides may hold byte-identical views (the same obituaries and port
/// sets, gossiped before the cut or derived independently) yet each
/// correctly elects the tree of its own island.
fn component_labels(topology: &BridgeTopology, views: &[DeviceView]) -> Vec<Option<u32>> {
    let live = |d: usize, s: usize| views[d].ports.contains(s);
    let alive = |d: usize| views[d].alive && topology.ports(d).iter().any(|&s| live(d, s));
    let mut labels = vec![None; topology.bridges()];
    let mut seen_s = vec![false; topology.segments()];
    let mut components = 0u32;
    for start in 0..topology.bridges() {
        if labels[start].is_some() || !alive(start) {
            continue;
        }
        labels[start] = Some(components);
        let mut queue = vec![start];
        while let Some(x) = queue.pop() {
            for &s in topology.ports(x) {
                if seen_s[s] || !live(x, s) {
                    continue;
                }
                seen_s[s] = true;
                for &y in topology.bridges_on(s) {
                    if labels[y].is_none() && alive(y) && live(y, s) {
                        labels[y] = Some(components);
                        queue.push(y);
                    }
                }
            }
        }
        components += 1;
    }
    labels
}

/// Cross-layer invariant checker with monotonicity watermarks.
///
/// The watermarks make the sweeps *temporal*: a generation or election
/// epoch that moves backwards between two sweeps is caught even though
/// each individual snapshot looks self-consistent. The holder map makes
/// them *incremental*: invariant (a) is a whole-deployment property,
/// but the map lets a sweep re-judge a page from O(1) state when any
/// replica of it moves (see the module docs).
pub(super) struct Observer {
    enabled: bool,
    /// Sweep every `stride` popped events (1 = every event). Unless
    /// pinned by `METHER_OBSERVE_EVERY`, each sweep retunes this from
    /// its own measured size, so the amortised overhead per event stays
    /// bounded whether the deployment is 2 hosts or 1024.
    stride: u64,
    /// A fixed stride from `METHER_OBSERVE_EVERY`, disabling retuning.
    fixed_stride: Option<u64>,
    /// `METHER_OBSERVE_DIFF=1`: every oracle sweep asserts the
    /// incremental holder map equals the rebuilt one instead of
    /// silently adopting it.
    diff: bool,
    counter: u64,
    /// Cost of the last full sweep, for the oracle share of the stride
    /// retune.
    last_full_cost: u64,
    /// Incrementally-maintained page → consistent holders map (the
    /// derived state behind invariant (a)); at most one entry per page,
    /// or the sweep that saw the second holder has already panicked.
    holders: HashMap<u32, Vec<usize>>,
    /// Per-(host, page) newest generation seen by any sweep.
    host_gens: HashMap<(usize, u32), Generation>,
    /// Per-(device, page): the device life (restart count), election
    /// epoch, and newest-generation gate at the last sweep. The gate is
    /// only monotone within one (life, epoch) — `flush_port` resets it
    /// so post-reconvergence data may re-teach an older generation, and
    /// every flush bumps the epoch.
    device_gens: HashMap<(usize, u32), (u64, u64, Generation)>,
    /// Per-device (life, election epoch) at the last sweep.
    device_epochs: HashMap<usize, (u64, u64)>,
    stats: ObserverStats,
}

impl Default for Observer {
    fn default() -> Self {
        Observer {
            enabled: false,
            stride: 1,
            fixed_stride: None,
            diff: false,
            counter: 0,
            last_full_cost: 0,
            holders: HashMap::new(),
            host_gens: HashMap::new(),
            device_gens: HashMap::new(),
            device_epochs: HashMap::new(),
            stats: ObserverStats::default(),
        }
    }
}

impl Observer {
    /// The observer for an `hosts`-host deployment, gated by
    /// `METHER_OBSERVE` / `debug_assertions`; `METHER_OBSERVE_EVERY`
    /// pins the sampling stride (1 = sweep after every event),
    /// otherwise sweeps self-tune their frequency to their measured
    /// cost. `METHER_OBSERVE_DIFF=1` turns oracle sweeps differential.
    pub(super) fn from_env(hosts: usize) -> Observer {
        let _ = hosts;
        let enabled = match std::env::var("METHER_OBSERVE") {
            Ok(v) => {
                let v = v.trim();
                !(v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
            }
            Err(_) => cfg!(debug_assertions),
        };
        let fixed_stride = std::env::var("METHER_OBSERVE_EVERY")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0);
        let diff = std::env::var("METHER_OBSERVE_DIFF").is_ok_and(|v| {
            let v = v.trim();
            !(v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
        });
        Observer {
            enabled,
            stride: fixed_stride.unwrap_or(1),
            fixed_stride,
            diff,
            ..Observer::default()
        }
    }

    /// Whether per-event checks and sweeps are active.
    pub(super) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Coverage counters so far.
    pub(super) fn stats(&self) -> ObserverStats {
        let mut s = self.stats;
        s.effective_stride = self.stride;
        s
    }

    /// Counts one popped event; true when a sampled sweep is due.
    pub(super) fn on_event(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        self.counter += 1;
        self.counter.is_multiple_of(self.stride)
    }

    /// One sampled sweep: incremental over the drained dirty sets, with
    /// every [`ORACLE_EVERY`]th sweep escalated to the full oracle.
    /// Panics with a diagnostic on the first contradiction found.
    pub(super) fn sweep_sampled(
        &mut self,
        hosts: &mut [&mut HostSim],
        fabric: Option<&mut Fabric>,
        now: SimTime,
    ) {
        if self.stats.sweeps % ORACLE_EVERY == ORACLE_EVERY - 1 {
            self.sweep_full(hosts, fabric, now);
            return;
        }
        let cost = self.sweep_incremental(hosts, fabric, now);
        self.retune(cost);
    }

    /// One incremental sweep regardless of the oracle cadence — the
    /// benchmark hook behind [`Simulation::sweep_dirty`](super::Simulation::sweep_dirty).
    pub(super) fn sweep_incremental_forced(
        &mut self,
        hosts: &mut [&mut HostSim],
        fabric: Option<&mut Fabric>,
        now: SimTime,
    ) {
        let cost = self.sweep_incremental(hosts, fabric, now);
        self.retune(cost);
    }

    fn retune(&mut self, incremental_cost: u64) {
        if self.fixed_stride.is_none() {
            // Space sweeps so the amortised cost (incremental sweep
            // plus this stride's share of the periodic oracle) lands
            // around a handful of checks per popped event. The floor
            // matters as much as the scaling: even a tiny sweep pays
            // fixed setup (collecting host refs, hash traffic), so
            // sweeping a 2-host spin loop every event would cost 10x
            // the events themselves.
            let amortised = incremental_cost + self.last_full_cost / ORACLE_EVERY;
            self.stride = (amortised / 8).max(64);
        }
    }

    /// The full-deployment oracle sweep: drains the dirty sets through
    /// the incremental path (so the holder map is current), then
    /// re-checks every entity from scratch and rebuilds the holder map —
    /// asserting it matches the incremental one under
    /// `METHER_OBSERVE_DIFF=1`, silently adopting the rebuild otherwise.
    /// Panics with a diagnostic on the first contradiction found.
    pub(super) fn sweep_full(
        &mut self,
        hosts: &mut [&mut HostSim],
        mut fabric: Option<&mut Fabric>,
        now: SimTime,
    ) {
        let incr = self.sweep_incremental(hosts, fabric.as_deref_mut(), now);
        let mut cost = self.sweep_hosts_full(hosts, now);
        if let Some(fabric) = fabric {
            cost += self.sweep_fabric_full(fabric, now);
        }
        self.last_full_cost = cost;
        self.stats.full_sweeps += 1;
        self.stats.entities_checked += cost;
        self.retune(incr);
    }

    /// One incremental sweep: drain every dirty set, check only the
    /// drained entities (plus the cross-entity invariants they
    /// participate in). Returns the number of states scanned.
    fn sweep_incremental(
        &mut self,
        hosts: &mut [&mut HostSim],
        fabric: Option<&mut Fabric>,
        now: SimTime,
    ) -> u64 {
        let mut cost = 0u64;
        let mut dirty_total = 0u64;
        // Invariant (a): update the holder map for every dirty
        // (host, page), then re-judge exactly the touched pages. The
        // two-phase shape matters: a consistency transfer dirties both
        // ends, and judging mid-update would see the stale holder and
        // the new one together.
        let mut touched: Vec<u32> = Vec::new();
        for h in hosts.iter_mut() {
            for page in h.table.take_dirty_pages() {
                cost += 1;
                dirty_total += 1;
                let idx = page.index();
                let is_holder = h.table.is_consistent_holder(page);
                if is_holder {
                    assert!(
                        h.table.page_buf(page).is_some(),
                        "invariant (a): host {} holds page {page} consistent \
                         without a buffer at {now}",
                        h.index,
                    );
                }
                let holders = self.holders.entry(idx).or_default();
                let pos = holders.iter().position(|&x| x == h.index);
                match (pos, is_holder) {
                    (Some(i), false) => {
                        holders.remove(i);
                    }
                    (None, true) => {
                        holders.push(h.index);
                        holders.sort_unstable();
                    }
                    _ => {}
                }
                if holders.is_empty() {
                    self.holders.remove(&idx);
                }
                touched.push(idx);
                let gen = h.table.generation(page);
                let key = (h.index, idx);
                if let Some(&seen) = self.host_gens.get(&key) {
                    assert!(
                        !seen.newer_than(gen),
                        "invariant (a): host {} page {page} generation went \
                         backwards ({seen} -> {gen}) at {now}",
                        h.index,
                    );
                }
                self.host_gens.insert(key, gen);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            if let Some(hs) = self.holders.get(&idx) {
                assert!(
                    hs.len() <= 1,
                    "invariant (a): page {} has two consistent holders \
                     (hosts {} and {}) at {now}",
                    PageId::new(idx),
                    hs[0],
                    hs[1],
                );
            }
        }
        if let Some(fabric) = fabric {
            let (dirty_devices, liveness) = fabric.take_dirty();
            let mut rerun_tree = liveness;
            for (d, pages, structural) in dirty_devices {
                dirty_total += pages.len() as u64 + u64::from(structural);
                if structural {
                    rerun_tree = true;
                }
                if fabric.is_dead(d) {
                    continue; // dead devices hold no checkable state
                }
                if structural {
                    cost += self.check_device_structure(fabric, d, now);
                }
                for page in pages {
                    cost += self.check_device_page(fabric, d, page, now);
                }
            }
            if rerun_tree {
                cost += check_tree_consistency(fabric, now);
            }
        }
        self.stats.sweeps += 1;
        self.stats.entities_checked += cost;
        self.stats.dirty_high_water = self.stats.dirty_high_water.max(dirty_total);
        cost
    }

    /// Invariant (a) from scratch: at most one consistent holder per
    /// page across the deployment, holders have buffers, generations
    /// never regress. Rebuilds (and under `diff` cross-checks) the
    /// incremental holder map. Returns the number of states scanned.
    fn sweep_hosts_full(&mut self, hosts: &[&mut HostSim], now: SimTime) -> u64 {
        let mut cost = hosts.len() as u64;
        let mut rebuilt: HashMap<u32, Vec<usize>> = HashMap::new();
        for h in hosts.iter() {
            for page in h.table.tracked_pages() {
                cost += 1;
                let idx = page.index();
                if h.table.is_consistent_holder(page) {
                    assert!(
                        h.table.page_buf(page).is_some(),
                        "invariant (a): host {} holds page {page} consistent \
                         without a buffer at {now}",
                        h.index,
                    );
                    let hs = rebuilt.entry(idx).or_default();
                    if let Some(&other) = hs.first() {
                        panic!(
                            "invariant (a): page {page} has two consistent holders \
                             (hosts {other} and {}) at {now}",
                            h.index,
                        );
                    }
                    hs.push(h.index);
                }
                let gen = h.table.generation(page);
                let key = (h.index, idx);
                if let Some(&seen) = self.host_gens.get(&key) {
                    assert!(
                        !seen.newer_than(gen),
                        "invariant (a): host {} page {page} generation went \
                         backwards ({seen} -> {gen}) at {now}",
                        h.index,
                    );
                }
                self.host_gens.insert(key, gen);
            }
        }
        if self.diff {
            assert!(
                self.holders == rebuilt,
                "differential oracle: the incremental holder map diverged from \
                 the full rebuild at {now} — some holder mutation site is not \
                 dirty-marked.\n incremental: {:?}\n rebuilt: {:?}",
                {
                    let mut v: Vec<_> = self.holders.iter().collect();
                    v.sort();
                    v
                },
                {
                    let mut v: Vec<_> = rebuilt.iter().collect();
                    v.sort();
                    v
                },
            );
        }
        self.holders = rebuilt;
        cost
    }

    /// Invariants (b)–(d) over every live bridge device, from scratch.
    /// Returns the number of device/page/route states scanned.
    fn sweep_fabric_full(&mut self, fabric: &Fabric, now: SimTime) -> u64 {
        let mut cost = 0u64;
        for d in 0..fabric.device_count() {
            if fabric.is_dead(d) {
                continue;
            }
            cost += self.check_device_structure(fabric, d, now);
            for page in fabric.device(d).policy().tracked_pages() {
                cost += self.check_device_page(fabric, d, page, now);
            }
        }
        cost + check_tree_consistency(fabric, now)
    }

    /// The per-device structural block of invariants (b)/(d): port-set
    /// containments, next-hop sanity, election-epoch monotonicity,
    /// hold-down coverage. Returns the number of states scanned.
    fn check_device_structure(&mut self, fabric: &Fabric, d: usize, now: SimTime) -> u64 {
        let topology = fabric.topology();
        let segments = topology.segments();
        let policy = fabric.device(d).policy();
        let ports_mask = policy.ports_mask();
        let live = policy.self_live_ports();
        let fwd = policy.active().forwarding(d);
        // (d) structural: live ⊆ physical, forwarding ⊆ live.
        assert!(
            live.intersection(ports_mask) == live,
            "invariant (d): device {d} live ports {live:?} exceed its \
             physical ports at {now}"
        );
        assert!(
            fwd.intersection(&live) == fwd,
            "invariant (d): device {d} forwards on {fwd:?} beyond its \
             live ports {live:?} at {now}"
        );
        // (d) next hops leave through forwarding ports.
        for dst in 0..segments {
            if let Some(hop) = policy.active().next_hop(d, dst) {
                assert!(
                    fwd.contains(hop),
                    "invariant (d): device {d} routes toward segment {dst} \
                     out port {hop}, which is not forwarding, at {now}"
                );
            }
        }
        // (d) election epochs only advance within one device life.
        let life = fabric.restarts(d);
        let epoch = policy.election_epoch();
        if let Some(&(seen_life, seen_epoch)) = self.device_epochs.get(&d) {
            assert!(
                life != seen_life || epoch >= seen_epoch,
                "invariant (d): device {d} election epoch went backwards \
                 ({seen_epoch} -> {epoch}) within one life at {now}"
            );
        }
        self.device_epochs.insert(d, (life, epoch));
        // (b) hold-downs only cover physical ports.
        let held = policy.held_ports(now);
        assert!(
            held.intersection(ports_mask) == held,
            "invariant (b): device {d} holds down {held:?} beyond its \
             physical ports at {now}"
        );
        1 + segments as u64
    }

    /// The per-(device, page) block of invariants (b)/(c): belief and
    /// interest containments, stamp-table coverage and clock bounds,
    /// home-port persistence, the newest-generation watermark. Returns
    /// the number of states scanned.
    fn check_device_page(&mut self, fabric: &Fabric, d: usize, page: PageId, now: SimTime) -> u64 {
        let topology = fabric.topology();
        let segments = topology.segments();
        let nports = topology.ports(d).len();
        let policy = fabric.device(d).policy();
        let ports_mask = policy.ports_mask();
        let clock = policy.aging_clock();
        let learned = policy.learned(page);
        assert!(
            learned.intersection(ports_mask) == learned,
            "invariant (b): device {d} learned interest for page \
             {page} on {learned:?}, beyond its physical ports, at {now}"
        );
        if let Some(hp) = policy.holder_port(page) {
            assert!(
                ports_mask.contains(hp),
                "invariant (b): device {d} believes page {page}'s \
                 holder is out port {hp}, which it does not have, at {now}"
            );
        }
        for seg in &policy.pinned_segs(page) {
            assert!(
                seg < segments,
                "invariant (b): device {d} pins page {page} to \
                 nonexistent segment {seg} at {now}"
            );
        }
        let stamps = policy.stamps(page).unwrap_or(&[]);
        assert_eq!(
            stamps.len(),
            nports,
            "invariant (c): device {d} page {page} stamp table does \
             not cover its ports at {now}"
        );
        // (The stamps' *sim-time* component may legitimately sit
        // a frame-flight ahead of the sweep instant — the policy
        // learns at arrival time when the pickup is scheduled —
        // so only the device-local clock is comparable here.)
        for (i, sc) in stamps.iter().map(|s| s.clock).enumerate() {
            assert!(
                sc <= clock,
                "invariant (c): device {d} page {page} port-index {i} \
                 demand stamp (clock {sc}) is ahead of the device \
                 clock {clock} at {now}"
            );
        }
        // (c) the home port never ages out of the interest mask.
        if let Some(home) = policy.home_port(page) {
            assert!(
                policy.interest(page, now).contains(home),
                "invariant (c): device {d} aged page {page}'s home \
                 port {home} out of its interest mask at {now}"
            );
        }
        // (b) the newest-generation gate is monotone within one
        // (life, election epoch); a flush resets it and always
        // bumps the epoch, a revival resets the life.
        let life = fabric.restarts(d);
        let epoch = policy.election_epoch();
        if let Some(gen) = policy.newest_gen(page) {
            let key = (d, page.index());
            if let Some(&(sl, se, sg)) = self.device_gens.get(&key) {
                assert!(
                    sl != life || se != epoch || !sg.newer_than(gen),
                    "invariant (b): device {d} page {page} newest-gen \
                     gate went backwards ({sg} -> {gen}) within one \
                     election epoch at {now}"
                );
            }
            self.device_gens.insert(key, (life, epoch, gen));
        } else {
            self.device_gens.remove(&(d, page.index()));
        }
        1 + nports as u64
    }
}

/// Invariant (d) determinism: live devices with identical gossiped
/// views *in the same component* must have elected identical trees —
/// view-identical devices separated by a partition legitimately elect
/// their own islands' trees. Devices are first sorted into classes of
/// equal view tables (the very same table, by address, before any
/// element is compared: a fabric that never diverged is one class at
/// one pointer test per device); a class is labelled by component
/// **once**, when its second member turns up; and each device's tree is
/// then held against the one representative of its (views, component)
/// group, again by address before by value. Returns the number of
/// states scanned.
fn check_tree_consistency(fabric: &Fabric, now: SimTime) -> u64 {
    /// The live devices holding one (value of the) view table.
    struct ViewClass<'a> {
        views: &'a [DeviceView],
        /// The first member seen of each component so far.
        reps: Vec<usize>,
        /// `component_labels(views)`, from the second member on.
        labels: Option<Vec<Option<u32>>>,
    }
    let topology = fabric.topology();
    let mut classes: Vec<ViewClass> = Vec::new();
    let mut cost = 0u64;
    for d in (0..fabric.device_count()).filter(|&d| !fabric.is_dead(d)) {
        let policy = fabric.device(d).policy();
        let views = policy.views();
        if !views[d].alive {
            continue; // a device dead in its own view elects nothing
        }
        cost += 1 + classes.len() as u64;
        let Some(class) = classes
            .iter_mut()
            .find(|c| std::ptr::eq(c.views, views) || c.views == views)
        else {
            classes.push(ViewClass {
                views,
                reps: vec![d],
                labels: None,
            });
            continue;
        };
        let labels = class.labels.get_or_insert_with(|| {
            cost += (topology.bridges() + topology.segments()) as u64;
            component_labels(topology, views)
        });
        let peer = labels[d].and_then(|l| class.reps.iter().find(|&&g| labels[g] == Some(l)));
        let Some(&g) = peer else {
            class.reps.push(d);
            continue;
        };
        let elected = fabric.device(g).policy().active();
        assert!(
            std::ptr::eq(elected, policy.active()) || elected == policy.active(),
            "invariant (d): devices {g} and {d} share identical \
             views and a component but elected different active \
             trees at {now}"
        );
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-pass labelling against the definition it replaced a
    /// per-pair search with: two devices share a label exactly when both
    /// are alive with a live port and a walk over live ports joins them.
    #[test]
    fn component_labels_partition_a_cut_ring() {
        // Ring of 4 (device i joins segments i and i+1 mod 4): device 0
        // is dead and device 1 has lost its port on segment 2, so
        // device 1 is an island on segment 1 while 2 and 3 still meet
        // on segment 3.
        let t = BridgeTopology::ring(4);
        let mut views = t.fresh_views();
        views[0].alive = false;
        views[1].ports.remove(2);
        let labels = component_labels(&t, &views);
        assert_eq!(labels[0], None, "the dead share a component with nobody");
        assert!(labels[1].is_some() && labels[2].is_some());
        assert_ne!(labels[1], labels[2], "cut apart");
        assert_eq!(labels[2], labels[3], "still joined on segment 3");
        // A device with no live port left is as good as dead.
        views[1].ports.remove(1);
        assert_eq!(component_labels(&t, &views)[1], None);
        // Healthy: one component.
        let healthy = component_labels(&t, &t.fresh_views());
        assert!(healthy.iter().all(|&l| l == Some(0)));
    }
}
