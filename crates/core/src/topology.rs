//! How bridged segments are wired together: **physical links** versus
//! the **active forwarding tree**.
//!
//! One filtering bridge joining every segment (PR 3's star) is itself a
//! scaling ceiling — every cross-segment frame serialises through one
//! device — and a fabric whose wiring is a tree *by construction* is a
//! resilience ceiling too: it can neither carry redundant links nor
//! survive a bridge failure. Real bridged Ethernets of the era solved
//! both with one mechanism: wire the bridges as an arbitrary connected
//! graph (redundancy welcome), and let a *spanning-tree protocol* —
//! Perlman-style, IEEE 802.1D — elect which ports forward and which
//! block, so the *active* topology is always a loop-free tree even
//! though the *physical* one is not.
//!
//! This module keeps the two layers separate:
//!
//! * [`BridgeTopology`] describes the **physical links**: which bridge
//!   devices exist and which segments each attaches to (its *ports*).
//!   The incidence graph (segments ∪ bridges, one edge per port) must be
//!   **connected**; it may contain cycles. Trees remain the common case
//!   ([`BridgeTopology::star`], [`BridgeTopology::chain`],
//!   [`BridgeTopology::balanced_tree`]), and redundant wirings come from
//!   [`BridgeTopology::ring`], [`BridgeTopology::mesh2d`], and
//!   [`BridgeTopology::add_redundant_links`].
//! * [`ActiveTree`] is the **active forwarding tree**: per-device
//!   [`PortState::Forwarding`] / [`PortState::Blocked`] port states plus
//!   next-hop tables *derived from the forwarding ports at election
//!   time*, not precomputed from the wiring. It is produced by
//!   [`BridgeTopology::elect`] — a deterministic spanning-tree election
//!   over a set of per-device liveness beliefs ([`DeviceView`]) — so
//!   every device that holds the same beliefs derives the same tree, and
//!   a device that learns of a failure (via the hello/TC gossip the
//!   bridge layer runs on the wire) re-elects locally and converges with
//!   its peers.
//!
//! The election follows 802.1D's shape: the **root** is the alive bridge
//! with the lowest `(priority, device id)`; every other bridge forwards
//! on its **root port** (its port closest to the root, lowest segment id
//! tie-break); every segment is served by its **designated bridge** (the
//! incident alive bridge closest to the root, `(priority, id)`
//! tie-break). Forwarding ports are exactly root ports plus designated
//! ports, which yields a spanning tree of the alive component — the
//! property tests in `tests/tests/bridge_fabric.rs` pin this on random
//! connected graphs, and pin that on a tree with uniform priorities the
//! election reproduces the physical wiring port for port (which is what
//! keeps the `Static` election mode byte-identical to the PR 4
//! tree-only fabric).
//!
//! [`BridgeTopology::next_hop`] and [`BridgeTopology::path`] remain for
//! tree topologies (where the unique-path guarantee makes them
//! well-defined); graph topologies must go through an [`ActiveTree`].

use crate::addr::HostMask;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A connected graph of bridge devices joining Ethernet segments.
///
/// Construct with [`BridgeTopology::star`], [`BridgeTopology::chain`],
/// [`BridgeTopology::balanced_tree`], [`BridgeTopology::ring`],
/// [`BridgeTopology::mesh2d`], or [`BridgeTopology::from_links`]; every
/// constructor validates connectivity. Redundant links (cycles) are
/// allowed; [`BridgeTopology::is_tree`] reports whether any exist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BridgeTopology {
    segments: usize,
    /// `links[b]` = the segments bridge `b` attaches to (its ports),
    /// sorted ascending.
    links: Vec<Vec<usize>>,
    /// `incident[s]` = the bridges attached to segment `s`, ascending.
    incident: Vec<Vec<usize>>,
    /// `next[b][dst]` = the port of bridge `b` on the unique tree path
    /// toward segment `dst` — populated **only when the graph is a
    /// tree** (unique paths exist); empty otherwise.
    next: Vec<Vec<u16>>,
}

/// Sentinel for "no hop": the destination is unreachable through the
/// active tree (a partitioned segment).
const NO_HOP: u16 = u16::MAX;

impl BridgeTopology {
    /// One bridge attached to every segment — PR 3's star, and the
    /// degenerate 1-segment case (a single-port bridge that hears its
    /// segment and forwards nothing, kept so a "segmented" 1-segment
    /// deployment still reports bridge counters).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn star(segments: usize) -> Self {
        assert!(segments > 0, "a topology needs at least one segment");
        Self::from_links(segments, vec![(0..segments).collect()])
            .expect("a star over 1.. segments is always a tree")
    }

    /// `segments − 1` two-port bridges in a line: bridge `i` joins
    /// segments `i` and `i + 1`. The deepest topology — worst-case hop
    /// count, best-case per-device fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2` (a 1-segment chain has no bridge to
    /// build; use [`BridgeTopology::star`]).
    pub fn chain(segments: usize) -> Self {
        assert!(segments >= 2, "a chain needs at least two segments");
        Self::from_links(
            segments,
            (0..segments - 1).map(|i| vec![i, i + 1]).collect(),
        )
        .expect("a chain is always a tree")
    }

    /// A balanced tree of segments: segment `k`'s parent is segment
    /// `(k − 1) / fanout` (heap order), one bridge per internal segment
    /// joining it to its children. `fanout ≥ segments − 1` reproduces
    /// the star; `fanout = 1` reproduces the chain.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or `fanout` is zero.
    pub fn balanced_tree(segments: usize, fanout: usize) -> Self {
        assert!(segments > 0, "a topology needs at least one segment");
        assert!(fanout > 0, "a tree needs a non-zero fanout");
        if segments == 1 {
            return Self::star(1);
        }
        let mut links: Vec<Vec<usize>> = Vec::new();
        for parent in 0..segments {
            let first_child = parent * fanout + 1;
            if first_child >= segments {
                break;
            }
            let mut ports = vec![parent];
            ports.extend(first_child..(first_child + fanout).min(segments));
            links.push(ports);
        }
        Self::from_links(segments, links).expect("heap-parent wiring is always a tree")
    }

    /// A ring: `segments` two-port bridges, bridge `i` joining segments
    /// `i` and `(i + 1) % segments`. The chain plus **one redundant
    /// link** closing the cycle — the smallest fabric that can survive
    /// any single bridge failure, and the canonical topology of the
    /// reconvergence experiments.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2`.
    pub fn ring(segments: usize) -> Self {
        assert!(segments >= 2, "a ring needs at least two segments");
        Self::from_links(
            segments,
            (0..segments).map(|i| vec![i, (i + 1) % segments]).collect(),
        )
        .expect("a ring is connected")
    }

    /// A 2-D mesh of `rows × cols` segments (row-major segment ids),
    /// with a two-port bridge between each pair of horizontal and
    /// vertical neighbours — `(rows−1)·cols + rows·(cols−1)` devices,
    /// and a redundant link for every face of the grid.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or if the mesh is a single
    /// segment (no bridge to build; use [`BridgeTopology::star`]).
    pub fn mesh2d(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "a mesh needs non-zero dimensions");
        assert!(rows * cols >= 2, "a 1x1 mesh has no bridge; use star(1)");
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let s = r * cols + c;
                if c + 1 < cols {
                    links.push(vec![s, s + 1]);
                }
                if r + 1 < rows {
                    links.push(vec![s, s + cols]);
                }
            }
        }
        Self::from_links(rows * cols, links).expect("a grid is connected")
    }

    /// A random-tree family from a parent vector: segment `k` (k ≥ 1)
    /// attaches under parent `parents[k-1] % k` (the modulo makes *any*
    /// integer vector a valid wiring), and the children of each parent
    /// are grouped into one multi-port bridge. Every such wiring is a
    /// connected tree, and the family covers stars (all parents 0),
    /// chains (parent k−1 each), and everything between — the generator
    /// the fabric property tests draw from, promoted here so soak
    /// harnesses reuse it instead of duplicating it. Thread redundancy
    /// through the result with [`BridgeTopology::add_redundant_links`].
    ///
    /// An empty `parents` builds the 1-segment topology (a single
    /// 1-port device — normalised to the flat wiring by consumers).
    pub fn from_parents(parents: &[usize]) -> Self {
        let segments = parents.len() + 1;
        if segments == 1 {
            return Self::star(1);
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); segments];
        for (k, &p) in parents.iter().enumerate() {
            children[p % (k + 1)].push(k + 1);
        }
        let links: Vec<Vec<usize>> = (0..segments)
            .filter(|&p| !children[p].is_empty())
            .map(|p| {
                let mut ports = vec![p];
                ports.extend(children[p].iter().copied());
                ports
            })
            .collect();
        Self::from_links(segments, links).expect("parent wiring is always a tree")
    }

    /// This topology with extra bridge devices appended — the way to
    /// thread **redundant links** through an existing tree (e.g. a
    /// balanced tree plus one leaf-to-leaf tie bridge). Each entry is
    /// one new device's port list; the combined graph is re-validated
    /// (connected, every port in range).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] if a new device's ports
    /// are invalid (out of range, duplicate, fewer than two).
    pub fn add_redundant_links(&self, extra: Vec<Vec<usize>>) -> crate::Result<Self> {
        let mut links = self.links.clone();
        links.extend(extra);
        Self::from_links(self.segments, links)
    }

    /// A topology from explicit bridge→segments attachment lists.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidConfig`] unless the incidence graph
    /// is **connected** and covers every segment: every port in range and
    /// listed once per bridge, every bridge with ≥ 2 ports (≥ 1 when
    /// `segments == 1`), every segment and bridge reachable. Cycles
    /// (redundant links) are allowed; the forwarding layer runs a
    /// spanning-tree election ([`BridgeTopology::elect`]) to stay
    /// loop-free.
    pub fn from_links(segments: usize, links: Vec<Vec<usize>>) -> crate::Result<Self> {
        if segments == 0 {
            return Err(crate::Error::InvalidConfig(
                "a topology needs at least one segment".into(),
            ));
        }
        if segments > 1 && links.is_empty() {
            return Err(crate::Error::InvalidConfig(
                "multiple segments need at least one bridge".into(),
            ));
        }
        let min_ports = if segments == 1 { 1 } else { 2 };
        let mut links: Vec<Vec<usize>> = links
            .into_iter()
            .map(|mut ports| {
                ports.sort_unstable();
                ports
            })
            .collect();
        let mut edges = 0usize;
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); segments];
        for (b, ports) in links.iter().enumerate() {
            if ports.len() < min_ports {
                return Err(crate::Error::InvalidConfig(format!(
                    "bridge {b} has {} port(s); needs at least {min_ports}",
                    ports.len()
                )));
            }
            for w in ports.windows(2) {
                if w[0] == w[1] {
                    return Err(crate::Error::InvalidConfig(format!(
                        "bridge {b} lists segment {} twice",
                        w[0]
                    )));
                }
            }
            for &s in ports {
                if s >= segments {
                    return Err(crate::Error::InvalidConfig(format!(
                        "bridge {b} attaches to segment {s} >= {segments}"
                    )));
                }
                incident[s].push(b);
                edges += 1;
            }
        }
        // Connectivity check over the bipartite incidence graph: BFS from
        // segment 0 must reach every segment and bridge. (A connected
        // graph has ≥ |vertices| − 1 edges; equality makes it a tree.)
        let bridges = links.len();
        let mut seg_seen = vec![false; segments];
        let mut br_seen = vec![false; bridges];
        let mut queue = vec![0usize]; // segment indices
        seg_seen[0] = true;
        while let Some(s) = queue.pop() {
            for &b in &incident[s] {
                if !br_seen[b] {
                    br_seen[b] = true;
                    for &t in &links[b] {
                        if !seg_seen[t] {
                            seg_seen[t] = true;
                            queue.push(t);
                        }
                    }
                }
            }
        }
        if seg_seen.iter().any(|s| !s) || br_seen.iter().any(|b| !b) {
            return Err(crate::Error::InvalidConfig(
                "bridge topology is not connected".into(),
            ));
        }
        // Next-hop tables exist only for trees, where the unique-path
        // guarantee makes them canonical: for each destination segment,
        // walk the tree outward from it; the port a bridge was first
        // reached through is its (unique) port toward that destination.
        // Graphs leave `next` empty — forwarding tables are derived from
        // the elected ActiveTree at runtime instead.
        let is_tree = edges == segments + bridges - 1;
        let mut next: Vec<Vec<u16>> = Vec::new();
        if is_tree {
            next = vec![vec![0; segments]; bridges];
            for dst in 0..segments {
                let mut seg_done = vec![false; segments];
                let mut br_done = vec![false; bridges];
                seg_done[dst] = true;
                let mut frontier = vec![dst];
                while let Some(s) = frontier.pop() {
                    for &b in &incident[s] {
                        if br_done[b] {
                            continue;
                        }
                        br_done[b] = true;
                        next[b][dst] = s as u16;
                        for &t in &links[b] {
                            if !seg_done[t] {
                                seg_done[t] = true;
                                frontier.push(t);
                            }
                        }
                    }
                }
            }
        }
        links.iter_mut().for_each(|p| p.shrink_to_fit());
        Ok(BridgeTopology {
            segments,
            links,
            incident,
            next,
        })
    }

    /// Number of segments the topology wires together.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of bridge devices.
    pub fn bridges(&self) -> usize {
        self.links.len()
    }

    /// The segments bridge `b` attaches to (its ports), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn ports(&self, b: usize) -> &[usize] {
        &self.links[b]
    }

    /// The bridges attached to segment `seg`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn bridges_on(&self, seg: usize) -> &[usize] {
        &self.incident[seg]
    }

    /// True when the incidence graph is a tree (no redundant links).
    pub fn is_tree(&self) -> bool {
        !self.next.is_empty() || self.links.is_empty()
    }

    /// The port of bridge `b` on the unique tree path toward segment
    /// `dst` (the segment itself when `dst` is incident to `b`).
    ///
    /// Tree topologies only — on a graph there is no *unique* path and
    /// the forwarding direction is election state, not wiring; use
    /// [`BridgeTopology::elect`] and [`ActiveTree::next_hop`].
    ///
    /// # Panics
    ///
    /// Panics if `b` or `dst` is out of range, or if the topology has
    /// redundant links.
    pub fn next_hop(&self, b: usize, dst: usize) -> usize {
        assert!(dst < self.segments, "segment {dst} >= {}", self.segments);
        assert!(
            self.is_tree(),
            "next_hop is tree-only; elect() an ActiveTree on graph topologies"
        );
        self.next[b][dst] as usize
    }

    /// True for a single-device topology (every segment on one bridge).
    pub fn is_star(&self) -> bool {
        self.links.len() == 1
    }

    /// The unique bridge path from segment `src` to segment `dst`, as
    /// `(bridge, egress segment)` hops. Empty when `src == dst`.
    /// Simulates hop-by-hop next-hop forwarding, so tests can pin that
    /// the derived tables walk exactly the tree path. Tree-only, like
    /// [`BridgeTopology::next_hop`].
    ///
    /// # Panics
    ///
    /// Panics if either segment is out of range, or on a non-tree
    /// topology.
    pub fn path(&self, src: usize, dst: usize) -> Vec<(usize, usize)> {
        assert!(src < self.segments, "segment {src} >= {}", self.segments);
        assert!(dst < self.segments, "segment {dst} >= {}", self.segments);
        let mut hops = Vec::new();
        let mut here = src;
        while here != dst {
            // The bridge incident to `here` whose next hop toward dst is
            // not `here` itself carries the frame onward; the tree
            // property makes it unique.
            let (b, out) = self.incident[here]
                .iter()
                .filter_map(|&b| {
                    let out = self.next_hop(b, dst);
                    (out != here).then_some((b, out))
                })
                .next()
                .expect("tree is connected, so some incident bridge leads onward");
            hops.push((b, out));
            here = out;
        }
        hops
    }

    /// The optimistic initial beliefs: every device alive on all its
    /// physical ports, version 0. What a freshly-booted device assumes
    /// until hellos teach it otherwise, and what the `Static` election
    /// mode elects over once at construction.
    pub fn fresh_views(&self) -> Vec<DeviceView> {
        (0..self.bridges())
            .map(|d| DeviceView {
                version: 0,
                alive: true,
                ports: self.links[d].iter().copied().collect(),
            })
            .collect()
    }

    /// Runs the deterministic spanning-tree election over `views`, as
    /// seen by bridge `observer` (the election is restricted to the
    /// connected component of alive devices containing the observer, so
    /// a partitioned fabric elects one root per partition — exactly what
    /// per-partition forwarding needs).
    ///
    /// `priorities[d]` is device `d`'s configured bridge priority (lower
    /// wins; missing entries default to 0); ties break on device id.
    /// Every device with the same beliefs computes the same tree, which
    /// is what lets each device derive its own port states and next-hop
    /// tables locally from gossiped liveness.
    ///
    /// # Panics
    ///
    /// Panics if `observer` is out of range or `views` has the wrong
    /// length. (A topology without devices elects the empty tree for
    /// any observer.)
    pub fn elect(&self, priorities: &[u64], views: &[DeviceView], observer: usize) -> ActiveTree {
        self.elect_unless_same(priorities, views, observer, None)
            .expect("with no previous tree every election is a change")
    }

    /// [`BridgeTopology::elect`] with an incremental fast path: `None`
    /// when the election over `views` produces the same root and the
    /// same per-device forwarding masks as `prev` — the caller keeps the
    /// tree it holds, untouched and uncopied — and `Some(new tree)`
    /// otherwise. The next-hop tables are a pure function of the
    /// forwarding ports, so an unchanged port map means unchanged
    /// tables, and the expensive derivation (one tree walk per
    /// destination segment) is skipped.
    ///
    /// This is the common case by a wide margin: every hello merge that
    /// bumps a version (without changing anyone's liveness or ports)
    /// triggers a re-election, and on a 256-device mesh nearly all of
    /// them re-elect the identical tree. The fast path turns those from
    /// `O(segments × graph)` into `O(graph)`.
    ///
    /// # Panics
    ///
    /// As [`BridgeTopology::elect`].
    pub fn elect_from(
        &self,
        priorities: &[u64],
        views: &[DeviceView],
        observer: usize,
        prev: &ActiveTree,
    ) -> Option<ActiveTree> {
        self.elect_unless_same(priorities, views, observer, Some(prev))
    }

    /// The election proper: `None` exactly when `prev` is given and the
    /// elected tree equals it.
    fn elect_unless_same(
        &self,
        priorities: &[u64],
        views: &[DeviceView],
        observer: usize,
        prev: Option<&ActiveTree>,
    ) -> Option<ActiveTree> {
        let nb = self.bridges();
        let ns = self.segments;
        assert_eq!(views.len(), nb, "one view per device");
        let same_as_prev = |root: Option<usize>, forwarding: &[HostMask]| {
            prev.is_some_and(|p| p.root == root && p.forwarding == forwarding)
        };
        if nb == 0 {
            // Nobody to elect: the empty tree, whoever asks.
            return (!same_as_prev(None, &[])).then(|| ActiveTree {
                root: None,
                forwarding: Vec::new(),
                next: Vec::new(),
            });
        }
        assert!(observer < nb, "observer {observer} out of range");
        let prio = |d: usize| priorities.get(d).copied().unwrap_or(0);
        // A device participates on its live ports only (physical ports
        // minus injected/believed link failures).
        let live: Vec<HostMask> = (0..nb)
            .map(|d| {
                let physical: HostMask = self.links[d].iter().copied().collect();
                physical.intersection(&views[d].ports)
            })
            .collect();
        let alive: Vec<bool> = (0..nb)
            .map(|d| views[d].alive && !live[d].is_empty())
            .collect();
        if !alive[observer] {
            // A dead observer forwards nothing.
            let forwarding = vec![HostMask::EMPTY; nb];
            if same_as_prev(None, &forwarding) {
                return None;
            }
            return Some(ActiveTree {
                root: None,
                forwarding,
                next: vec![vec![NO_HOP; ns]; nb],
            });
        }
        let mut tree = ActiveTree {
            root: None,
            forwarding: vec![HostMask::EMPTY; nb],
            next: Vec::new(),
        };
        // The observer's component over alive devices and live links.
        let mut comp_b = vec![false; nb];
        let mut comp_s = vec![false; ns];
        comp_b[observer] = true;
        let mut queue: Vec<usize> = vec![observer]; // bridge indices
        while let Some(b) = queue.pop() {
            for s in &live[b] {
                if comp_s[s] {
                    continue;
                }
                comp_s[s] = true;
                for &nb2 in &self.incident[s] {
                    if !comp_b[nb2] && alive[nb2] && live[nb2].contains(s) {
                        comp_b[nb2] = true;
                        queue.push(nb2);
                    }
                }
            }
        }
        // Root: lowest (priority, device id) in the component.
        let root = (0..nb)
            .filter(|&d| comp_b[d])
            .min_by_key(|&d| (prio(d), d))
            .expect("observer is in its own component");
        tree.root = Some(root);
        // BFS distances from the root over the alive incidence graph
        // (bridges at even distance, segments at odd).
        let mut dist_b: Vec<Option<u32>> = vec![None; nb];
        let mut dist_s: Vec<Option<u32>> = vec![None; ns];
        dist_b[root] = Some(0);
        let mut bfs: VecDeque<(bool, usize)> = VecDeque::new(); // (is_segment, idx)
        bfs.push_back((false, root));
        while let Some((is_seg, v)) = bfs.pop_front() {
            if is_seg {
                let d = dist_s[v].unwrap();
                for &b in &self.incident[v] {
                    if comp_b[b] && live[b].contains(v) && dist_b[b].is_none() {
                        dist_b[b] = Some(d + 1);
                        bfs.push_back((false, b));
                    }
                }
            } else {
                let d = dist_b[v].unwrap();
                for s in &live[v] {
                    if dist_s[s].is_none() {
                        dist_s[s] = Some(d + 1);
                        bfs.push_back((true, s));
                    }
                }
            }
        }
        // Port states. A bridge forwards on its root port (closest port
        // to the root, lowest segment id tie-break) and on every segment
        // it is the designated bridge for (closest incident bridge,
        // (priority, id) tie-break). Everything else blocks.
        for (s, ds) in dist_s.iter().enumerate() {
            let Some(ds) = *ds else { continue };
            let designated = self.incident[s]
                .iter()
                .copied()
                .filter(|&b| comp_b[b] && live[b].contains(s) && dist_b[b] == Some(ds - 1))
                .min_by_key(|&b| (prio(b), b))
                .expect("a reached segment has a closer bridge");
            tree.forwarding[designated].insert(s);
        }
        for b in 0..nb {
            if !comp_b[b] || b == root {
                continue;
            }
            let db = dist_b[b].unwrap();
            let root_port = live[b]
                .iter()
                .find(|&s| dist_s[s] == Some(db - 1))
                .expect("a reached bridge has a closer port");
            tree.forwarding[b].insert(root_port);
        }
        // The incremental fast path: same root, same forwarding ports —
        // the next-hop tables cannot differ, so skip their derivation.
        if same_as_prev(tree.root, &tree.forwarding) {
            return None;
        }
        // Next-hop tables, derived from the forwarding ports alone: for
        // each destination, walk the active tree outward from it; the
        // forwarding port a bridge is first reached through is its port
        // toward that destination. (On the active tree the walk order
        // is irrelevant — paths are unique.)
        tree.next = vec![vec![NO_HOP; ns]; nb];
        for dst in 0..ns {
            if dist_s[dst].is_none() {
                continue;
            }
            let mut seg_done = vec![false; ns];
            let mut br_done = vec![false; nb];
            seg_done[dst] = true;
            let mut frontier = vec![dst];
            while let Some(s) = frontier.pop() {
                for &b in &self.incident[s] {
                    if br_done[b] || !tree.forwarding[b].contains(s) {
                        continue;
                    }
                    br_done[b] = true;
                    tree.next[b][dst] = s as u16;
                    for t in &tree.forwarding[b] {
                        if !seg_done[t] {
                            seg_done[t] = true;
                            frontier.push(t);
                        }
                    }
                }
            }
        }
        Some(tree)
    }
}

/// The state of one bridge port under the spanning-tree election.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortState {
    /// The port carries data frames (it is a root port or its segment's
    /// designated port).
    Forwarding,
    /// The port is blocked: it neither forwards nor learns — the
    /// redundancy it represents stays dormant until a failure re-elects.
    Blocked,
}

/// One device's gossiped liveness belief about a bridge: carried in
/// hello frames, merged monotonically by version.
///
/// Versioning convention: a device's **self-assertions** use even
/// versions (each self state change — restart, link failure — bumps by
/// 2); a neighbour declaring the device dead after a hello timeout
/// asserts `version + 1` (odd). At equal versions, dead wins. A device
/// that hears itself declared dead re-asserts with `that version + 1`,
/// so a live device always out-versions its obituary within one hello.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceView {
    /// Monotonic per-device version; higher wins, dead wins ties.
    pub version: u64,
    /// Whether the device is believed to be forwarding at all.
    pub alive: bool,
    /// The device's live ports (segment-id bitmask) — physical ports
    /// minus failed links.
    pub ports: HostMask,
}

impl DeviceView {
    /// Whether [`DeviceView::merge`] would replace `self` with `theirs`:
    /// higher version wins; at equal versions a death assertion beats a
    /// liveness one (so an obituary is not lost to reordering). Asked
    /// separately so a holder of a *shared* view table can find out
    /// before it takes the table mutably.
    pub fn superseded_by(&self, theirs: &DeviceView) -> bool {
        theirs.version > self.version
            || (theirs.version == self.version && self.alive && !theirs.alive)
    }

    /// Merges `theirs` into `self`; returns true if `self` changed (see
    /// [`DeviceView::superseded_by`] for the rule).
    pub fn merge(&mut self, theirs: &DeviceView) -> bool {
        if self.superseded_by(theirs) {
            self.clone_from(theirs);
            true
        } else {
            false
        }
    }
}

/// The elected active forwarding tree: per-device port states plus
/// next-hop tables derived from the Forwarding ports at election time.
///
/// Produced by [`BridgeTopology::elect`]; consumed by the bridge layer
/// (`mether_net::bridge::BridgePolicy`) in place of the old
/// precomputed-from-the-wiring tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveTree {
    /// The elected root bridge (`None` when the observer was dead in its
    /// own view — an empty tree).
    root: Option<usize>,
    /// Per device: mask of Forwarding ports (segment ids).
    forwarding: Vec<HostMask>,
    /// `next[b][dst]` = port of `b` toward `dst` over Forwarding ports;
    /// `NO_HOP` when unreachable (partition).
    next: Vec<Vec<u16>>,
}

impl ActiveTree {
    /// The elected root bridge, if the election produced a tree.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// The Forwarding-port mask of device `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn forwarding(&self, b: usize) -> HostMask {
        self.forwarding[b].clone()
    }

    /// Whether device `b`'s port on segment `s` is Forwarding — the
    /// per-frame question, answered by reference where
    /// [`ActiveTree::forwarding`] hands out a copy of the whole mask.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn forwards(&self, b: usize, s: usize) -> bool {
        self.forwarding[b].contains(s)
    }

    /// The state of device `b`'s port on segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn port_state(&self, b: usize, s: usize) -> PortState {
        if self.forwards(b, s) {
            PortState::Forwarding
        } else {
            PortState::Blocked
        }
    }

    /// The port of device `b` toward segment `dst` over the active tree,
    /// or `None` when `dst` is unreachable (partitioned away).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `dst` is out of range.
    pub fn next_hop(&self, b: usize, dst: usize) -> Option<usize> {
        let hop = self.next[b][dst];
        (hop != NO_HOP).then_some(hop as usize)
    }

    /// True when every segment is reachable from device `b` — the
    /// healthy, unpartitioned state.
    pub fn fully_connected_from(&self, b: usize) -> bool {
        self.next[b].iter().all(|&h| h != NO_HOP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_one_bridge_over_all_segments() {
        let t = BridgeTopology::star(4);
        assert_eq!(t.bridges(), 1);
        assert!(t.is_star());
        assert!(t.is_tree());
        assert_eq!(t.ports(0), &[0, 1, 2, 3]);
        assert_eq!(t.bridges_on(2), &[0]);
        for dst in 0..4 {
            assert_eq!(t.next_hop(0, dst), dst, "every port is one hop away");
        }
    }

    #[test]
    fn one_segment_star_is_a_listening_stub() {
        let t = BridgeTopology::star(1);
        assert_eq!(t.bridges(), 1);
        assert_eq!(t.ports(0), &[0]);
        assert_eq!(t.next_hop(0, 0), 0);
    }

    #[test]
    fn chain_hops_segment_by_segment() {
        let t = BridgeTopology::chain(4);
        assert_eq!(t.bridges(), 3);
        assert_eq!(t.ports(1), &[1, 2]);
        // From bridge 0 (segments 0|1), everything rightward exits port 1.
        assert_eq!(t.next_hop(0, 3), 1);
        assert_eq!(t.next_hop(0, 0), 0);
        // The 0→3 path crosses all three bridges in order.
        assert_eq!(t.path(0, 3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.path(3, 0), vec![(2, 2), (1, 1), (0, 0)]);
    }

    #[test]
    fn balanced_tree_groups_children_under_parents() {
        // 4 segments, fanout 2: bridge 0 = {0,1,2}, bridge 1 = {1,3}.
        let t = BridgeTopology::balanced_tree(4, 2);
        assert_eq!(t.bridges(), 2);
        assert_eq!(t.ports(0), &[0, 1, 2]);
        assert_eq!(t.ports(1), &[1, 3]);
        assert_eq!(t.next_hop(0, 3), 1, "toward 3 via the subtree at 1");
        assert_eq!(t.next_hop(1, 0), 1, "toward the root via the parent");
        assert_eq!(t.path(2, 3), vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn balanced_tree_extremes_match_star_and_chain() {
        assert_eq!(BridgeTopology::balanced_tree(5, 4), BridgeTopology::star(5));
        assert_eq!(
            BridgeTopology::balanced_tree(4, 1),
            BridgeTopology::chain(4)
        );
    }

    #[test]
    fn from_links_rejects_bad_wirings() {
        // Disconnected: segment 2 unreachable.
        assert!(BridgeTopology::from_links(3, vec![vec![0, 1]]).is_err());
        // Out-of-range port.
        assert!(BridgeTopology::from_links(2, vec![vec![0, 2]]).is_err());
        // Duplicate port on one bridge.
        assert!(BridgeTopology::from_links(2, vec![vec![0, 0, 1]]).is_err());
        // One-port bridge on a multi-segment topology.
        assert!(BridgeTopology::from_links(2, vec![vec![0, 1], vec![0]]).is_err());
        // No bridge at all over two segments.
        assert!(BridgeTopology::from_links(2, vec![]).is_err());
        assert!(BridgeTopology::from_links(0, vec![]).is_err());
    }

    #[test]
    fn redundant_links_are_now_valid_but_not_trees() {
        // Two bridges joining the same two segments: a cycle — rejected
        // by the PR 4 tree validation, accepted by the graph validation.
        let t = BridgeTopology::from_links(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        assert!(!t.is_tree());
        let ring = BridgeTopology::ring(4);
        assert_eq!(ring.bridges(), 4);
        assert!(!ring.is_tree());
        assert_eq!(ring.ports(3), &[0, 3], "the closing link");
        let mesh = BridgeTopology::mesh2d(2, 2);
        assert_eq!(mesh.segments(), 4);
        assert_eq!(mesh.bridges(), 4);
        assert!(!mesh.is_tree());
    }

    #[test]
    #[should_panic(expected = "tree-only")]
    fn next_hop_panics_on_graphs() {
        let _ = BridgeTopology::ring(3).next_hop(0, 2);
    }

    #[test]
    fn add_redundant_links_extends_a_tree() {
        let t = BridgeTopology::balanced_tree(4, 2);
        let g = t.add_redundant_links(vec![vec![2, 3]]).unwrap();
        assert_eq!(g.bridges(), 3);
        assert!(!g.is_tree());
        assert_eq!(g.bridges_on(3), &[1, 2]);
        // Invalid extras are rejected.
        assert!(t.add_redundant_links(vec![vec![0]]).is_err());
        assert!(t.add_redundant_links(vec![vec![0, 9]]).is_err());
    }

    #[test]
    fn path_endpoints_and_uniqueness() {
        let t = BridgeTopology::balanced_tree(7, 2);
        for src in 0..7 {
            for dst in 0..7 {
                let p = t.path(src, dst);
                if src == dst {
                    assert!(p.is_empty());
                } else {
                    assert_eq!(p.last().unwrap().1, dst, "path ends at dst");
                    // No segment revisited: tree paths are simple.
                    let mut seen = vec![src];
                    for (_, s) in &p {
                        assert!(!seen.contains(s), "{src}->{dst} revisits {s}");
                        seen.push(*s);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The election.
    // -----------------------------------------------------------------

    #[test]
    fn election_on_a_tree_reproduces_the_wiring() {
        // On a tree with uniform priorities, every port must forward and
        // the derived next hops must equal the tree-unique tables — the
        // property that keeps Static mode byte-identical to PR 4.
        for t in [
            BridgeTopology::star(4),
            BridgeTopology::chain(5),
            BridgeTopology::balanced_tree(7, 2),
            BridgeTopology::star(1),
        ] {
            let views = t.fresh_views();
            for observer in 0..t.bridges() {
                let a = t.elect(&[], &views, observer);
                for b in 0..t.bridges() {
                    let all: HostMask = t.ports(b).iter().copied().collect();
                    assert_eq!(a.forwarding(b), all, "tree ports all forward");
                    for dst in 0..t.segments() {
                        assert_eq!(
                            a.next_hop(b, dst),
                            Some(t.next_hop(b, dst)),
                            "next hops match the tree tables"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_election_blocks_exactly_one_port() {
        let t = BridgeTopology::ring(4);
        let a = t.elect(&[], &t.fresh_views(), 0);
        assert_eq!(a.root(), Some(0), "lowest id wins at equal priority");
        let forwarding: usize = (0..4).map(|b| a.forwarding(b).len()).sum();
        // 8 physical ports, a spanning tree needs 4 + 4 − 1 = 7.
        assert_eq!(forwarding, 7, "one redundant port blocked");
        // Every segment still reachable from every device.
        for b in 0..4 {
            assert!(a.fully_connected_from(b));
        }
        // All observers agree.
        for obs in 1..4 {
            assert_eq!(t.elect(&[], &t.fresh_views(), obs), a);
        }
    }

    #[test]
    fn priorities_steer_the_root() {
        let t = BridgeTopology::ring(4);
        let a = t.elect(&[9, 9, 0, 9], &t.fresh_views(), 0);
        assert_eq!(a.root(), Some(2), "lowest priority wins");
    }

    #[test]
    fn killing_a_ring_bridge_reconnects_around_the_ring() {
        let t = BridgeTopology::ring(4);
        let mut views = t.fresh_views();
        views[0] = DeviceView {
            version: 1,
            alive: false,
            ports: views[0].ports.clone(),
        };
        let a = t.elect(&[], &views, 1);
        assert_eq!(a.root(), Some(1));
        assert_eq!(a.forwarding(0), HostMask::EMPTY, "dead device blocked");
        // The surviving three devices span all four segments.
        for b in 1..4 {
            assert!(a.fully_connected_from(b), "device {b} reaches everything");
        }
        // The previously-blocked redundant port now forwards: the
        // healthy ring blocks one port of device 2; the broken one needs
        // all 6 surviving ports (4 segments + 3 bridges − 1 = 6).
        let forwarding: usize = (1..4).map(|b| a.forwarding(b).len()).sum();
        assert_eq!(forwarding, 6);
    }

    #[test]
    fn partition_elects_one_root_per_component() {
        // Chain of 3 segments (2 bridges); kill bridge 0 → segments {0}
        // and {1,2} split. Observer 1's component is {bridge 1}.
        let t = BridgeTopology::chain(3);
        let mut views = t.fresh_views();
        views[0].alive = false;
        views[0].version = 1;
        let a = t.elect(&[], &views, 1);
        assert_eq!(a.root(), Some(1));
        assert_eq!(a.next_hop(1, 0), None, "segment 0 is unreachable");
        assert_eq!(a.next_hop(1, 2), Some(2));
        assert!(!a.fully_connected_from(1));
    }

    #[test]
    fn link_down_reroutes_over_the_redundant_path() {
        // Ring of 4; device 0 loses its port on segment 1. The fabric
        // stays connected the long way round.
        let t = BridgeTopology::ring(4);
        let mut views = t.fresh_views();
        views[0] = DeviceView {
            version: 2,
            alive: true,
            ports: HostMask::single(0),
        };
        // Device 0 degrades to a 1-port listener on segment 0; traffic
        // between segments 0 and 1 reroutes the long way round the ring.
        let a = t.elect(&[], &views, 1);
        assert_eq!(a.forwarding(0), HostMask::single(0));
        assert!(a.forwards(0, 0) && !a.forwards(0, 1));
        for b in 0..4 {
            assert!(a.fully_connected_from(b));
        }
        assert_eq!(
            a.next_hop(0, 1),
            Some(0),
            "device 0 reaches segment 1 back through its surviving port"
        );
    }

    #[test]
    fn incremental_election_matches_full_on_every_transition() {
        // elect_from must agree with elect() bit-for-bit across a
        // failure / partial-recovery / full-recovery cycle, wherever the
        // previous tree comes from in that history.
        let t = BridgeTopology::mesh2d(3, 3);
        let healthy = t.fresh_views();
        let mut broken = healthy.clone();
        broken[4].version = 1;
        broken[4].alive = false;
        let mut degraded = healthy.clone();
        degraded[2] = DeviceView {
            version: 2,
            alive: true,
            ports: HostMask::single(*t.ports(2).first().unwrap()),
        };
        let states = [healthy, broken, degraded];
        for observer in [0, 3, 7] {
            let full: Vec<ActiveTree> = states.iter().map(|v| t.elect(&[], v, observer)).collect();
            for (i, views) in states.iter().enumerate() {
                for prev in &full {
                    // `None` means "keep `prev`": either way the caller
                    // ends up holding the full election's tree, and the
                    // unchanged signal fires exactly when it is `prev`.
                    let next = t.elect_from(&[], views, observer, prev);
                    assert_eq!(next.is_none(), *prev == full[i]);
                    assert_eq!(
                        next.as_ref().unwrap_or(prev),
                        &full[i],
                        "observer {observer}, state {i}: incremental diverged"
                    );
                }
            }
        }
        // A version-only change (hello chatter) re-elects the same tree
        // through the fast path.
        let mut chatter = states[0].clone();
        chatter[1].version += 2;
        let prev = t.elect(&[], &states[0], 0);
        assert_eq!(t.elect_from(&[], &chatter, 0, &prev), None);
        // A dead observer's empty tree is recognised as unchanged too.
        let mut gone = states[0].clone();
        gone[0].alive = false;
        let empty = t.elect(&[], &gone, 0);
        assert_eq!(empty.root(), None);
        assert_eq!(t.elect_from(&[], &gone, 0, &empty), None);
        assert_eq!(t.elect_from(&[], &gone, 0, &prev), Some(empty));
    }

    #[test]
    fn a_topology_without_devices_elects_the_empty_tree() {
        let t = BridgeTopology::from_links(1, vec![]).unwrap();
        let a = t.elect(&[], &t.fresh_views(), 0);
        assert_eq!(a.root(), None);
        assert_eq!(t.elect_from(&[], &[], 0, &a), None);
    }

    #[test]
    fn view_merge_is_monotonic_and_dead_wins_ties() {
        let mut v = DeviceView {
            version: 2,
            alive: true,
            ports: HostMask::single(0),
        };
        // Lower version: ignored.
        assert!(!v.merge(&DeviceView {
            version: 1,
            alive: false,
            ports: HostMask::EMPTY
        }));
        // Equal version, death assertion: wins.
        assert!(v.merge(&DeviceView {
            version: 2,
            alive: false,
            ports: HostMask::single(0)
        }));
        assert!(!v.alive);
        // Equal version, alive: does NOT resurrect.
        assert!(!v.merge(&DeviceView {
            version: 2,
            alive: true,
            ports: HostMask::single(0)
        }));
        // Higher version: wins regardless.
        assert!(v.merge(&DeviceView {
            version: 4,
            alive: true,
            ports: HostMask::single(3)
        }));
        assert!(v.alive);
    }
}
