//! Property-based protocol invariants: random operation soups over a
//! set of page tables connected by an in-order broadcast "wire".
//!
//! The central safety property of Mether is "there is only ever one
//! consistent copy of a page". We drive N host tables with arbitrary
//! sequences of accesses, purges, locks, and unlocks, delivering every
//! emitted packet to every other table in order, and assert after every
//! step that:
//!
//! * at most one host holds the consistent copy of each page;
//! * the consistent copy never vanishes (some host can always supply it
//!   or a transfer is in flight);
//! * generations never regress on any host;
//! * a host that observes `Ready` for a writeable access really is the
//!   holder.

use mether_core::{
    AccessOutcome, Effect, MapMode, MetherConfig, Packet, PageId, PageLength, PageTable, View,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Access {
        host: usize,
        page: u32,
        short: bool,
        data_driven: bool,
        writeable: bool,
    },
    PurgeRo {
        host: usize,
        page: u32,
    },
    PurgeRw {
        host: usize,
        page: u32,
        short: bool,
    },
    Lock {
        host: usize,
        page: u32,
    },
    Unlock {
        host: usize,
        page: u32,
    },
}

fn op_strategy(hosts: usize, pages: u32) -> impl Strategy<Value = Op> {
    let h = 0..hosts;
    let p = 0..pages;
    prop_oneof![
        (
            h.clone(),
            p.clone(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(host, page, short, data_driven, writeable)| Op::Access {
                host,
                page,
                short,
                data_driven,
                writeable
            }),
        (h.clone(), p.clone()).prop_map(|(host, page)| Op::PurgeRo { host, page }),
        (h.clone(), p.clone(), any::<bool>()).prop_map(|(host, page, short)| Op::PurgeRw {
            host,
            page,
            short
        }),
        (h.clone(), p.clone()).prop_map(|(host, page)| Op::Lock { host, page }),
        (h, p).prop_map(|(host, page)| Op::Unlock { host, page }),
    ]
}

struct World {
    tables: Vec<PageTable>,
    pages: u32,
    /// Packets in flight (in-order broadcast wire).
    wire: std::collections::VecDeque<Packet>,
    waiter: u64,
}

impl World {
    fn new(hosts: usize, pages: u32) -> World {
        let mut tables: Vec<PageTable> = (0..hosts)
            .map(|i| PageTable::new(mether_core::HostId(i as u16), MetherConfig::new()))
            .collect();
        // Every page starts consistent on host 0.
        for p in 0..pages {
            tables[0].create_owned(PageId::new(p));
        }
        World {
            tables,
            pages,
            wire: Default::default(),
            waiter: 0,
        }
    }

    fn absorb(&mut self, effects: Vec<Effect>, host: usize) {
        for fx in effects {
            match fx {
                Effect::Send(pkt) => self.wire.push_back(pkt),
                Effect::ServerPurge { page, length } => {
                    // Act as the host's server immediately: broadcast and
                    // DO-PURGE.
                    if let Ok(pkt) = self.tables[host].server_purge_broadcast(page, length) {
                        self.wire.push_back(pkt);
                    }
                    let mut fx2 = Vec::new();
                    self.tables[host].do_purge(page, &mut fx2);
                    // Wake effects need no action here: retries are
                    // driven by the op generator.
                }
                Effect::Wake(_) | Effect::WakeAll(_) | Effect::ConsistentArrived(_) => {}
            }
        }
    }

    /// Delivers every queued packet to every other host, collecting any
    /// further sends (replies) until the wire drains.
    fn drain_wire(&mut self) {
        let mut budget = 10_000;
        while let Some(pkt) = self.wire.pop_front() {
            budget -= 1;
            assert!(budget > 0, "wire never drains: protocol livelock");
            for h in 0..self.tables.len() {
                let mut fx = Vec::new();
                self.tables[h].handle_packet(&pkt, &mut fx);
                self.absorb(fx, h);
            }
        }
    }

    fn check_invariants(&self) {
        for p in 0..self.pages {
            let page = PageId::new(p);
            let holders: Vec<usize> = (0..self.tables.len())
                .filter(|&h| self.tables[h].is_consistent_holder(page))
                .collect();
            assert!(
                holders.len() <= 1,
                "page {page}: multiple consistent holders {holders:?}"
            );
            // With the wire drained, the consistent copy must exist
            // somewhere (transfers are atomic at this granularity).
            assert_eq!(
                holders.len(),
                1,
                "page {page}: consistent copy vanished with an empty wire"
            );
        }
    }

    fn step(&mut self, op: &Op) {
        self.waiter += 1;
        let w = self.waiter;
        match *op {
            Op::Access {
                host,
                page,
                short,
                data_driven,
                writeable,
            } => {
                let view = View::new(
                    if short {
                        mether_core::PageLength::Short
                    } else {
                        mether_core::PageLength::Full
                    },
                    if data_driven && !writeable {
                        mether_core::DriveMode::Data
                    } else {
                        mether_core::DriveMode::Demand
                    },
                );
                let mode = if writeable {
                    MapMode::Writeable
                } else {
                    MapMode::ReadOnly
                };
                let mut fx = Vec::new();
                let out = self.tables[host]
                    .access(PageId::new(page), view, mode, w, &mut fx)
                    .unwrap();
                if out == AccessOutcome::Ready && writeable {
                    assert!(
                        self.tables[host].is_consistent_holder(PageId::new(page)),
                        "Ready writeable access on a non-holder"
                    );
                }
                self.absorb(fx, host);
            }
            Op::PurgeRo { host, page } => {
                let mut fx = Vec::new();
                self.tables[host]
                    .purge(
                        PageId::new(page),
                        MapMode::ReadOnly,
                        PageLength::Short,
                        w,
                        &mut fx,
                    )
                    .unwrap();
                self.absorb(fx, host);
            }
            Op::PurgeRw { host, page, short } => {
                let mut fx = Vec::new();
                let length = if short {
                    PageLength::Short
                } else {
                    PageLength::Full
                };
                match self.tables[host].purge(
                    PageId::new(page),
                    MapMode::Writeable,
                    length,
                    w,
                    &mut fx,
                ) {
                    Ok(_) => self.absorb(fx, host),
                    Err(mether_core::Error::NotConsistentHolder { .. }) => {}
                    Err(e) => panic!("unexpected purge error: {e}"),
                }
            }
            Op::Lock { host, page } => {
                let _ = self.tables[host].lock(PageId::new(page), PageLength::Short);
            }
            Op::Unlock { host, page } => {
                let mut fx = Vec::new();
                self.tables[host].unlock(PageId::new(page), &mut fx);
                self.absorb(fx, host);
            }
        }
        self.drain_wire();
        self.check_invariants();
    }

    fn generations(&self) -> Vec<u64> {
        (0..self.pages)
            .flat_map(|p| {
                self.tables
                    .iter()
                    .map(move |t| t.generation(PageId::new(p)).0)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_consistent_holder_under_random_ops(
        ops in proptest::collection::vec(op_strategy(3, 2), 1..120)
    ) {
        let mut world = World::new(3, 2);
        for op in &ops {
            world.step(op);
        }
    }

    #[test]
    fn generations_never_regress(
        ops in proptest::collection::vec(op_strategy(2, 1), 1..80)
    ) {
        let mut world = World::new(2, 1);
        let mut prev = world.generations();
        for op in &ops {
            world.step(op);
            let cur = world.generations();
            for (i, (&a, &b)) in prev.iter().zip(&cur).enumerate() {
                // A host's view of a page's generation may only move
                // forward, except when it drops its copy entirely (a
                // purge resets its local knowledge to whatever arrives
                // next — which the monotonic-install rule keeps ≥ 0).
                if b < a {
                    // Allowed only immediately after a local RO purge
                    // dropped the copy: then generation stays, actually.
                    // Treat any regression as failure.
                    panic!("generation regressed at slot {i}: {a} -> {b} after {op:?}");
                }
            }
            prev = cur;
        }
    }

    #[test]
    fn four_hosts_three_pages_soup(
        ops in proptest::collection::vec(op_strategy(4, 3), 1..60)
    ) {
        let mut world = World::new(4, 3);
        for op in &ops {
            world.step(op);
        }
    }
}
