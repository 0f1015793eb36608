//! Per-layer kernels: one hot public function of each crate, timed
//! from outside with a fixed iteration count. They price the unit of
//! work the counters count (a table transition, a frame encode, a
//! bridge pickup), so a traced run can estimate each layer's share of
//! a workload's wall time. Same shapes as `benches/micro.rs`, which
//! stays the micro-bench ledger.

use crate::report::Outcome;
use crate::speed::{self, Kernel};
use crate::stats::median;
use crate::trace::Tracer;
use bytes::Bytes;
use mether_core::{
    BridgeTopology, Effect, Generation, HostId, MapMode, MetherConfig, Packet, PageHomePolicy,
    PageId, PageLength, PageTable, SegmentLayout, View, Want,
};
use mether_net::rt::{Lan, LanConfig};
use mether_net::{Bridge, BridgeConfig, SimDuration, SimTime};
use mether_sim::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Reference nanoseconds per iteration of `work`, median of [`BATCHES`]
/// batches of `iters`; each batch is one span, scaled by the speed
/// samples either side of it.
fn time_ns(tr: &mut Tracer, name: &'static str, iters: u64, work: impl FnMut()) -> f64 {
    time_ns_by(Kernel::Compute, tr, name, iters, work)
}

/// [`time_ns`] against the speed kernel that resembles `work`.
fn time_ns_by(
    kernel: Kernel,
    tr: &mut Tracer,
    name: &'static str,
    iters: u64,
    mut work: impl FnMut(),
) -> f64 {
    let mut per_iter = Vec::with_capacity(BATCHES);
    let mut before = speed::sample(kernel, tr);
    for batch in 0..BATCHES {
        let span = tr.begin(name, batch as u64);
        let t = Instant::now();
        for _ in 0..iters {
            work();
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        tr.end(span);
        let after = speed::sample(kernel, tr);
        per_iter.push(ns * speed::scale(before, after));
        before = after;
    }
    median(&per_iter)
}

fn short_data(page: PageId) -> Packet {
    Packet::PageData {
        from: HostId(0),
        page,
        length: PageLength::Short,
        generation: Generation(1),
        transfer_to: None,
        data: Bytes::from(vec![7u8; 32]),
    }
}

fn first_send(fx: &mut Vec<Effect>) -> Packet {
    match fx.remove(0) {
        Effect::Send(p) => p,
        other => panic!("expected a transmission, got {other:?}"),
    }
}

/// Times every kernel and records it under its layer's name.
pub fn run_all(tr: &mut Tracer, out: &mut Outcome) {
    let page = PageId::new(0);

    // mether-core: the page-table state machine.
    out.set(
        "core.table.fault_satisfy_ns",
        time_ns(tr, "kernel.core.table.fault_satisfy", 20_000, || {
            let mut holder = PageTable::new(HostId(0), MetherConfig::new());
            let mut reader = PageTable::new(HostId(1), MetherConfig::new());
            holder.create_owned(page);
            let mut fx = Vec::new();
            reader
                .access(page, View::short_demand(), MapMode::ReadOnly, 1, &mut fx)
                .expect("demand access");
            let req = first_send(&mut fx);
            holder.handle_packet(&req, &mut fx);
            let data = first_send(&mut fx);
            reader.handle_packet(&data, &mut fx);
            black_box(reader.page_buf(page).is_some());
        }),
    );
    {
        let mut t = PageTable::new(HostId(0), MetherConfig::new());
        t.create_owned(page);
        let mut fx = Vec::new();
        out.set(
            "core.table.local_hit_ns",
            time_ns(tr, "kernel.core.table.local_hit", 1_000_000, || {
                fx.clear();
                black_box(
                    t.access(page, View::short_demand(), MapMode::Writeable, 1, &mut fx)
                        .expect("local hit"),
                );
            }),
        );
    }
    {
        let mut t = PageTable::new(HostId(1), MetherConfig::new());
        let mut fx = Vec::new();
        // Map the page so snooped data installs.
        let _ = t.access(page, View::short_data(), MapMode::ReadOnly, 1, &mut fx);
        let pkt = short_data(page);
        out.set(
            "core.table.snoop_refresh_ns",
            time_ns(tr, "kernel.core.table.snoop_refresh", 1_000_000, || {
                fx.clear();
                t.handle_packet(&pkt, &mut fx);
                black_box(fx.len());
            }),
        );
    }

    // mether-core: the wire codec, at the smallest and largest frame.
    let short = short_data(page);
    let full = Packet::PageData {
        from: HostId(1),
        page: PageId::new(5),
        length: PageLength::Full,
        generation: Generation(9),
        transfer_to: Some(HostId(2)),
        data: Bytes::from(vec![7u8; 8192]),
    };
    out.set(
        "core.wire.encode_short_ns",
        time_ns(tr, "kernel.core.wire.encode_short", 500_000, || {
            black_box(short.encode_vectored());
        }),
    );
    out.set(
        "core.wire.encode_full_ns",
        time_ns(tr, "kernel.core.wire.encode_full", 500_000, || {
            black_box(full.encode_vectored());
        }),
    );
    let frame = full.encode_vectored();
    out.set(
        "core.wire.decode_full_ns",
        time_ns(tr, "kernel.core.wire.decode_full", 500_000, || {
            black_box(Packet::decode_frame(&frame).expect("own frame decodes"));
        }),
    );

    // mether-core: the election every mesh build runs.
    let mesh = BridgeTopology::mesh2d(16, 16);
    let views = mesh.fresh_views();
    out.set(
        "core.topology.elect_mesh16_ms",
        time_ns(tr, "kernel.core.topology.elect_mesh16", 3, || {
            black_box(mesh.elect(&[], &views, 0));
        }) / 1e6,
    );

    // mether-net: one bridge pickup that forwards (page 1 is homed off
    // the source segment).
    {
        let layout = SegmentLayout::new(32, 4).expect("4 segments of 8");
        let mut bridge = Bridge::star(
            layout,
            PageHomePolicy::Striped,
            BridgeConfig::typical().with_queue_frames(usize::MAX),
        );
        let pkt = short_data(PageId::new(1));
        let mut now = SimTime::ZERO;
        out.set(
            "net.bridge.pickup_ns",
            time_ns(tr, "kernel.net.bridge.pickup", 200_000, || {
                now += SimDuration::from_millis(1);
                black_box(bridge.pickup(&pkt, 0, now).len());
            }),
        );
    }

    // mether-net: one hop over the threaded LAN (sender → wire thread →
    // receiver's queue), the transport under every runtime round trip.
    {
        let lan = Lan::new(LanConfig::fast());
        let (a, b) = (lan.endpoint(HostId(0)), lan.endpoint(HostId(1)));
        let req = Packet::PageRequest {
            from: HostId(0),
            page,
            length: PageLength::Short,
            want: Want::ReadOnly,
        };
        out.set(
            "net.rt.lan_hop_us",
            time_ns_by(Kernel::Syscall, tr, "kernel.net.rt.lan_hop", 4_000, || {
                a.broadcast(&req).expect("LAN up");
                black_box(b.recv().expect("LAN up"));
            }) / 1e3,
        );
    }

    // mether-sim: one histogram record (paid once per open-loop fault).
    {
        let mut hist = LatencyHistogram::new();
        let mut v = 1u64;
        out.set(
            "sim.hist.record_ns",
            time_ns(tr, "kernel.sim.hist.record", 2_000_000, || {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(v >> 34);
            }),
        );
        black_box(hist.count());
    }
}
