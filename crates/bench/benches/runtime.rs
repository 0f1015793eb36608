//! Benchmarks of the threaded runtime: fault round trips, purge
//! broadcast latency, and channel (csend/crecv) throughput.

use criterion::{criterion_group, criterion_main, Bencher, Criterion, Throughput};
use mether_core::{MapMode, PageId, PageLength, VAddr, View};
use mether_lib::channel_pair;
use mether_runtime::{Cluster, ClusterConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn bench_node_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_node");
    g.sample_size(20);

    g.bench_function("local_read_hit", |b| {
        let cluster = Cluster::new(ClusterConfig::fast(1)).unwrap();
        let page = PageId::new(0);
        cluster.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        cluster.node(0).write_u32(addr, 7).unwrap();
        b.iter(|| black_box(cluster.node(0).read_u32(addr, MapMode::Writeable).unwrap()))
    });

    g.bench_function("remote_purge_refetch", |b| {
        // Invalidate + demand refetch of a 32-byte short page.
        let cluster = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(0);
        cluster.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        cluster.node(0).write_u32(addr, 7).unwrap();
        let _ = cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap();
        b.iter(|| {
            cluster
                .node(1)
                .purge(page, MapMode::ReadOnly, PageLength::Short)
                .unwrap();
            black_box(cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap())
        })
    });

    // The same round trip while eight threads of one node block on a
    // page nobody publishes: on the home, each request it serves is a
    // frame heard with its accessors blocked; on the client, so is each
    // reply, and the wake-up it brings is for all nine.
    for (name, blocked) in [
        ("remote_purge_refetch_home_8_blocked", 0),
        ("remote_purge_refetch_client_8_blocked", 1),
    ] {
        g.bench_function(name, |b| purge_refetch_beside_8_blocked(b, blocked));
    }

    g.bench_function("bridged_purge_refetch", |b| {
        // The same round trip with the home on the other segment: the
        // request and the reply each cross the one bridge device.
        let cluster = Cluster::new(ClusterConfig::segmented(2, 2)).unwrap();
        let page = PageId::new(0);
        cluster.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        cluster.node(0).write_u32(addr, 7).unwrap();
        let _ = cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap();
        b.iter(|| {
            cluster
                .node(1)
                .purge(page, MapMode::ReadOnly, PageLength::Short)
                .unwrap();
            black_box(cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap())
        })
    });

    g.bench_function("purge_broadcast", |b| {
        // The final protocol's entire network cost: one writeable purge.
        let cluster = Cluster::new(ClusterConfig::fast(2)).unwrap();
        let page = PageId::new(0);
        cluster.node(0).create_owned(page);
        let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            cluster.node(0).write_u32(addr, i).unwrap();
            cluster
                .node(0)
                .purge(page, MapMode::Writeable, PageLength::Short)
                .unwrap();
        })
    });

    g.finish();
}

/// `remote_purge_refetch` from node 1 to node 0 while eight threads of
/// node `blocked` wait on a page nobody publishes.
fn purge_refetch_beside_8_blocked(b: &mut Bencher, blocked: usize) {
    let cluster = Cluster::new(ClusterConfig::fast(2)).unwrap();
    let page = PageId::new(0);
    cluster.node(0).create_owned(page);
    let addr = VAddr::new(page, View::short_demand(), 0).unwrap();
    cluster.node(0).write_u32(addr, 7).unwrap();
    let _ = cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap();
    let unpublished = VAddr::new(PageId::new(1), View::short_data(), 0).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let wait = Duration::from_millis(20);
                    let _ = cluster.node(blocked).read_u32_timeout(
                        unpublished,
                        MapMode::ReadOnly,
                        wait,
                    );
                }
            });
        }
        b.iter(|| {
            cluster
                .node(1)
                .purge(page, MapMode::ReadOnly, PageLength::Short)
                .unwrap();
            black_box(cluster.node(1).read_u32(addr, MapMode::ReadOnly).unwrap())
        });
        stop.store(true, Ordering::Relaxed);
    });
}

fn bench_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel");
    g.sample_size(20);

    for (name, size) in [("csend_crecv_16B", 16usize), ("csend_crecv_4KB", 4096)] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(name, |b| {
            let cluster = Arc::new(Cluster::new(ClusterConfig::fast(2)).unwrap());
            let (a, e) = channel_pair(
                cluster.node(0),
                cluster.node(1),
                PageId::new(0),
                PageId::new(1),
            )
            .unwrap();
            // Echo server on node 1.
            let cluster2 = Arc::clone(&cluster);
            let echo = std::thread::spawn(move || {
                let node = cluster2.node(1);
                let mut buf = vec![0u8; mether_lib::MAX_PAYLOAD];
                while let Ok(n) = e.crecv(node, &mut buf) {
                    if n == 0 {
                        return;
                    }
                    if e.csend(node, &buf[..n]).is_err() {
                        return;
                    }
                }
            });
            let msg = vec![0xa5u8; size];
            let mut buf = vec![0u8; mether_lib::MAX_PAYLOAD];
            b.iter(|| {
                a.csend(cluster.node(0), &msg).unwrap();
                black_box(a.crecv(cluster.node(0), &mut buf).unwrap())
            });
            // Stop the echo server.
            a.csend(cluster.node(0), b"").unwrap();
            echo.join().unwrap();
        });
    }

    g.finish();
}

criterion_group!(benches, bench_node_ops, bench_channel);
criterion_main!(benches);
