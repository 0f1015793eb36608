//! One criterion bench per paper table/figure.
//!
//! Each bench runs the figure's experiment at a reduced count (64
//! additions instead of 1024) so criterion can sample it; the measured
//! quantity is simulator throughput for that protocol shape. The
//! full-scale tables with paper-side-by-side numbers come from
//! `cargo run --release -p mether-bench --bin repro`.

use criterion::{criterion_group, criterion_main, Criterion};
use memnet::{CountingParams, MemNetProtocol, RingConfig};
use mether_net::SimDuration;
use mether_sim::{RunLimits, SimConfig};
use mether_workloads::{run_counting, run_solver_speedup, CountingConfig, Protocol, SolverConfig};
use std::hint::black_box;

fn small_cfg() -> CountingConfig {
    CountingConfig {
        target: 64,
        processes: 2,
        spin: SimDuration::from_micros(48),
    }
}

fn limits() -> RunLimits {
    RunLimits {
        max_sim_time: SimDuration::from_secs(60),
        max_events: 50_000_000,
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    // §4 baselines.
    g.bench_function("baseline_single", |b| {
        b.iter(|| {
            let cfg = CountingConfig {
                processes: 1,
                ..small_cfg()
            };
            black_box(run_counting(
                Protocol::BaselineSingle,
                &cfg,
                SimConfig::paper(1),
                limits(),
            ))
        })
    });
    g.bench_function("baseline_local", |b| {
        b.iter(|| {
            black_box(run_counting(
                Protocol::BaselineLocal,
                &small_cfg(),
                SimConfig::paper(1),
                limits(),
            ))
        })
    });

    // Figures 4, 5, 7, 8, 9 (figure 6 is the degenerate storm; bench it
    // with a tight event cap so it terminates quickly).
    for (name, proto) in [
        ("fig4_p1", Protocol::P1),
        ("fig5_p2", Protocol::P2),
        ("fig7_p3h", Protocol::P3Hysteresis(10_000)),
        ("fig8_p4", Protocol::P4),
        ("fig9_final", Protocol::P5),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_counting(
                    proto,
                    &small_cfg(),
                    SimConfig::paper(2),
                    limits(),
                ))
            })
        });
    }
    g.bench_function("fig6_p3", |b| {
        b.iter(|| {
            let caps = RunLimits {
                max_sim_time: SimDuration::from_secs(10),
                max_events: 5_000_000,
            };
            black_box(run_counting(
                Protocol::P3,
                &small_cfg(),
                SimConfig::paper(2),
                caps,
            ))
        })
    });

    g.finish();
}

fn bench_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver_speedup");
    g.sample_size(10);
    g.bench_function("solver_1_to_4", |b| {
        b.iter(|| {
            let cfg = SolverConfig {
                iterations: 5,
                work_per_iteration: SimDuration::from_millis(500),
            };
            black_box(run_solver_speedup(cfg, &[1, 2, 3, 4]))
        })
    });
    g.finish();
}

fn bench_memnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("memnet_rank");
    for p in MemNetProtocol::all() {
        g.bench_function(p.label(), |b| {
            b.iter(|| {
                let params = CountingParams {
                    target: 1024,
                    spin_ns: 50_000,
                    ring: RingConfig::memnet(2),
                };
                black_box(memnet::run_counting(p, &params))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures, bench_speedup, bench_memnet);
criterion_main!(benches);
