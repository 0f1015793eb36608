//! Regenerates every table and figure of the Mether paper.
//!
//! ```text
//! cargo run --release -p mether-bench --bin repro            # everything
//! cargo run --release -p mether-bench --bin repro -- fig4    # one experiment
//! ```
//!
//! Experiment names: `baseline`, `fig4`..`fig9`, `speedup`, `memnet`,
//! `ablations` (or `all`); an unknown name lists them on stderr and
//! exits 2. Output is the paper's figure layout plus paper-reported
//! values for side-by-side comparison.

use memnet::{run_counting as memnet_run, CountingParams, MemNetProtocol};
use mether_workloads::{
    run_kernel_server, run_paper_protocol, run_purge_vs_invalidate, run_short_size_sweep,
    run_snoop_ablation, run_solver_speedup, Protocol, SolverConfig,
};

/// Paper-reported rows for one figure, printed next to ours.
struct PaperRow {
    name: &'static str,
    wall: &'static str,
    user: &'static str,
    sys: &'static str,
    net: &'static str,
    ctx: &'static str,
    latency: &'static str,
    loss_win: &'static str,
}

fn paper_row(p: Protocol) -> Option<PaperRow> {
    Some(match p {
        Protocol::P1 => PaperRow {
            name: "Figure 4 (paper)",
            wall: "128 s",
            user: "10 s",
            sys: "30 s",
            net: "66 kB/s",
            ctx: "4 /add",
            latency: "120 ms",
            loss_win: "500",
        },
        Protocol::P2 => PaperRow {
            name: "Figure 5 (paper)",
            wall: "68 s",
            user: "3 s",
            sys: "17 s",
            net: "~2.2 kB/s",
            ctx: "4 /add",
            latency: "68 ms",
            loss_win: "134",
        },
        Protocol::P3 => PaperRow {
            name: "Figure 6 (paper)",
            wall: "never finished",
            user: "never finished",
            sys: "never finished",
            net: "NA (saturated)",
            ctx: "NA",
            latency: "very high",
            loss_win: "10000",
        },
        Protocol::P3Hysteresis(10_000) => PaperRow {
            name: "Figure 7 (paper)",
            wall: "77 s",
            user: "19 s",
            sys: "50 s",
            net: "~1 kB/s",
            ctx: "5 /add",
            latency: "45 ms",
            loss_win: "80",
        },
        Protocol::P4 => PaperRow {
            name: "Figure 8 (paper)",
            wall: "68 s",
            user: "7 s",
            sys: "50 s",
            net: "~1 kB/s",
            ctx: "10 /add",
            latency: "65 ms",
            loss_win: "400",
        },
        Protocol::P5 => PaperRow {
            name: "Figure 9 (paper)",
            wall: "57 s",
            user: "0.7 s",
            sys: "6 s",
            net: "0.5 kB/s",
            ctx: "5 /add",
            latency: "20 ms",
            loss_win: "3",
        },
        Protocol::BaselineLocal => PaperRow {
            name: "§4 baseline (paper)",
            wall: "81 s",
            user: "37 s cpu (incl sys)",
            sys: "-",
            net: "0",
            ctx: "-",
            latency: "-",
            loss_win: "-",
        },
        Protocol::BaselineSingle => PaperRow {
            name: "§4 baseline (paper)",
            wall: "~50 ms",
            user: "-",
            sys: "-",
            net: "0",
            ctx: "-",
            latency: "-",
            loss_win: "-",
        },
        _ => return None,
    })
}

fn run_and_print(p: Protocol) {
    let m = run_paper_protocol(p);
    println!("{m}");
    if let Some(row) = paper_row(p) {
        println!(
            "  {}: wall {}, user {}, sys {}, net {}, ctx {}, latency {}, loss/win {}\n",
            row.name, row.wall, row.user, row.sys, row.net, row.ctx, row.latency, row.loss_win
        );
    }
}

/// Every experiment `main` knows, in the order it runs them.
const EXPERIMENTS: [&str; 10] = [
    "baseline",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "speedup",
    "memnet",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "all" && !EXPERIMENTS.contains(&a.as_str()))
    {
        eprintln!(
            "repro: unknown experiment `{unknown}`; valid names: {}, all",
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    let want = |name: &str| {
        debug_assert!(
            EXPERIMENTS.contains(&name),
            "`{name}` missing from EXPERIMENTS"
        );
        args.is_empty() || args.iter().any(|a| a == name || a == "all")
    };

    if want("baseline") {
        println!("== §4 calibration baselines ==\n");
        run_and_print(Protocol::BaselineSingle);
        run_and_print(Protocol::BaselineLocal);
    }
    if want("fig4") {
        run_and_print(Protocol::P1);
    }
    if want("fig5") {
        run_and_print(Protocol::P2);
    }
    if want("fig6") {
        run_and_print(Protocol::P3);
    }
    if want("fig7") {
        println!("== Figure 7: hysteresis sweep ==\n");
        run_and_print(Protocol::P3Hysteresis(100));
        run_and_print(Protocol::P3Hysteresis(10_000));
    }
    if want("fig8") {
        run_and_print(Protocol::P4);
    }
    if want("fig9") {
        run_and_print(Protocol::P5);
    }
    if want("speedup") {
        println!("== §3: sparse-solver speedup (\"linear speedup on up to four processors\") ==\n");
        println!(
            "{:>8} {:>12} {:>9} {:>11} {:>14}",
            "workers", "wall", "speedup", "efficiency", "bytes moved"
        );
        for p in run_solver_speedup(SolverConfig::paper(), &[1, 2, 3, 4]) {
            println!(
                "{:>8} {:>12} {:>9.2} {:>11.2} {:>14}",
                p.workers,
                p.wall.to_string(),
                p.speedup,
                p.efficiency,
                p.metrics.net.bytes,
            );
        }
        println!();
    }
    if want("memnet") {
        println!("== §6: same best protocol on Mether and MemNet ==\n");
        let params = CountingParams::paper();
        for p in MemNetProtocol::all() {
            println!("{}", memnet_run(p, &params));
        }
        let best = MemNetProtocol::all()
            .into_iter()
            .map(|p| memnet_run(p, &params))
            .filter(|r| r.finished)
            .min_by(|a, b| a.messages_per_addition.total_cmp(&b.messages_per_addition))
            .expect("at least one finished");
        println!(
            "MemNet's best protocol: {} — the same one-way, stationary-writer,\n\
             passive-reader shape as Mether's final protocol (Figure 9).\n",
            best.protocol.label()
        );
    }
    if want("ablations") {
        println!("== Ablations (design decisions from DESIGN.md) ==\n");

        println!("-- 1. update-carrying purge (P5) vs invalidate+refetch (P3h-100) --");
        let (p5, p3h) = run_purge_vs_invalidate();
        println!(
            "  P5: wall {}, {} pkts; P3h(100): wall {}, {} pkts\n",
            p5.wall, p5.net.packets, p3h.wall, p3h.net.packets
        );

        println!("-- 2. snoopy refresh (P3h-10000 with vs without snooping) --");
        let (with, without) = run_snoop_ablation(10_000);
        println!(
            "  with: wall {}, {} pkts, loss/win {:.0}; without: wall {}, {} pkts, loss/win {:.0}\n",
            with.wall,
            with.net.packets,
            with.loss_win_ratio(),
            without.wall,
            without.net.packets,
            without.loss_win_ratio()
        );

        println!("-- 3. short-page size sweep on protocol 2 --");
        println!(
            "  {:>6} {:>12} {:>12} {:>14}",
            "bytes", "wall", "latency", "bytes/add"
        );
        for (len, m) in run_short_size_sweep(&[32, 128, 512, 1024, 4096]) {
            println!(
                "  {:>6} {:>12} {:>12} {:>14.0}",
                len,
                m.wall.to_string(),
                m.avg_latency.to_string(),
                m.bytes_per_addition
            );
        }
        println!();

        println!("-- 4. user-level vs kernel-resident server (final protocol) --");
        let (user, kernel) = run_kernel_server(Protocol::P5);
        println!(
            "  user-level server: wall {}, latency {}; kernel server: wall {}, latency {}",
            user.wall, user.avg_latency, kernel.wall, kernel.avg_latency
        );
        println!(
            "  (Protocol 1 under the kernel server livelocks: with no scheduler\n\
             \x20  patience protecting the holder, the page is granted away between a\n\
             \x20  process's read-check and its write — the paper's protocols never\n\
             \x20  lock the page, so the aggressive server breaks their atomicity\n\
             \x20  assumption.)"
        );
        println!();
    }
}
