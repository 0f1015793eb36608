//! `e2e`: Mether's host load, network load and fault latency, end to
//! end and layer by layer, from one command. See `README.md` in the
//! package directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! e2e run   <workload> [--seed N] [--seconds S]   end-to-end metrics, tracing off
//! e2e trace <workload> [--seed N] [--seconds S]   per-layer metrics, tracing on
//! e2e all   [--seed N] [--seconds S]              both, for every workload
//! e2e check [--seed N] [--seconds S]              every workload twice; must agree
//! e2e --workload W --seed N --seconds S --trace 0|1   (what BENCHMARK.json's driver calls)
//! ```
//!
//! Every workload runs in a process of its own; the last line of its
//! standard output is one JSON object with the metrics.

mod json;
mod kernels;
mod report;
mod rtwl;
mod simwl;
mod speed;
mod stats;
mod sys;
mod trace;

use json::Json;
use report::{Catalog, Outcome, RunArgs, OUT_DIR};
use speed::Kernel;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Sim-time metrics: a pure function of the seed on the simulator
/// workloads, so two runs must agree on them to the last digit.
const SIM_TIME: [&str; 6] = [
    "fault_p50_ms",
    "fault_p99_ms",
    "slo_rate_per_s",
    "wire_bytes_per_op",
    "host_cpu_ms_per_op",
    "events_per_op",
];

/// `check` does not compare set-up times below this: two runs of a
/// 5 µs build differ by half without anything having changed.
const SETUP_FLOOR_S: f64 = 0.05;

/// Runs `name` into `out`; `false` if there is no such workload.
fn dispatch(args: &RunArgs, tr: &mut Tracer, out: &mut Outcome) -> bool {
    use simwl::OpenLoop;
    match args.workload.as_str() {
        "paper-counting" => simwl::paper_counting(args, tr, out),
        "ol-tree-read" => simwl::open_loop(
            &OpenLoop {
                mesh: false,
                write_fraction: 0.1,
                accesses_per_host: 200,
                nominal_gap_ms: 400,
                ladder_gap_ms: &[600, 400, 300, 250, 200],
                pooled: 6,
            },
            args,
            tr,
            out,
        ),
        "ol-tree-write" => simwl::open_loop(
            &OpenLoop {
                mesh: false,
                write_fraction: 0.5,
                accesses_per_host: 200,
                nominal_gap_ms: 800,
                // The knee is between 600 and 500 ms. Past it runs
                // diverge (400 ms: p99 13.7 s; 300 ms never drains,
                // 50 M events and 7.7 GB), so the ladder ends at 500.
                ladder_gap_ms: &[1200, 800, 600, 500, 425],
                pooled: 6,
            },
            args,
            tr,
            out,
        ),
        "ol-mesh" => simwl::open_loop(
            &OpenLoop {
                mesh: true,
                write_fraction: 0.1,
                accesses_per_host: 5,
                nominal_gap_ms: 2_500,
                ladder_gap_ms: &[],
                pooled: 1,
            },
            args,
            tr,
            out,
        ),
        "rt-flat" => rtwl::rt_flat(args, tr, out),
        _ => return false,
    }
    true
}

/// One workload, in this process. Returns whether it ran and was correct.
fn run_one(catalog: &Catalog, args: &RunArgs) -> bool {
    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    if !dispatch(args, &mut tr, &mut out) {
        eprintln!(
            "e2e: unknown workload {:?}; known: {}",
            args.workload,
            catalog
                .workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return false;
    }
    if args.trace {
        kernels::run_all(&mut tr, &mut out);
    }
    let kernel = if args.workload.starts_with("rt-") {
        Kernel::Syscall
    } else {
        Kernel::Compute
    };
    let (samples, ref_s) = speed::samples(kernel);
    out.set("bench.speed.ref_ms", ref_s * 1e3);
    out.note(format!(
        "host times are in reference seconds: scaled by {:.2} ms ÷ the {kernel:?} speed kernel's time beside each measurement ({samples} samples, median {:.3} ms)",
        kernel.quiet_s() * 1e3,
        ref_s * 1e3
    ));
    if args.trace {
        out.set("bench.trace.spans", tr.len() as f64);
        out.note("self time per span name (count · total ms · self ms):");
        for (name, (count, total, own)) in tr.self_times() {
            out.note(format!(
                "  {name:<36} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        estimated_shares(&mut out);
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", args.workload));
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| tr.write(&path)) {
            Ok(()) => out.note(format!("{} spans written to {}", tr.len(), path.display())),
            Err(e) => out.check(format!("span file {} written ({e})", path.display()), false),
        }
    }
    out.emit(catalog, args)
}

/// Notes what share of the run's wall time each layer's unit of work
/// would account for: a public counter × the kernel's cost per unit.
/// An estimate — the kernels run hot and alone, the counted work does
/// not — until spans inside the program can measure it.
fn estimated_shares(out: &mut Outcome) {
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    let (wall_ns, rows) = match out.get("runtime.node.ops_per_s") {
        // Runtime workloads: per round trip.
        Some(rate) => (
            1e9 / rate,
            vec![(
                "runtime.node.packets_per_op × net.rt.lan_hop_us",
                get("runtime.node.packets_per_op") * get("net.rt.lan_hop_us") * 1e3,
            )],
        ),
        // Simulator workloads: per repetition.
        None => (
            get("run_wall_s") * 1e9,
            vec![
                (
                    "net.bridge.heard × net.bridge.pickup_ns",
                    get("net.bridge.heard") * get("net.bridge.pickup_ns"),
                ),
                (
                    "sim.open.faults × core.table.fault_satisfy_ns",
                    get("sim.open.faults") * get("core.table.fault_satisfy_ns"),
                ),
                (
                    "sim.open.faults × sim.hist.record_ns",
                    get("sim.open.faults") * get("sim.hist.record_ns"),
                ),
            ],
        ),
    };
    out.note("estimated share of wall time (counter × kernel cost; an estimate):");
    for (label, ns) in rows {
        out.note(format!(
            "  {label:<52} {:>7.3} %",
            100.0 * ns / wall_ns.max(1.0)
        ));
    }
}

/// Runs one workload in a child process, passes its report through,
/// and returns its exit success with the metrics of its result line.
fn spawn(args: &RunArgs) -> (bool, Vec<(String, f64)>) {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output();
    let Ok(output) = output else {
        return (false, Vec::new());
    };
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let metrics = text
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| {
            Some(
                j.get("metrics")?
                    .fields()
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            )
        })
        .unwrap_or_default();
    (output.status.success(), metrics)
}

/// `e2e all`: both runs of every workload.
fn all(catalog: &Catalog, seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    for (workload, why) in &catalog.workloads {
        println!("\n# {workload}: {why}");
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.clone(),
                seed,
                seconds,
                trace,
            };
            ok &= spawn(&args).0;
        }
    }
    ok
}

/// `e2e check`: every workload twice on this build. Sim-time metrics
/// must be identical; the rest must agree within their own bounds.
fn check(catalog: &Catalog, seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    let mut table = Vec::new();
    for (workload, _) in &catalog.workloads {
        let args = RunArgs {
            workload: workload.clone(),
            seed,
            seconds,
            trace: false,
        };
        let (ok_a, a) = spawn(&args);
        let (ok_b, b) = spawn(&args);
        ok &= ok_a && ok_b;
        for m in &catalog.end_to_end {
            let find =
                |run: &[(String, f64)]| run.iter().find(|(k, _)| *k == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (find(&a), find(&b)) else {
                table.push(format!("{workload:<16} {:<20} MISSING", m.name));
                ok = false;
                continue;
            };
            let exact = !workload.starts_with("rt-") && SIM_TIME.contains(&m.name.as_str());
            let spread = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            // A set-up of microseconds moves by half on nothing at all.
            let floored = m.name == "setup_s" && x.max(y) < SETUP_FLOOR_S;
            let pass = spread <= bound || floored;
            ok &= pass;
            table.push(format!(
                "{workload:<16} {:<20} {x:>16.6} {y:>16.6}  spread {:>8.4} %  bound {:>5.1} %{}  {}",
                m.name,
                spread * 100.0,
                bound * 100.0,
                if exact {
                    " (sim time: exact)"
                } else if floored {
                    " (under the 0.05 s floor: not compared)"
                } else {
                    ""
                },
                if pass { "ok" } else { "FAIL" }
            ));
        }
    }
    println!("\n== e2e check · seed {seed} · two runs of every workload on one build ==");
    for line in table {
        println!("{line}");
    }
    println!("check: {}", if ok { "green" } else { "RED" });
    ok
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e run|trace <workload> [--seed N] [--seconds S]\n       e2e all|check [--seed N] [--seconds S]\n       e2e --workload W --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let catalog = Catalog::load();
    sys::nproc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: catalog.run_seconds,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut number = || it.next().and_then(|v| v.parse::<u64>().ok());
        match a.as_str() {
            "--seed" => match number() {
                Some(n) => args.seed = n,
                None => return usage(),
            },
            "--seconds" => match number() {
                Some(n) if n >= 1 => args.seconds = n,
                _ => return usage(),
            },
            "--trace" => match number() {
                Some(n) if n <= 1 => args.trace = n == 1,
                _ => return usage(),
            },
            "--workload" => match it.next() {
                Some(w) => args.workload = w.clone(),
                None => return usage(),
            },
            "run" | "trace" | "all" | "check" if command.is_none() => command = Some(a.as_str()),
            w if matches!(command, Some("run" | "trace")) && args.workload.is_empty() => {
                args.workload = w.to_string();
            }
            _ => return usage(),
        }
    }
    let ok = match command {
        Some("all") => all(&catalog, args.seed, args.seconds),
        Some("check") => check(&catalog, args.seed, args.seconds),
        Some("trace") => {
            args.trace = true;
            run_one(&catalog, &args)
        }
        _ if args.workload.is_empty() => return usage(),
        _ => run_one(&catalog, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
