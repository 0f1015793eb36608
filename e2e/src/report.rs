//! The metric catalogue (read from `BENCHMARK.json`, the one place the
//! names, units and bounds are written down) and the result of one
//! workload run, printed for people and, as the last line, for the
//! driver.

use crate::json::{quote, Json};
use crate::sys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where result and span files go, relative to the working directory.
pub const OUT_DIR: &str = "target/e2e";

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalog {
    pub run_seconds: u64,
    /// `(name, why)` in catalogue order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    /// Parses the `BENCHMARK.json` at the root of the checkout this binary was built in.
    pub fn load() -> Catalog {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing \"{key}\""))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            doc.get(key)
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// One invocation's parameters (the driver's four flags).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload set out to complete, and how many did
    /// not (unsatisfied faults, a rung cut by its limits, a wrong value).
    pub attempted: u64,
    pub failed: u64,
    /// CPU the runtime workloads were pinned to.
    pub pinned: Option<usize>,
    values: BTreeMap<String, f64>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records one named correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// A line for the human report: sample counts, repetition counts,
    /// numbers that are not catalogue metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(w, _)| w.as_str())
            .collect()
    }

    /// Prints the report and the driver's result line, and writes the
    /// flat result file. Returns whether the run was correct.
    pub fn emit(mut self, catalog: &Catalog, args: &RunArgs) -> bool {
        let (kind, listed) = if args.trace {
            ("per-layer metrics, tracing on", &catalog.per_layer)
        } else {
            ("end-to-end metrics, tracing off", &catalog.end_to_end)
        };
        for m in listed {
            match self.values.get(&m.name) {
                Some(v) if v.is_finite() => {}
                // A layer the workload does not exercise reads 0; an
                // end-to-end metric has no such excuse and is reported
                // as unresolved (`null`), never as a number.
                None if args.trace => self.set(&m.name, 0.0),
                other => {
                    self.check(format!("metric {} is a number ({other:?})", m.name), false);
                    self.values.remove(&m.name);
                }
            }
        }
        let unknown: Vec<&String> = self
            .values
            .keys()
            .filter(|k| {
                !catalog
                    .end_to_end
                    .iter()
                    .chain(&catalog.per_layer)
                    .any(|m| &m.name == *k)
            })
            .collect();
        assert!(
            unknown.is_empty(),
            "metrics not in BENCHMARK.json: {unknown:?}"
        );

        let commit = sys::git_commit();
        println!("== e2e {} · {kind} ==", args.workload);
        println!(
            "commit {commit} · nproc {} · cpu {} · pinned {} · seed {} · seconds {}",
            sys::nproc(),
            sys::cpu_model(),
            self.pinned.map_or("no".to_string(), |c| format!("cpu{c}")),
            args.seed,
            args.seconds
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for m in listed {
            let arrow = if m.higher_is_better { "↑" } else { "↓" };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
            println!(
                "  {:<40} {:>16} {:<6} {arrow}{bound}",
                m.name,
                self.values
                    .get(&m.name)
                    .map_or("unresolved".to_string(), |&v| format_value(v)),
                m.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  failed_share {share} ({} of {} operations)",
            self.failed, self.attempted
        );
        let bad = self.failed_checks();
        println!("  checks: {} run, {} failed", self.checks.len(), bad.len());
        for b in &bad {
            println!("  CHECK FAILED: {b}");
        }
        let correct = bad.is_empty();

        let mut line = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        let mut flat = format!(
            "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"commit\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{}",
            quote(&args.workload),
            args.trace,
            args.seed,
            args.seconds,
            quote(&commit),
            self.attempted,
            self.failed
        );
        for (i, m) in listed.iter().enumerate() {
            let v = self
                .values
                .get(&m.name)
                .map_or("null".to_string(), f64::to_string);
            let sep = if i == 0 { "" } else { "," };
            write!(
                line,
                "{sep}{}:{{\"value\":{v},\"unit\":{}}}",
                quote(&m.name),
                quote(&m.unit)
            )
            .expect("write to string");
            write!(flat, ",{}:{v}", quote(&m.name)).expect("write to string");
        }
        line.push_str("}}");
        flat.push_str("}\n");
        let file = if args.trace { "layers" } else { "run" };
        let path = PathBuf::from(OUT_DIR).join(format!("{file}-{}.json", args.workload));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, flat))
        {
            eprintln!("e2e: cannot write {}: {e}", path.display());
        }
        println!("{line}");
        correct
    }
}

/// A value for the human table: plain digits, no exponent noise.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else if v.abs() < 0.01 {
        format!("{v:.8}")
    } else {
        format!("{v:.5}")
    }
}
