//! What the benchmark reads from the machine it runs on: `/proc`
//! counters of its own process, the CPU it is pinned to, and the
//! commit it was built from. Linux only, like the sandbox; a missing
//! file reads as zero / unknown rather than failing the run.

use std::fs;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Duration;

fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

fn self_status(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| status_field(&t, field))
        .unwrap_or(0)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    self_status("VmHWM") as f64 / 1024.0
}

/// Current resident set of this process, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    self_status("VmRSS") as f64 / 1024.0
}

/// Threads alive in this process.
pub fn threads() -> u64 {
    self_status("Threads")
}

/// Every live thread's `/proc/self/task/<tid>/<file>`, read whole.
fn task_files(file: &str) -> Vec<String> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join(file)).ok())
        .collect()
}

/// CPU seconds consumed so far by the threads of this process that are
/// alive now, from the scheduler's nanosecond accounting (`schedstat`;
/// `/proc/self/stat` ticks at 10 ms, far too coarse for a 1.5 ms round).
/// A difference of two readings is exact while no thread exits between.
pub fn cpu_seconds() -> f64 {
    task_files("schedstat")
        .iter()
        .filter_map(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// `(voluntary, involuntary)` context switches of the threads alive now
/// (`/proc/self/status` alone covers only the main thread).
pub fn ctx_switches() -> (u64, u64) {
    task_files("status").iter().fold((0, 0), |(v, i), text| {
        (
            v + status_field(text, "voluntary_ctxt_switches").unwrap_or(0),
            i + status_field(text, "nonvoluntary_ctxt_switches").unwrap_or(0),
        )
    })
}

/// CPUs this process could run on when it started (pinning later
/// narrows `available_parallelism`, so the first answer is kept).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Short commit hash of the checkout, or `unknown` outside a git
/// repository (the driver's checkouts are plain directories).
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Pins the calling thread, and every thread it spawns from here on
/// (they inherit the mask), to the last CPU its affinity mask allows,
/// and returns that CPU; `None` (still unpinned) if the kernel refuses.
/// The mask is asked for rather than assumed: under a cpuset of {2,3}
/// the last CPU is 3, not `nproc - 1`.
pub fn pin_to_last_cpu() -> Option<usize> {
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the call writes at most `size` bytes into a live `CpuSet`.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the call reads `size` bytes of a live `CpuSet`.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Runs `work` with a watchdog that ends the whole process (exit code
/// 3, naming `label`) if its resident set passes `limit_mb`. The
/// simulator has no cancellation hook, so an overloaded rung cannot be
/// cut from outside any finer than this; `RunLimits::max_events` is the
/// guard that normally ends a diverging run, this is the backstop that
/// keeps one from eating the machine.
pub fn with_rss_guard<T>(limit_mb: f64, label: &str, work: impl FnOnce() -> T) -> T {
    /// Stops the watchdog on every way out of `work` — a panic included
    /// (a violated invariant panics by design), or the scope would wait
    /// for the watchdog for ever.
    struct Stop<'a>(&'a AtomicBool, Thread);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            self.1.unpark();
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watchdog = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if rss_mb() > limit_mb {
                    eprintln!("e2e: {label}: resident set passed {limit_mb} MB; aborting");
                    std::process::exit(3);
                }
                std::thread::park_timeout(Duration::from_millis(50));
            }
        });
        let _stop = Stop(&done, watchdog.thread().clone());
        work()
    })
}
