//! The machine-speed reference: what makes a host time read the same
//! from one run to the next on a shared box.
//!
//! The sandbox is a few vCPUs of a host that other tenants use. For
//! seconds to minutes at a time everything wide-issue on both vCPUs runs
//! 1.2× or 1.6× slower (a dependent-chain loop does not notice: it is
//! the core's issue width that is being shared, not its clock), and a
//! whole run can sit inside one such phase, so no median, quartile or
//! minimum taken inside the run removes it. What does is measuring the
//! machine next to the work: a fixed kernel, in this file and calling
//! nothing of the product, is timed just before and just after every
//! measured stretch, and the stretch's host time is multiplied by the
//! kernel's quiet time ÷ the mean of the two samples. Host times are
//! therefore quoted in **reference seconds** — what the work would take
//! at the speed at which the kernel takes its quiet time — on every
//! commit alike, so a ratio between two commits is a ratio of the
//! program's cost. Measured while the box moved between its speeds
//! (README, "Measured spreads"): the clock's medians of a counting run
//! spread by 35 % over ten runs, the scaled ones by 13 %; in a calmer
//! quarter of an hour 12.5 % and 3.2 %.
//!
//! There are two kernels because the phases do not slow everything
//! alike. The simulator is compute and follows [`Kernel::Compute`]
//! (counting protocols 1.25× / 1.65× where the kernel reads 1.21× /
//! 1.61×; the allocation-heavier tree 1.16× / 1.38×). A runtime round
//! trip is four thread hand-offs through the kernel and follows
//! [`Kernel::Syscall`] (mean round trip 1.35× where the kernel reads
//! 1.29× and the compute kernel 1.63×). The correction is proportional
//! and the slowdown is not quite; the remainder (≤ 10 %, up to 23 % for
//! the round trip's p99) is what the host-time bounds have to cover.

use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Which kernel a measured stretch is scaled by: the one that resembles
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Eight independent chains of one-cycle operations: as many
    /// instructions per cycle as the core will issue, no memory traffic.
    Compute,
    /// `sched_yield` with nothing else runnable: kernel entry, the
    /// scheduler's pick, kernel exit.
    Syscall,
}

impl Kernel {
    /// What one sample takes on the box this was written on (2 vCPU
    /// Xeon @ 2.1 GHz) when nothing shares its cores: the speed host
    /// times are quoted at. A constant of the benchmark, not of the
    /// machine — on another box it is a unit, the same on every commit.
    pub fn quiet_s(self) -> f64 {
        match self {
            Kernel::Compute => 0.002_56,
            Kernel::Syscall => 0.002_05,
        }
    }

    fn run(self) {
        match self {
            Kernel::Compute => {
                black_box(chains(black_box(2_000_000)));
            }
            Kernel::Syscall => {
                for _ in 0..10_000 {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Every sample of this run: kernel, seconds.
static SAMPLES: Mutex<Vec<(Kernel, f64)>> = Mutex::new(Vec::new());

fn chains(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..n {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.rotate_left(5) ^ i;
        c = c.wrapping_add(a >> 3);
        d ^= b << 1;
        e = e.wrapping_add(i | 1);
        f = f.rotate_left(7).wrapping_add(3);
        g ^= e >> 2;
        h = h.wrapping_add(f & 0xff);
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

/// One timing of a kernel, on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    kernel: Kernel,
    secs: f64,
}

pub fn sample(kernel: Kernel, tr: &mut Tracer) -> Sample {
    let span = tr.begin("bench.speed.ref", 0);
    let t = Instant::now();
    kernel.run();
    let secs = t.elapsed().as_secs_f64();
    tr.end(span);
    SAMPLES.lock().expect("sample log").push((kernel, secs));
    Sample { kernel, secs }
}

/// The factor that turns a host time measured between two samples of
/// one kernel into reference seconds.
pub fn scale(before: Sample, after: Sample) -> f64 {
    debug_assert_eq!(before.kernel, after.kernel);
    before.kernel.quiet_s() / ((before.secs + after.secs) / 2.0)
}

/// `(count, median seconds)` of this run's samples of `kernel`.
pub fn samples(kernel: Kernel) -> (usize, f64) {
    let log = SAMPLES.lock().expect("sample log");
    let secs: Vec<f64> = log
        .iter()
        .filter(|(k, _)| *k == kernel)
        .map(|&(_, s)| s)
        .collect();
    (secs.len(), median(&secs))
}

/// The scale at the run's median speed, for a host time averaged over
/// the whole run.
pub fn typical_scale(kernel: Kernel) -> f64 {
    kernel.quiet_s() / samples(kernel).1.max(f64::MIN_POSITIVE)
}
