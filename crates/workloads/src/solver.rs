//! The §3 application: a multiple-process sparse solver whose only
//! communication primitives are send/receive over Mether pages.
//!
//! The paper ports Bob Lucas's sparse matrix solver by rewriting `csend`
//! and `crecv` over two Mether pages (Figure 3) and reports that "the
//! program shows linear speedup on up to four processors". This module
//! supplies both halves of that claim:
//!
//! * [`SparseMatrix`] / [`jacobi_step`] — a real sparse iterative solver
//!   (Jacobi on a diagonally dominant system) that the runtime example
//!   distributes with `mether-lib`'s channels;
//! * [`SolverWorker`] — the same computation shaped as a simulator
//!   workload: per iteration, each worker computes its row block and
//!   exchanges boundary values with its neighbours using the final
//!   protocol (stationary writer, data-driven reader);
//! * [`run_solver_speedup`] — the speedup experiment over 1–4 hosts.

use mether_core::{MapMode, PageId, PageLength, View};
use mether_net::SimDuration;
use mether_sim::{
    DsmOp, ProtocolMetrics, RunLimits, SimConfig, Simulation, Step, StepCtx, Workload,
};

// ---------------------------------------------------------------------
// The actual numerical kernel (used by the runtime example and to size
// the simulated compute time).
// ---------------------------------------------------------------------

/// A sparse matrix in compressed-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    /// (column, value) pairs per row, diagonal included.
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseMatrix {
    /// The 1-D Laplacian-like operator `[-1, 2+eps, -1]` of size `n` —
    /// diagonally dominant, so Jacobi converges.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn laplacian_1d(n: usize) -> SparseMatrix {
        assert!(n > 0, "matrix must be non-empty");
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::new();
            if i > 0 {
                row.push((i - 1, -1.0));
            }
            row.push((i, 2.5));
            if i + 1 < n {
                row.push((i + 1, -1.0));
            }
            rows.push(row);
        }
        SparseMatrix { n, rows }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i` as (column, value) pairs.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(j, v)| v * x[j]).sum())
            .collect()
    }

    /// Max-norm residual `‖A·x − b‖∞`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> f64 {
        self.mul(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }
}

/// One Jacobi sweep over rows `lo..hi`: `x'[i] = (b[i] − Σ_{j≠i} a_ij x[j]) / a_ii`.
///
/// Returns the updated block. The caller owns the halo exchange that
/// keeps `x` fresh outside the block — which is exactly the part the
/// paper routes through Mether.
///
/// # Panics
///
/// Panics on dimension mismatch or an out-of-range block.
pub fn jacobi_step(a: &SparseMatrix, b: &[f64], x: &[f64], lo: usize, hi: usize) -> Vec<f64> {
    assert_eq!(x.len(), a.n());
    assert!(lo <= hi && hi <= a.n());
    (lo..hi)
        .map(|i| {
            let mut diag = 0.0;
            let mut off = 0.0;
            for &(j, v) in a.row(i) {
                if j == i {
                    diag = v;
                } else {
                    off += v * x[j];
                }
            }
            (b[i] - off) / diag
        })
        .collect()
}

// ---------------------------------------------------------------------
// The simulator workload and the speedup experiment.
// ---------------------------------------------------------------------

/// Parameters of the simulated solver run.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Jacobi iterations to run.
    pub iterations: u32,
    /// Total compute time of one iteration across all workers (divided
    /// evenly). Chosen to mimic a real per-iteration sweep on a Sun-3.
    pub work_per_iteration: SimDuration,
}

impl SolverConfig {
    /// The speedup-experiment default: 40 iterations of 2-second sweeps
    /// (a sparse factorisation sweep is heavyweight — the paper's solver
    /// came from a Cray-2; on a Sun-3 each iteration is seconds of
    /// floating point, which is what lets communication amortise into
    /// "linear speedup on up to four processors").
    pub fn paper() -> SolverConfig {
        SolverConfig {
            iterations: 40,
            work_per_iteration: SimDuration::from_secs(2),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolverPhase {
    Compute,
    PublishWrite,
    PublishPurge,
    AwaitNeighbour { idx: usize, purged: bool },
    Exit,
}

/// One worker of the distributed solver, as a simulator workload.
///
/// Communication structure per iteration (the Figure 3 pattern, final
/// protocol): write the iteration counter to the worker's own page and
/// purge (one broadcast); then wait until every neighbour's page shows
/// the same iteration, checking the demand view first and sleeping on
/// the data-driven view if stale.
pub struct SolverWorker {
    cfg: SolverConfig,
    my_page: PageId,
    neighbour_pages: Vec<PageId>,
    iteration: u32,
    phase: SolverPhase,
    compute_slice: SimDuration,
    label: String,
}

impl SolverWorker {
    /// Worker `rank` of `world` workers.
    pub fn new(cfg: SolverConfig, rank: usize, world: usize) -> SolverWorker {
        let my_page = PageId::new(rank as u32);
        // 1-D block decomposition: halo exchange with left/right ranks.
        let mut neighbour_pages = Vec::new();
        if rank > 0 {
            neighbour_pages.push(PageId::new(rank as u32 - 1));
        }
        if rank + 1 < world {
            neighbour_pages.push(PageId::new(rank as u32 + 1));
        }
        let compute_slice =
            SimDuration::from_nanos(cfg.work_per_iteration.as_nanos() / world as u64);
        SolverWorker {
            cfg,
            my_page,
            neighbour_pages,
            iteration: 0,
            phase: SolverPhase::Compute,
            compute_slice,
            label: format!("solver-rank{rank}"),
        }
    }
}

impl Workload for SolverWorker {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        loop {
            match self.phase {
                SolverPhase::Compute => {
                    if self.iteration >= self.cfg.iterations {
                        self.phase = SolverPhase::Exit;
                        continue;
                    }
                    self.iteration += 1;
                    self.phase = if self.neighbour_pages.is_empty() {
                        SolverPhase::Compute // single worker: no exchange
                    } else {
                        SolverPhase::PublishWrite
                    };
                    if self.iteration > self.cfg.iterations {
                        self.phase = SolverPhase::Exit;
                        continue;
                    }
                    ctx.counters.operations += 1;
                    return Step::Compute(self.compute_slice);
                }
                SolverPhase::PublishWrite => {
                    self.phase = SolverPhase::PublishPurge;
                    return Step::Op(DsmOp::Write {
                        page: self.my_page,
                        view: View::short_demand(),
                        offset: 0,
                        value: self.iteration,
                    });
                }
                SolverPhase::PublishPurge => {
                    self.phase = SolverPhase::AwaitNeighbour {
                        idx: 0,
                        purged: false,
                    };
                    return Step::Op(DsmOp::Purge {
                        page: self.my_page,
                        mode: MapMode::Writeable,
                        length: PageLength::Short,
                    });
                }
                SolverPhase::AwaitNeighbour { idx, purged } => {
                    if idx >= self.neighbour_pages.len() {
                        self.phase = SolverPhase::Compute;
                        continue;
                    }
                    // A read of the neighbour's counter just completed?
                    if let mether_sim::OpResult::Value(v) = ctx.last {
                        if v >= self.iteration {
                            ctx.win();
                            self.phase = SolverPhase::AwaitNeighbour {
                                idx: idx + 1,
                                purged: false,
                            };
                            continue;
                        }
                        ctx.lose();
                        if !purged {
                            // Stale: purge, then block on the data view.
                            self.phase = SolverPhase::AwaitNeighbour { idx, purged: true };
                            return Step::Op(DsmOp::Purge {
                                page: self.neighbour_pages[idx],
                                mode: MapMode::ReadOnly,
                                length: PageLength::Short,
                            });
                        }
                    }
                    let view = if purged {
                        View::short_data()
                    } else {
                        View::short_demand()
                    };
                    return Step::Op(DsmOp::Read {
                        page: self.neighbour_pages[idx],
                        view,
                        mode: MapMode::ReadOnly,
                        offset: 0,
                    });
                }
                SolverPhase::Exit => return Step::Done,
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// One row of the speedup table.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Worker/host count.
    pub workers: usize,
    /// Wall-clock time of the run.
    pub wall: SimDuration,
    /// Speedup over the single-worker run.
    pub speedup: f64,
    /// Parallel efficiency (`speedup / workers`).
    pub efficiency: f64,
    /// Full metrics of the run.
    pub metrics: ProtocolMetrics,
}

/// Runs the solver on each worker count and reports speedups (the §3
/// "linear speedup on up to four processors" claim; the Cray-2 had four
/// processors, hence the 1–4 sweep).
pub fn run_solver_speedup(cfg: SolverConfig, worker_counts: &[usize]) -> Vec<SpeedupPoint> {
    let mut baseline: Option<f64> = None;
    let mut out = Vec::new();
    for &n in worker_counts {
        assert!(n >= 1, "worker counts start at 1");
        let mut sim = Simulation::new(SimConfig::paper(n));
        for rank in 0..n {
            sim.create_owned(rank, PageId::new(rank as u32));
            sim.add_process(rank, Box::new(SolverWorker::new(cfg, rank, n)));
        }
        let outcome = sim.run(RunLimits::default());
        assert!(
            outcome.finished,
            "solver run with {n} workers did not finish"
        );
        let metrics = sim.metrics(&format!("solver, {n} workers"), outcome.finished, n as u32);
        let wall = metrics.wall;
        let base = *baseline.get_or_insert(wall.as_secs_f64());
        let speedup = base / wall.as_secs_f64();
        out.push(SpeedupPoint {
            workers: n,
            wall,
            speedup,
            efficiency: speedup / n as f64,
            metrics,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_structure() {
        let a = SparseMatrix::laplacian_1d(5);
        assert_eq!(a.n(), 5);
        assert_eq!(a.row(0).len(), 2);
        assert_eq!(a.row(2).len(), 3);
        assert_eq!(a.row(4).len(), 2);
    }

    #[test]
    fn jacobi_converges_on_small_system() {
        let n = 32;
        let a = SparseMatrix::laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul(&x_true);
        let mut x = vec![0.0; n];
        for _ in 0..200 {
            x = jacobi_step(&a, &b, &x, 0, n);
        }
        assert!(a.residual(&x, &b) < 1e-6, "residual {}", a.residual(&x, &b));
    }

    #[test]
    fn jacobi_block_equals_full_sweep() {
        let n = 16;
        let a = SparseMatrix::laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let full = jacobi_step(&a, &b, &x, 0, n);
        let lo = jacobi_step(&a, &b, &x, 0, 8);
        let hi = jacobi_step(&a, &b, &x, 8, 16);
        assert_eq!(&full[..8], &lo[..]);
        assert_eq!(&full[8..], &hi[..]);
    }

    #[test]
    fn solver_speedup_is_near_linear_to_four() {
        let cfg = SolverConfig {
            iterations: 10,
            work_per_iteration: SimDuration::from_secs(2),
        };
        let points = run_solver_speedup(cfg, &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points[1].speedup > 1.8, "2 workers: {}", points[1].speedup);
        assert!(points[2].speedup > 3.2, "4 workers: {}", points[2].speedup);
        assert!(points[2].efficiency > 0.8);
    }

    #[test]
    fn single_worker_does_no_communication() {
        let cfg = SolverConfig {
            iterations: 5,
            work_per_iteration: SimDuration::from_millis(100),
        };
        let points = run_solver_speedup(cfg, &[1]);
        assert_eq!(points[0].metrics.net.packets, 0);
    }
}
