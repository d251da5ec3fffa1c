//! Data-parallel block-coordinate trainer — the "GPU" trainer of Figure 8.
//!
//! Within a half-sweep every factor row's subproblem reads only the *fixed*
//! side (plus its own row), so updating all items — and then all users —
//! concurrently is mathematically identical to the sequential sweep, not an
//! approximation. Both trainers run the same loop
//! ([`ocular_core::trainer::fit_with`]) and the same row update
//! ([`HalfSweep::update_row`], which also keeps the row's line-search
//! step), so `fit_parallel` produces **bitwise-identical** models and
//! identical line-search counts to [`ocular_core::fit`]; the speedup is
//! pure wall-clock. (The per-rating atomic kernel of [`crate::kernel`],
//! which matches the paper's CUDA decomposition literally, is exposed and
//! validated separately; per-row parallelism is how the same decomposition
//! is expressed efficiently on a host with tens of threads rather than
//! thousands of CUDA cores.)

use ocular_core::config::OcularConfig;
use ocular_core::linesearch::SearchCounts;
use ocular_core::trainer::{fit_with, HalfSweep, RowScratch, TrainResult};
use ocular_linalg::Matrix;
use ocular_sparse::Dataset;
use rayon::prelude::*;
use std::sync::Mutex;

/// One thread's working memory; its counts join the half-sweep's total
/// when the thread's state is dropped.
struct ThreadState<'a> {
    scratch: RowScratch,
    counts: SearchCounts,
    total: &'a Mutex<SearchCounts>,
}

impl Drop for ThreadState<'_> {
    fn drop(&mut self) {
        // integer sums: the total is the same in any join order
        *self.total.lock().unwrap_or_else(|e| e.into_inner()) += self.counts;
    }
}

/// One parallel half-sweep over all rows of `own`.
fn parallel_sweep_side(own: &mut Matrix, half: &HalfSweep<'_>) -> SearchCounts {
    let k = own.cols();
    let total = Mutex::new(SearchCounts::default());
    own.as_mut_slice()
        .par_chunks_mut(k)
        .enumerate()
        .for_each_init(
            || ThreadState {
                scratch: RowScratch::new(k),
                counts: SearchCounts::default(),
                total: &total,
            },
            |state, (e, row)| half.update_row(e, row, &mut state.scratch, &mut state.counts),
        );
    total
        .into_inner()
        .expect("a panicking row update propagates before this point")
}

/// Fits OCuLaR with data-parallel half-sweeps. Same configuration, same
/// semantics and (given the same seed) the same model and training
/// history counts as [`ocular_core::fit`] — only faster on multi-core
/// hosts.
///
/// `threads`: `None` uses rayon's global pool; `Some(n)` builds a dedicated
/// pool (used by the Figure 8 harness to emulate "CPU" = 1 thread vs
/// "GPU" = all cores on one binary).
///
/// # Panics
/// Panics if `cfg` fails validation or the thread pool cannot be built.
pub fn fit_parallel(data: &Dataset, cfg: &OcularConfig, threads: Option<usize>) -> TrainResult {
    crate::with_threads(threads, || fit_with(data, cfg, parallel_sweep_side))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocular_core::fit;
    use ocular_sparse::CsrMatrix;

    fn blocks(n: usize) -> Dataset {
        let mut pairs = Vec::new();
        for b in 0..4 {
            for u in 0..n {
                for i in 0..n {
                    pairs.push((b * n + u, b * n + i));
                }
            }
        }
        Dataset::from_matrix(CsrMatrix::from_pairs(4 * n, 4 * n, &pairs).unwrap())
    }

    fn cfg() -> OcularConfig {
        OcularConfig {
            k: 4,
            lambda: 0.1,
            max_iters: 15,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let r = blocks(5);
        let seq = fit(&r, &cfg());
        let par = fit_parallel(&r, &cfg(), None);
        assert_eq!(
            seq.model, par.model,
            "per-row parallelism must not change the math"
        );
        assert_eq!(seq.history.objective, par.history.objective);
        assert_eq!(seq.history.line_search, par.history.line_search);
    }

    #[test]
    fn parallel_identical_across_thread_counts() {
        let r = blocks(4);
        let one = fit_parallel(&r, &cfg(), Some(1));
        let four = fit_parallel(&r, &cfg(), Some(4));
        assert_eq!(one.model, four.model);
    }

    #[test]
    fn parallel_monotone_objective() {
        let r = blocks(5);
        let result = fit_parallel(&r, &cfg(), None);
        for w in result.history.objective.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn relative_weighting_supported() {
        let r = blocks(3);
        let c = OcularConfig {
            weighting: ocular_core::Weighting::Relative,
            ..cfg()
        };
        let seq = fit(&r, &c);
        let par = fit_parallel(&r, &c, None);
        assert_eq!(seq.model, par.model);
    }

    #[test]
    fn bias_extension_supported() {
        let r = blocks(3);
        let c = OcularConfig {
            bias: true,
            ..cfg()
        };
        let seq = fit(&r, &c);
        let par = fit_parallel(&r, &c, None);
        assert_eq!(seq.model, par.model);
    }
}
