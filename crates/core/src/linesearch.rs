//! Warm-started Armijo search along the projection arc (Section IV-D).
//!
//! The factor update is `f^{k+1} = (f^k − α ∇Q(f^k))₊` with `α = β^t` on
//! the paper's grid `t ∈ [0, max_backtracks)`, accepted when
//!
//! ```text
//! Q(f^{k+1}) − Q(f^k) ≤ σ ⟨∇Q(f^k), f^{k+1} − f^k⟩
//! ```
//!
//! (the Armijo rule along the projection arc, Bertsekas §2.3). Because the
//! right-hand side is non-positive for a projected gradient step, every
//! accepted update decreases the local objective, which makes the overall
//! block-coordinate sweep monotone.
//!
//! The paper picks the smallest passing `t` and leaves the first trial
//! step free. Restarting every update at `t = 0` spends about ten
//! objective evaluations per accepted step, because a row's step size
//! changes little from one sweep to the next. So every factor row keeps
//! the exponent of its last step, and the search starts there:
//!
//! * if the remembered step passes, it probes upward (`t − 1`, `t − 2`, …,
//!   never above `α = 1`) while Armijo still passes, and takes the largest
//!   passing step;
//! * if it fails, it backtracks downward until a step passes, or fails at
//!   the floor `t = max_backtracks − 1`, where the row stays parked.
//!
//! When the passing exponents form an interval that reaches the floor
//! (Armijo holds for every small enough step), this returns the very step
//! a search started at `t = 0` returns, in about three trials instead of
//! ten. The upward probe is not optional: a variant that only starts one
//! grid point above the last step needs fewer trials, but rows whose step
//! only ever shrinks under-train, and it cut recall@50 by 9–11% on the
//! sharded cold-start benchmark at a *lower* objective.

use crate::gradient::LocalProblem;
use ocular_linalg::ops;

/// Line-search constants (paper: user-set `σ, β ∈ (0,1)`).
#[derive(Debug, Clone, Copy)]
pub struct LineSearch {
    /// Sufficient-decrease constant σ.
    pub sigma: f64,
    /// Backtracking factor β; candidate steps are `β^t`.
    pub beta: f64,
    /// Grid size: `t ∈ [0, max_backtracks)`, at least 1 and at most 256
    /// (exponents are remembered as `u8`).
    pub max_backtracks: usize,
}

/// Outcome of one factor update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The row was updated; contains the new local objective and the
    /// accepted step size.
    Accepted {
        /// Local objective after the step.
        q_new: f64,
        /// The accepted `α = β^t`.
        alpha: f64,
    },
    /// No grid step from the start down to the floor satisfied the Armijo
    /// test; the row is unchanged.
    Rejected,
    /// The gradient step didn't move the row (already stationary on the
    /// active constraints).
    Stationary,
}

/// Line-search telemetry summed over factor updates: objective trials and
/// the outcome of every update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Grid points tried (projected steps formed and tested).
    pub trials: u64,
    /// Updates that moved the row.
    pub accepted: u64,
    /// Updates that found no passing step.
    pub rejected: u64,
    /// Updates whose passing step did not move the row.
    pub stationary: u64,
}

impl SearchCounts {
    /// Trials per accepted step (0 when nothing was accepted).
    pub fn trials_per_step(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.trials as f64 / self.accepted as f64
        }
    }

    /// Share of factor updates that were rejected (0 when none ran).
    pub fn rejected_share(&self) -> f64 {
        let updates = self.accepted + self.rejected + self.stationary;
        if updates == 0 {
            0.0
        } else {
            self.rejected as f64 / updates as f64
        }
    }
}

impl std::ops::AddAssign for SearchCounts {
    fn add_assign(&mut self, other: Self) {
        self.trials += other.trials;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.stationary += other.stationary;
    }
}

/// `β^t` by repeated multiplication, the sequence a backtracking loop
/// walks.
fn step_size(beta: f64, t: usize) -> f64 {
    (0..t).fold(1.0, |alpha, _| alpha * beta)
}

/// Result of testing one grid point.
enum Trial {
    /// The Armijo test failed.
    Fail,
    /// The projected step equals the row: passes trivially, moves nothing.
    Still,
    /// The Armijo test passed with this new local objective.
    Pass(f64),
}

/// Performs one projected gradient step on `own`, searching the grid from
/// the row's remembered exponent `t` (see the module docs), and records
/// the trials and the outcome in `counts`.
///
/// `grad` must hold `∇Q(own)` and `q0` the local objective `Q(own)`;
/// `candidate` is caller-provided scratch of the same length. On
/// acceptance `own` is overwritten with the new row. `t` is updated to
/// the exponent to start from next time: the accepted (or stationary)
/// step's, or the floor after a rejection.
#[allow(clippy::too_many_arguments)]
pub fn armijo_step(
    own: &mut [f64],
    grad: &[f64],
    q0: f64,
    problem: &LocalProblem<'_>,
    params: &LineSearch,
    candidate: &mut [f64],
    t: &mut u8,
    counts: &mut SearchCounts,
) -> StepOutcome {
    debug_assert_eq!(own.len(), grad.len());
    debug_assert_eq!(own.len(), candidate.len());
    debug_assert!((1..=256).contains(&params.max_backtracks));
    let floor = params.max_backtracks - 1;
    let mut trial = |exp: usize, candidate: &mut [f64]| {
        counts.trials += 1;
        ops::projected_step(own, grad, step_size(params.beta, exp), candidate);
        let predicted = ops::dot_diff(grad, candidate, own);
        // projection absorbed the whole step: stationary w.r.t. the
        // active set (e.g. zero row with non-negative gradient)
        if predicted == 0.0 && *candidate == *own {
            return Trial::Still;
        }
        let q1 = problem.objective(candidate);
        if q1 - q0 <= params.sigma * predicted {
            Trial::Pass(q1)
        } else {
            Trial::Fail
        }
    };

    let start = usize::from(*t).min(floor);
    let found = match trial(start, candidate) {
        Trial::Fail => (start + 1..=floor).find_map(|exp| match trial(exp, candidate) {
            Trial::Fail => None,
            passed => Some((exp, passed)),
        }),
        passed => {
            let (mut best, mut found) = (start, passed);
            while best > 0 {
                match trial(best - 1, candidate) {
                    Trial::Fail => {
                        // the buffer holds the failed probe: rebuild the best
                        ops::projected_step(own, grad, step_size(params.beta, best), candidate);
                        break;
                    }
                    passed => (best, found) = (best - 1, passed),
                }
            }
            Some((best, found))
        }
    };
    let (exp, outcome) = match found {
        None => (floor, StepOutcome::Rejected),
        Some((exp, Trial::Pass(q_new))) => {
            own.copy_from_slice(candidate);
            let alpha = step_size(params.beta, exp);
            (exp, StepOutcome::Accepted { q_new, alpha })
        }
        // only passing trials are kept
        Some((exp, _)) => (exp, StepOutcome::Stationary),
    };
    *t = u8::try_from(exp).expect("max_backtracks ≤ 256");
    match outcome {
        StepOutcome::Accepted { .. } => counts.accepted += 1,
        StepOutcome::Rejected => counts.rejected += 1,
        StepOutcome::Stationary => counts.stationary += 1,
    }
    outcome
}

/// Fixed-step variant (ablation: `line_search = false`). Always applies
/// `(own − α ∇Q)₊`, even when that makes the objective *worse* — that is
/// the point of the ablation.
pub fn fixed_step(own: &mut [f64], grad: &[f64], alpha: f64, candidate: &mut [f64]) {
    ops::projected_step(own, grad, alpha, candidate);
    own.copy_from_slice(candidate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::{negative_sum, PosWeights};
    use ocular_linalg::Matrix;

    fn params() -> LineSearch {
        LineSearch {
            sigma: 0.1,
            beta: 0.5,
            max_backtracks: 30,
        }
    }

    /// A small concrete subproblem: one positive counterpart, light
    /// regularisation.
    fn setup() -> (Matrix, Vec<u32>, Vec<f64>) {
        let other = Matrix::from_rows(&[&[1.0, 0.2], &[0.1, 0.1]]);
        let positives = vec![0u32];
        let sum = other.column_sums();
        let mut negsum = vec![0.0; 2];
        negative_sum(&other, &sum, &positives, &mut negsum);
        (other, positives, negsum)
    }

    fn problem<'a>(other: &'a Matrix, positives: &'a [u32], negsum: &'a [f64]) -> LocalProblem<'a> {
        LocalProblem {
            positives,
            other,
            weights: PosWeights::Uniform(1.0),
            negsum,
            lambda: 0.1,
            fixed_dim: None,
        }
    }

    /// One search on `own` from exponent `t`; returns the outcome, the
    /// new row, the remembered exponent and the counts.
    fn step_from(
        problem: &LocalProblem<'_>,
        own: &[f64],
        params: &LineSearch,
        t: u8,
    ) -> (StepOutcome, Vec<f64>, u8, SearchCounts) {
        let mut own = own.to_vec();
        let mut grad = vec![0.0; own.len()];
        let q0 = problem.objective_and_gradient(&own, &mut grad);
        let mut scratch = vec![0.0; own.len()];
        let (mut t, mut counts) = (t, SearchCounts::default());
        let outcome = armijo_step(
            &mut own,
            &grad,
            q0,
            problem,
            params,
            &mut scratch,
            &mut t,
            &mut counts,
        );
        (outcome, own, t, counts)
    }

    #[test]
    fn accepted_step_decreases_objective() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        let own = vec![0.5, 0.5];
        let q0 = problem.objective(&own);
        let (outcome, row, _, counts) = step_from(&problem, &own, &params(), 0);
        match outcome {
            StepOutcome::Accepted { q_new, alpha } => {
                assert!(q_new < q0, "objective must decrease: {q_new} vs {q0}");
                assert!(alpha > 0.0 && alpha <= 1.0);
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert!(
            row.iter().all(|&v| v >= 0.0),
            "projection keeps non-negativity"
        );
        assert_eq!(counts.accepted, 1);
        assert!(counts.trials >= 1);
    }

    #[test]
    fn every_start_exponent_accepts_the_cold_step() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        let params = params();
        for own in [
            vec![0.5, 0.5],
            vec![0.01, 0.01],
            vec![2.0, 0.1],
            vec![0.05, 1.5],
        ] {
            let (cold, cold_row, cold_t, _) = step_from(&problem, &own, &params, 0);
            assert!(matches!(cold, StepOutcome::Accepted { .. }), "{cold:?}");
            for start in 0..params.max_backtracks as u8 {
                let (warm, warm_row, warm_t, _) = step_from(&problem, &own, &params, start);
                assert_eq!(warm, cold, "start t={start} from {own:?}");
                assert_eq!(warm_row, cold_row, "start t={start} from {own:?}");
                assert_eq!(warm_t, cold_t, "start t={start} from {own:?}");
            }
        }
    }

    #[test]
    fn remembered_step_needs_fewer_trials() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        // near zero the positive's pull is steep: α = 1 overshoots
        let own = vec![0.01, 0.01];
        let (_, _, t, cold) = step_from(&problem, &own, &params(), 0);
        assert!(t > 1, "the test point must need backtracking, got t={t}");
        let (_, _, _, warm) = step_from(&problem, &own, &params(), t);
        // the remembered step passes, the probe one above it fails
        assert_eq!(warm.trials, 2);
        assert_eq!(cold.trials, u64::from(t) + 1);
    }

    #[test]
    fn row_failing_everywhere_is_rejected_and_parked_at_the_floor() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        let params = LineSearch {
            max_backtracks: 6,
            ..params()
        };
        let own = vec![0.5, 0.5];
        let mut grad = vec![0.0; 2];
        let q0 = problem.objective_and_gradient(&own, &mut grad);
        // an ascent direction: no step along it can pass Armijo
        let ascent: Vec<f64> = grad.iter().map(|g| -g).collect();
        for start in 0..params.max_backtracks as u8 {
            let mut row = own.clone();
            let mut scratch = vec![0.0; 2];
            let (mut t, mut counts) = (start, SearchCounts::default());
            let outcome = armijo_step(
                &mut row,
                &ascent,
                q0,
                &problem,
                &params,
                &mut scratch,
                &mut t,
                &mut counts,
            );
            assert_eq!(outcome, StepOutcome::Rejected);
            assert_eq!(row, own, "a rejected row is left untouched");
            assert_eq!(t, 5, "parks at the floor max_backtracks − 1");
            assert_eq!(counts.rejected, 1);
            assert_eq!(counts.trials, u64::from(6 - start));
        }
    }

    #[test]
    fn repeated_steps_converge_to_stationary_point() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        let mut own = vec![0.5, 0.5];
        let mut grad = vec![0.0; 2];
        let mut scratch = vec![0.0; 2];
        let (mut t, mut counts) = (0u8, SearchCounts::default());
        for _ in 0..200 {
            let q = problem.objective_and_gradient(&own, &mut grad);
            let outcome = armijo_step(
                &mut own,
                &grad,
                q,
                &problem,
                &params(),
                &mut scratch,
                &mut t,
                &mut counts,
            );
            if !matches!(outcome, StepOutcome::Accepted { .. }) {
                break;
            }
        }
        // at a stationary point the projected gradient must (approximately)
        // vanish: grad ≥ 0 where own = 0, grad ≈ 0 where own > 0
        problem.gradient(&own, &mut grad);
        for (o, g) in own.iter().zip(&grad) {
            if *o > 1e-9 {
                assert!(g.abs() < 1e-4, "free coordinate gradient {g} should vanish");
            } else {
                assert!(*g > -1e-4, "active coordinate gradient {g} should be ≥ 0");
            }
        }
    }

    #[test]
    fn stationary_zero_row_detected() {
        // no positives: objective = ⟨own, negsum⟩ + λ‖own‖², negsum ≥ 0,
        // so own = 0 is optimal and the step must not move
        let other = Matrix::from_rows(&[&[0.4, 0.6]]);
        let positives: Vec<u32> = vec![];
        let sum = other.column_sums();
        let mut negsum = vec![0.0; 2];
        negative_sum(&other, &sum, &positives, &mut negsum);
        let problem = problem(&other, &positives, &negsum);
        for start in [0u8, 7, 29] {
            let (outcome, row, t, counts) = step_from(&problem, &[0.0, 0.0], &params(), start);
            assert_eq!(outcome, StepOutcome::Stationary);
            assert_eq!(row, vec![0.0, 0.0]);
            assert_eq!(t, 0, "a still row probes up to α = 1");
            assert_eq!(counts.stationary, 1);
        }
    }

    #[test]
    fn fixed_dim_never_moves() {
        let (other, positives, negsum) = setup();
        let problem = LocalProblem {
            fixed_dim: Some(1),
            ..problem(&other, &positives, &negsum)
        };
        let (_, row, _, _) = step_from(&problem, &[0.5, 1.0], &params(), 0);
        assert_eq!(row[1], 1.0, "frozen dimension must stay at 1.0");
    }

    #[test]
    fn fixed_step_applies_unconditionally() {
        let (other, positives, negsum) = setup();
        let problem = problem(&other, &positives, &negsum);
        let mut own = vec![0.5, 0.5];
        let mut grad = vec![0.0; 2];
        problem.gradient(&own, &mut grad);
        let before = own.clone();
        let mut scratch = vec![0.0; 2];
        fixed_step(&mut own, &grad, 0.05, &mut scratch);
        assert_ne!(own, before, "fixed step must move the row");
        assert!(own.iter().all(|&v| v >= 0.0));
    }
}
