//! Property-based invariants of the training loop.

use ocular_api::{SectionReader, SectionWriter, SnapshotModel};
use ocular_core::loss::{objective, objective_naive, user_weights};
use ocular_core::{fit, FactorModel, OcularConfig, Weighting};
use ocular_linalg::Matrix;
use ocular_sparse::{CsrMatrix, Triplets};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..10, 2usize..10).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..m), 1..40).prop_map(move |pairs| {
            let mut t = Triplets::new(n, m);
            t.extend_pairs(pairs).unwrap();
            t.into_csr()
        })
    })
}

fn arb_model(n: usize, m: usize) -> impl Strategy<Value = FactorModel> {
    (1usize..4).prop_flat_map(move |k| {
        (
            proptest::collection::vec(0.0f64..2.0, n * k),
            proptest::collection::vec(0.0f64..2.0, m * k),
        )
            .prop_map(move |(u, i)| {
                FactorModel::new(Matrix::from_vec(n, k, u), Matrix::from_vec(m, k, i), false)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn objective_sum_trick_matches_naive(r in arb_matrix(), seed in 0u64..1000, lambda in 0.0f64..2.0) {
        let strategy = arb_model(r.n_rows(), r.n_cols());
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let model = strategy.new_tree(&mut runner).unwrap().current();
        let _ = seed;
        for weighting in [Weighting::Absolute, Weighting::Relative] {
            let w = user_weights(&r, weighting);
            let fast = objective(&r, &model, lambda, &w);
            let naive = objective_naive(&r, &model, lambda, &w);
            let tol = 1e-8 * (1.0 + fast.abs());
            prop_assert!((fast - naive).abs() < tol, "fast {} vs naive {}", fast, naive);
        }
    }

    #[test]
    fn training_is_monotone_and_nonnegative(r in arb_matrix(), seed in 0u64..1000) {
        let cfg = OcularConfig {
            k: 3,
            lambda: 0.1,
            max_iters: 10,
            seed,
            ..Default::default()
        };
        let result = fit(&r.clone().into(), &cfg);
        for w in result.history.objective.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-7, "objective rose: {} -> {}", w[0], w[1]);
        }
        prop_assert!(result.model.user_factors.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert!(result.model.item_factors.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn probabilities_always_valid(r in arb_matrix(), seed in 0u64..1000) {
        let cfg = OcularConfig { k: 2, lambda: 0.1, max_iters: 5, seed, ..Default::default() };
        let result = fit(&r.clone().into(), &cfg);
        for u in 0..r.n_rows() {
            for i in 0..r.n_cols() {
                let p = result.model.prob(u, i);
                prop_assert!((0.0..=1.0).contains(&p), "p({u},{i}) = {p}");
            }
        }
    }

    #[test]
    fn relative_weighting_also_monotone(r in arb_matrix(), seed in 0u64..500) {
        let cfg = OcularConfig {
            k: 2,
            lambda: 0.1,
            max_iters: 8,
            seed,
            weighting: Weighting::Relative,
            ..Default::default()
        };
        let result = fit(&r.clone().into(), &cfg);
        for w in result.history.objective.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-7);
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_model(r in arb_matrix(), seed in 0u64..100) {
        let cfg = OcularConfig { k: 2, lambda: 0.2, max_iters: 3, seed, ..Default::default() };
        let model = fit(&r.clone().into(), &cfg).model;
        let mut w = SectionWriter::new(FactorModel::KIND);
        model.write_sections(&mut w).unwrap();
        let region = ocular_bytes::ModelBytes::from_vec(w.finish());
        let loaded = FactorModel::read_sections(&SectionReader::open(region).unwrap()).unwrap();
        prop_assert_eq!(loaded, model);
    }
}
