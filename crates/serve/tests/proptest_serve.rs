//! Property-based guards for the serving subsystem.
//!
//! 1. The bounded-heap top-M kernel equals sort-based selection on random
//!    score vectors — including heavy ties, which is where a wrong
//!    comparator or heap invariant would diverge.
//! 2. Snapshots round-trip exactly through the v3 container, and
//!    truncated or corrupted v1/v2 text snapshots are rejected (or import
//!    the same shape) rather than mis-loaded or panicking.

use ocular_bytes::ModelBytes;
use ocular_core::topm::top_m_excluding;
use ocular_core::{FactorModel, Recommendation};
use ocular_linalg::Matrix;
use ocular_serve::{AnySnapshot, IndexConfig, Snapshot};
use proptest::prelude::*;

/// Reference: score everything, full sort (probability descending, ties by
/// ascending item), truncate — the selection the heap kernel replaced.
fn sort_based(scores: &[f64], exclude: &[u32], m: usize) -> Vec<Recommendation> {
    let mut all: Vec<Recommendation> = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| exclude.binary_search_by(|&e| (e as usize).cmp(i)).is_err())
        .map(|(item, &probability)| Recommendation { item, probability })
        .collect();
    all.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("finite")
            .then_with(|| a.item.cmp(&b.item))
    });
    all.truncate(m);
    all
}

/// Score vectors drawn from a *small* value set so ties are common, plus a
/// sorted exclusion list over the same index range.
fn arb_scores() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (1usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..6, n),
            proptest::collection::btree_set(0..n as u32, 0..n.min(20)),
        )
            .prop_map(|(levels, excl)| {
                let scores: Vec<f64> = levels.into_iter().map(|l| l as f64 / 5.0).collect();
                (scores, excl.into_iter().collect::<Vec<u32>>())
            })
    })
}

fn arb_model() -> impl Strategy<Value = FactorModel> {
    (1usize..6, 1usize..8, 1usize..4).prop_flat_map(|(n_users, n_items, k)| {
        (
            proptest::collection::vec(0u8..40, n_users * k),
            proptest::collection::vec(0u8..40, n_items * k),
        )
            .prop_map(move |(u, i)| {
                let scale = |v: Vec<u8>| v.into_iter().map(|x| x as f64 / 10.0).collect();
                FactorModel::new(
                    Matrix::from_vec(n_users, k, scale(u)),
                    Matrix::from_vec(n_items, k, scale(i)),
                    false,
                )
            })
    })
}

proptest! {
    #[test]
    fn heap_equals_sort_including_ties((scores, exclude) in arb_scores(), m in 0usize..60) {
        let heap = top_m_excluding(&scores, &exclude, m);
        let sorted = sort_based(&scores, &exclude, m);
        prop_assert_eq!(heap, sorted);
    }

    #[test]
    fn snapshot_roundtrips_exactly(model in arb_model(), rel in 0.1f64..=1.0, floor in 0usize..8) {
        let snap = Snapshot::build(model, &IndexConfig { rel, floor });
        let v3 = AnySnapshot::Ocular(snap.clone()).to_v3_bytes_full(None, None).unwrap();
        let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(v3)).unwrap();
        let AnySnapshot::Ocular(loaded) = loaded.snapshot else {
            panic!("ocular snapshot must load as ocular")
        };
        prop_assert_eq!(loaded, snap);
    }

    #[test]
    fn corrupted_snapshots_never_misload(golden_ix in 0usize..GOLDENS.len(), pos in 0usize..12_000, byte in 0u8..=255) {
        let original = golden(GOLDENS[golden_ix]);
        let want = AnySnapshot::import_text(&mut original.as_slice()).unwrap();
        let mut buf = original;
        let pos = pos % buf.len();
        if buf[pos] == byte {
            return Ok(()); // not a corruption
        }
        buf[pos] = byte;
        // either rejected, or the import is still self-consistent — but it
        // must never panic, and a "successful" import keeps the shape
        if let Ok(got) = AnySnapshot::import_text(&mut buf.as_slice()) {
            prop_assert_eq!(got.snapshot.kind(), want.snapshot.kind());
            prop_assert_eq!(shape(&got.snapshot), shape(&want.snapshot));
        }
    }
}

/// Every committed v1/v2 text golden.
const GOLDENS: [&str; 7] = [
    "v1-ocular",
    "v2-ocular",
    "v2-wals",
    "v2-bpr",
    "v2-user-knn",
    "v2-item-knn",
    "v2-popularity",
];

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/golden")
        .join(format!("{name}.snap"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(users, items)` of whichever model a snapshot carries.
fn shape(snap: &AnySnapshot) -> (usize, usize) {
    match snap {
        AnySnapshot::Ocular(s) => (s.model.n_users(), s.model.n_items()),
        AnySnapshot::Other(m) => (m.n_users(), m.n_items()),
    }
}

#[test]
fn truncated_snapshots_rejected() {
    for name in GOLDENS {
        let text = golden(name);
        assert!(
            AnySnapshot::import_text(&mut text.as_slice()).is_ok(),
            "{name}"
        );
        // dropping only the final newline still leaves a complete
        // document, so every cut up to and including one byte of the
        // footer sentinel itself must fail
        for cut in 0..text.len() - 1 {
            assert!(
                AnySnapshot::import_text(&mut &text[..cut]).is_err(),
                "{name}: importing only {cut}/{} bytes must fail",
                text.len()
            );
        }
    }
}
