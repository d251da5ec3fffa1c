//! Trait-conformance suite: every model kind in the workspace zoo must
//! honour the `ocular-api` hierarchy contracts identically —
//!
//! 1. the default [`Recommender::recommend`] equals brute-force
//!    sort-and-truncate under heavy ties (the shared `ocular_linalg::topk`
//!    kernel's convention: score descending, ties by ascending item);
//! 2. kind-tagged v3 snapshots round-trip **bitwise** through
//!    [`AnySnapshot`], and agree with the committed text goldens they
//!    were imported from;
//! 3. legacy v1 OCuLaR snapshots still import;
//! 4. the serving engine's batched output equals offline `recommend` for
//!    every kind, at 1/2/4/8 threads.

use ocular::bytes::ModelBytes;
use ocular::datasets::planted::{generate, PlantedConfig};
use ocular::prelude::*;
use ocular::serve::{IndexConfig, LoadedSnapshot};

fn dataset() -> ocular::sparse::Dataset {
    generate(&PlantedConfig {
        n_users: 50,
        n_items: 40,
        k: 3,
        users_per_cluster: 18,
        items_per_cluster: 15,
        user_overlap: 0.3,
        item_overlap: 0.3,
        within_density: 0.6,
        noise_density: 0.01,
        seed: 21,
    })
    .matrix
}

fn ocular_model(r: &ocular::sparse::Dataset) -> FactorModel {
    fit(
        r,
        &OcularConfig {
            k: 3,
            lambda: 0.3,
            max_iters: 30,
            seed: 4,
            ..Default::default()
        },
    )
    .model
}

/// Every model kind as a kind-tagged snapshot (the serving artifact).
fn snapshot_zoo(r: &ocular::sparse::Dataset) -> Vec<AnySnapshot> {
    let cfgs = BaselineConfigs::seeded(7);
    vec![
        AnySnapshot::Ocular(ocular::serve::Snapshot::build(
            ocular_model(r),
            &IndexConfig::default(),
        )),
        AnySnapshot::Other(Box::new(Wals::fit(
            r,
            &WalsConfig {
                k: 3,
                iters: 8,
                ..cfgs.wals
            },
        ))),
        AnySnapshot::Other(Box::new(Bpr::fit(
            r,
            &BprConfig {
                k: 3,
                epochs: 10,
                ..cfgs.bpr
            },
        ))),
        AnySnapshot::Other(Box::new(UserKnn::fit(r, &cfgs.user_knn))),
        AnySnapshot::Other(Box::new(ItemKnn::fit(r, &cfgs.item_knn))),
        AnySnapshot::Other(Box::new(Popularity::fit(r))),
    ]
}

/// Encodes a snapshot as v3 (no ids, no metadata) and loads it back.
fn v3_cycle(snap: &AnySnapshot) -> (Vec<u8>, LoadedSnapshot) {
    let v3 = snap.to_v3_bytes_full(None, None).unwrap();
    let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(v3.clone())).unwrap();
    (v3, loaded)
}

/// A committed golden snapshot (`tests/data/golden/<name>`).
fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scores user `u` through whichever model a snapshot carries.
fn scores_of(snap: &AnySnapshot, u: usize) -> Vec<f64> {
    let mut out = Vec::new();
    match snap {
        AnySnapshot::Ocular(s) => s.model.score_user(u, &mut out),
        AnySnapshot::Other(m) => m.score_user(u, &mut out),
    }
    out
}

/// Offline reference lists via the trait-default `recommend`.
fn recommend_of(snap: &AnySnapshot, u: usize, exclude: &[u32], m: usize) -> Vec<ScoredItem> {
    match snap {
        AnySnapshot::Ocular(s) => s.model.recommend(u, exclude, m).unwrap(),
        AnySnapshot::Other(model) => model.recommend(u, exclude, m).unwrap(),
    }
}

/// Reference implementation: full sort (score descending, ties by
/// ascending item), truncate.
fn by_sort(scores: &[f64], exclude: &[u32], m: usize) -> Vec<ScoredItem> {
    let mut all: Vec<ScoredItem> = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| exclude.binary_search(&(*i as u32)).is_err())
        .map(|(item, &score)| ScoredItem { item, score })
        .collect();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| a.item.cmp(&b.item))
    });
    all.truncate(m);
    all
}

#[test]
fn default_recommend_equals_sort_under_heavy_ties_for_every_kind() {
    let r = dataset();
    let mut tie_witnessed = false;
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        for u in 0..r.n_rows() {
            let scores = scores_of(&snap, u);
            // heavy ties actually occur (popularity/kNN score by counts)
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            tie_witnessed |= sorted.windows(2).any(|w| w[0] == w[1]);
            for m in [0usize, 1, 3, 10, r.n_cols() + 5] {
                let got = recommend_of(&snap, u, r.row(u), m);
                let want = by_sort(&scores, r.row(u), m);
                assert_eq!(got, want, "kind {kind}, user {u}, m {m}");
            }
        }
    }
    assert!(tie_witnessed, "fixture must actually produce tied scores");
}

#[test]
fn unknown_users_rejected_for_every_kind() {
    let r = dataset();
    for snap in snapshot_zoo(&r) {
        let err = match &snap {
            AnySnapshot::Ocular(s) => s.model.recommend(10_000, &[], 3).unwrap_err(),
            AnySnapshot::Other(m) => m.recommend(10_000, &[], 3).unwrap_err(),
        };
        assert!(
            matches!(err, OcularError::UnknownUser { user: 10_000, .. }),
            "kind {}: {err}",
            snap.kind()
        );
    }
}

#[test]
fn snapshots_roundtrip_bitwise_for_every_kind() {
    let r = dataset();
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        let (v3, loaded) = v3_cycle(&snap);
        let loaded = loaded.snapshot;
        assert_eq!(loaded.kind(), kind);
        for u in 0..r.n_rows() {
            assert_eq!(
                scores_of(&loaded, u),
                scores_of(&snap, u),
                "kind {kind}: user {u} scores must round-trip bitwise"
            );
            assert_eq!(
                recommend_of(&loaded, u, r.row(u), 10),
                recommend_of(&snap, u, r.row(u), 10),
                "kind {kind}: user {u} lists must round-trip bitwise"
            );
        }
        // and the serialised bytes are a fixed point
        assert_eq!(
            v3_cycle(&loaded).0,
            v3,
            "kind {kind}: serialisation must be stable"
        );
    }
}

#[test]
fn v3_binary_snapshots_agree_with_text_bitwise_for_every_kind() {
    // every pinned v3 golden serves exactly what the text golden it was
    // imported from serves
    for kind in [
        "ocular",
        "wals",
        "bpr",
        "user-knn",
        "item-knn",
        "popularity",
    ] {
        let text = AnySnapshot::import_text(&mut golden(&format!("v2-{kind}.snap")).as_slice())
            .unwrap()
            .snapshot;
        let v3 = golden(&format!("v3-{kind}.snap"));
        let binary = AnySnapshot::load_v3_full(ModelBytes::from_vec(v3.clone()))
            .unwrap()
            .snapshot;
        assert_eq!((text.kind(), binary.kind()), (kind, kind));
        for u in 0..30 {
            assert_eq!(
                scores_of(&binary, u),
                scores_of(&text, u),
                "kind {kind}: user {u}: binary↔text must agree bitwise"
            );
        }
        // binary serialisation is a fixed point too
        assert_eq!(
            v3_cycle(&binary).0,
            v3_cycle(&text).0,
            "kind {kind}: v3 serialisation must be stable"
        );
    }
}

#[test]
fn quantized_v3_snapshots_roundtrip_bitwise_through_the_zoo_harness() {
    let r = dataset();
    for dtype in [QuantDtype::F32, QuantDtype::I8] {
        let snap = ocular::serve::Snapshot::build(ocular_model(&r), &IndexConfig::default())
            .with_quantization(dtype);
        let (v3, loaded) = v3_cycle(&AnySnapshot::Ocular(snap.clone()));
        assert!(loaded.ids.is_none());
        let AnySnapshot::Ocular(cycled) = loaded.snapshot else {
            panic!("quantized snapshot must stay the ocular kind")
        };
        assert_eq!(
            cycled, snap,
            "{dtype}: model, index and quantized sections must round-trip"
        );
        // binary serialisation is a fixed point — bit-for-bit
        assert_eq!(
            v3_cycle(&AnySnapshot::Ocular(cycled)).0,
            v3,
            "{dtype}: v3 serialisation must be stable"
        );
    }
}

#[test]
fn v1_ocular_snapshots_still_load() {
    let import = |name: &str| AnySnapshot::import_text(&mut golden(name).as_slice()).unwrap();
    let v1 = import("v1-ocular.snap");
    assert!(v1.ids.is_none(), "the v1 era predates id maps");
    // a v1 snapshot is the v2 body under the older envelope header
    match (v1.snapshot, import("v2-ocular.snap").snapshot) {
        (AnySnapshot::Ocular(a), AnySnapshot::Ocular(b)) => assert_eq!(a, b),
        _ => panic!("v1 and v2 ocular snapshots must import as the ocular kind"),
    }
}

#[test]
fn serve_batch_equals_offline_recommend_for_every_kind_across_threads() {
    let r = dataset();
    let m = 10;
    for snap in snapshot_zoo(&r) {
        let kind = snap.kind();
        // offline reference before the engine consumes the snapshot
        let expected: Vec<Vec<ScoredItem>> = (0..r.n_rows())
            .map(|u| recommend_of(&snap, u, r.row(u), m))
            .collect();
        let engine = EngineBuilder::from_snapshot(snap)
            .dataset(r.clone())
            .config(ServeConfig {
                default_m: m,
                candidates: CandidatePolicy::FullCatalog,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert_eq!(engine.kind(), kind);
        let requests: Vec<Request> = (0..r.n_rows())
            .map(|user| Request::Warm { user, m })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let served = engine.serve_batch_threads(&requests, Some(threads));
            for (u, (got, want)) in served.iter().zip(&expected).enumerate() {
                let got = got.as_ref().expect("warm users must serve");
                assert_eq!(
                    got.items.len(),
                    want.len(),
                    "kind {kind}, user {u}, {threads} threads"
                );
                for (a, b) in got.items.iter().zip(want) {
                    assert_eq!(
                        (a.item, a.probability),
                        (b.item, b.score),
                        "kind {kind}, user {u}, {threads} threads: bitwise"
                    );
                }
            }
        }
    }
}
