//! Golden-snapshot compatibility contract over the committed corpus under
//! `tests/data/golden/`:
//!
//! * the text half — one legacy v1 OCuLaR snapshot plus v2 snapshots for
//!   all six model kinds, external id maps embedded — must **import**
//!   forever, and re-encode as v3 to the pinned `v3-<kind>.snap` byte for
//!   byte (so the import is bitwise faithful to the historical bytes);
//! * the pinned v3 half must load and re-encode to its exact bytes.
//!
//! Regenerate the v3 half only when the v3 encoding changes on purpose:
//! `cargo run --release --example make_golden` (see that example's docs).

use ocular::bytes::ModelBytes;
use ocular::serve::{AnySnapshot, LoadedSnapshot};
use std::path::PathBuf;

const KINDS: [&str; 6] = [
    "ocular",
    "wals",
    "bpr",
    "user-knn",
    "item-knn",
    "popularity",
];

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn import(name: &str) -> LoadedSnapshot {
    AnySnapshot::import_text(&mut golden(name).as_slice())
        .unwrap_or_else(|e| panic!("{name}: golden must import: {e}"))
}

fn reencode(loaded: &LoadedSnapshot) -> Vec<u8> {
    loaded
        .snapshot
        .to_v3_bytes_full(loaded.ids.as_ref(), loaded.meta.as_ref())
        .unwrap()
}

#[test]
fn v2_goldens_load_and_reserialize_bit_identically_for_every_kind() {
    for kind in KINDS {
        let loaded = import(&format!("v2-{kind}.snap"));
        assert_eq!(loaded.snapshot.kind(), kind);
        let ids = loaded
            .ids
            .as_ref()
            .unwrap_or_else(|| panic!("kind {kind}: golden embeds id maps"));
        // the corpus generator attached user u ↔ 1000+7u, item i ↔ 500+3i
        assert_eq!(ids.users()[1], 1_007, "kind {kind}");
        assert_eq!(ids.items()[2], 506, "kind {kind}");
        // the import re-encodes to the exact pinned v3 bytes — the parse
        // is bitwise faithful, forever
        assert_eq!(
            reencode(&loaded),
            golden(&format!("v3-{kind}.snap")),
            "kind {kind}: text golden must import to its pinned v3 golden"
        );
    }
}

#[test]
fn v1_golden_loads_through_both_loaders() {
    let bytes = golden("v1-ocular.snap");
    assert!(bytes.starts_with(b"ocular-snapshot v1\n"));
    let v1 = import("v1-ocular.snap");
    assert_eq!(v1.snapshot.kind(), "ocular");
    assert!(v1.ids.is_none(), "the v1 era predates id-map sections");
    // the file loader sniffs the (absent) v3 magic and imports it too
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden/v1-ocular.snap");
    let via_path = AnySnapshot::load_path_full(&path).expect("v1 must load from its path");
    assert_eq!(reencode(&via_path), reencode(&v1));
    // v1 is the v2 ocular body under the older header: with the v2
    // golden's id maps it encodes to the pinned v3 golden
    let v2 = import("v2-ocular.snap");
    assert_eq!(
        v1.snapshot.to_v3_bytes_full(v2.ids.as_ref(), None).unwrap(),
        golden("v3-ocular.snap"),
        "v1 golden must import bit-identically to the v2 body"
    );
}

#[test]
fn quantized_v3_goldens_load_and_reserialize_bit_identically() {
    // the quantized era of the v3 container: the committed f32 and int8
    // goldens must load with their quantized sections intact and
    // re-serialise to the exact committed bytes, forever
    for tag in ["f32", "int8"] {
        let bytes = golden(&format!("v3-ocular-{tag}.snap"));
        let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes.clone()))
            .unwrap_or_else(|e| panic!("{tag}: golden must load: {e}"));
        assert_eq!(loaded.snapshot.kind(), "ocular");
        let ids = loaded
            .ids
            .as_ref()
            .unwrap_or_else(|| panic!("{tag}: golden embeds id maps"));
        assert_eq!(ids.users()[1], 1_007, "{tag}");
        assert_eq!(ids.items()[2], 506, "{tag}");
        match &loaded.snapshot {
            AnySnapshot::Ocular(s) => assert_eq!(
                s.quant.as_ref().map(|q| q.dtype().name()),
                Some(tag),
                "golden must carry its quantized section"
            ),
            AnySnapshot::Other(_) => panic!("{tag}: must load as the ocular kind"),
        }
        assert_eq!(
            reencode(&loaded),
            bytes,
            "{tag}: quantized golden must re-serialise bit-identically"
        );
    }
}

#[test]
fn goldens_survive_a_binary_v3_cycle_bit_identically() {
    // every pinned v3 golden loads and re-encodes to its exact bytes, and
    // serves the same scores as the text golden it was imported from
    for kind in KINDS {
        let bytes = golden(&format!("v3-{kind}.snap"));
        let loaded = AnySnapshot::load_v3_full(ModelBytes::from_vec(bytes.clone())).unwrap();
        assert_eq!(loaded.snapshot.kind(), kind);
        assert_eq!(
            reencode(&loaded),
            bytes,
            "kind {kind}: a v3 cycle must preserve the golden bit-for-bit"
        );
        let text = import(&format!("v2-{kind}.snap"));
        assert_eq!(loaded.ids, text.ids, "kind {kind}");
        let scores = |s: &AnySnapshot, u: usize| {
            let mut out = Vec::new();
            match s {
                AnySnapshot::Ocular(s) => {
                    ocular::api::ScoreItems::score_user(&s.model, u, &mut out)
                }
                AnySnapshot::Other(m) => m.score_user(u, &mut out),
            }
            out
        };
        for u in 0..30 {
            assert_eq!(
                scores(&loaded.snapshot, u),
                scores(&text.snapshot, u),
                "kind {kind}: user {u}"
            );
        }
    }
}
