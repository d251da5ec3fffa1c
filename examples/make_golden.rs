//! Regenerates the pinned v3 half of the golden-snapshot corpus under
//! `tests/data/golden/` from its committed text half.
//!
//! The text goldens — one legacy **v1** OCuLaR snapshot plus **v2**
//! snapshots for every model kind in the zoo, all with external id maps
//! embedded — are the historical record and are never rewritten. This
//! example imports each `v2-<kind>.snap` and writes its v3 encoding to
//! `v3-<kind>.snap`, plus the quantized `v3-ocular-{f32,int8}.snap` from
//! the same imported OCuLaR model. `tests/golden_snapshots.rs` asserts
//! that every text golden imports to its pinned v3 golden byte for
//! byte, so re-running this on an unchanged codec leaves
//! `git diff --exit-code tests/data/golden/` clean; a diff means the v3
//! encoding or the import changed.
//!
//! Run with: `cargo run --release --example make_golden`

use ocular::serve::{AnySnapshot, QuantDtype};

const KINDS: [&str; 6] = [
    "ocular",
    "wals",
    "bpr",
    "user-knn",
    "item-knn",
    "popularity",
];

fn write(path: &std::path::Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("write golden");
    println!("wrote {} ({} bytes)", path.display(), bytes.len());
}

fn main() {
    let dir = std::path::Path::new("tests/data/golden");
    for kind in KINDS {
        let text = std::fs::read(dir.join(format!("v2-{kind}.snap"))).expect("read text golden");
        let loaded = AnySnapshot::import_text(&mut text.as_slice()).expect("import text golden");
        let (ids, meta) = (loaded.ids.as_ref(), loaded.meta.as_ref());
        let v3 = loaded
            .snapshot
            .to_v3_bytes_full(ids, meta)
            .expect("encode v3");
        write(&dir.join(format!("v3-{kind}.snap")), &v3);
        // the quantized era: the same model with its f32 and int8
        // item-factor sections
        if let AnySnapshot::Ocular(s) = &loaded.snapshot {
            for dtype in [QuantDtype::F32, QuantDtype::I8] {
                let q = AnySnapshot::Ocular(s.clone().with_quantization(dtype));
                let v3 = q.to_v3_bytes_full(ids, meta).expect("encode v3");
                write(&dir.join(format!("v3-ocular-{}.snap", dtype.name())), &v3);
            }
        }
    }
}
