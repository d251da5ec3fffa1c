//! Snapshot load-time measurement shared by the `probe` and
//! `serve_latency` bench bins — the number behind the v3 format's
//! "engine start-up is O(1), not a parse" claim, gated in CI by
//! `bench_gate` against the committed baseline.

use ocular_serve::AnySnapshot;
use ocular_sparse::IdMaps;
use std::time::Instant;

/// Median wall-clock seconds to load the snapshot's v3 encoding from
/// disk, measured over `reps` runs through the production loader
/// ([`AnySnapshot::load_path_full`], which memory-maps v3 containers).
pub fn snapshot_load_seconds(snap: &AnySnapshot, ids: Option<&IdMaps>, reps: usize) -> f64 {
    let path = std::env::temp_dir().join(format!("ocular-bench-{}.v3snap", std::process::id()));
    let bytes = snap.to_v3_bytes_full(ids, None).expect("encode snapshot");
    std::fs::write(&path, bytes).expect("write snapshot");
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let loaded = AnySnapshot::load_path_full(&path).expect("load snapshot");
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(loaded.snapshot.kind());
            dt
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}
