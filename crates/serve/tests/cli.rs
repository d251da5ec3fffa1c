//! End-to-end checks of the `serve` binary's command line: `--train`
//! writes only v3, rejects bad flags before any work, and serving a
//! legacy text snapshot answers exactly like its pinned v3 encoding.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// The tiny edge list every case trains or serves against: two users over
/// the golden corpus's external id space (user u ↔ 1000+7u, item i ↔
/// 500+3i).
const EDGES: &str = "1000\t500\n1007\t503\n";

/// A fresh scratch directory holding [`EDGES`].
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocular-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("edges.tsv"), EDGES).unwrap();
    dir
}

fn serve(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    std::io::Write::write_all(&mut child.stdin.take().unwrap(), stdin.as_bytes()).unwrap();
    child.wait_with_output().unwrap()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Runs `serve --train` on [`EDGES`] into `dir/out.snap` with extra flags
/// (placed first: the first occurrence of a flag wins).
fn train(dir: &Path, extra: &[&str]) -> Output {
    let (edges, out) = (dir.join("edges.tsv"), dir.join("out.snap"));
    let mut args = vec!["--train", path(&edges), "--snapshot", path(&out)];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--k", "2", "--iters", "3"]);
    serve(&args, "")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn train_writes_v3_by_default() {
    let dir = scratch("default");
    let out = train(&dir, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    let bytes = std::fs::read(dir.join("out.snap")).unwrap();
    assert!(bytes.starts_with(b"OCULAR3\0"));
    // `--format binary` is still accepted and writes the same container
    let out = train(&dir, &["--format", "binary"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(std::fs::read(dir.join("out.snap")).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_format_is_import_only() {
    let dir = scratch("text");
    let out = train(&dir, &["--format", "text"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("import-only"), "{}", stderr(&out));
    assert!(!dir.join("out.snap").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_shards_fail_before_any_snapshot_is_written() {
    let dir = scratch("shards");
    let out = train(&dir, &["--shards", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shards"), "{}", stderr(&out));
    assert!(!dir.join("out.snap").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_numbers_are_errors_naming_the_flag() {
    let dir = scratch("num");
    for (flag, value) in [("--k", "abc"), ("--k", "1O"), ("--shards", "two")] {
        let out = train(&dir, &[flag, value]);
        assert!(!out.status.success(), "{flag} {value}");
        let err = stderr(&out);
        assert!(err.contains(flag) && err.contains(value), "{err}");
        assert!(!dir.join("out.snap").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_and_v3_goldens_serve_identical_lines() {
    let dir = scratch("goldens");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden");
    let requests = "{\"user_id\":1007,\"m\":2}\n{\"basket_ids\":[500,503],\"m\":2}\n";
    let edges = dir.join("edges.tsv");
    let answer = |name: &str| {
        let snap = golden.join(name);
        let out = serve(
            &["--model", path(&snap), "--interactions", path(&edges)],
            requests,
        );
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        String::from_utf8(out.stdout).unwrap()
    };
    let text = answer("v2-ocular.snap");
    assert_eq!(text.lines().count(), 2, "{text}");
    // the answer the text-writing releases gave for these requests
    assert!(
        text.lines().all(|l| l.contains("\"item_ids\":[551,548]")),
        "{text}"
    );
    assert_eq!(answer("v3-ocular.snap"), text);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_reports_sections_and_id_maps() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden");
    let v3 = serve(
        &["--inspect", path(&golden.join("v3-ocular-int8.snap"))],
        "",
    );
    assert!(v3.status.success(), "{}", stderr(&v3));
    let v3 = String::from_utf8(v3.stdout).unwrap();
    for line in [
        "format v3",
        "kind ocular",
        "users 30",
        "items 24",
        "quant int8",
        "section ufact 720",
        "generation none",
        "id_maps 30 24",
    ] {
        assert!(v3.lines().any(|l| l == line), "missing `{line}`:\n{v3}");
    }
    let text = serve(&["--inspect", path(&golden.join("v2-wals.snap"))], "");
    let text = String::from_utf8(text.stdout).unwrap();
    assert!(
        text.starts_with("format text (import-only)\nkind wals\n"),
        "{text}"
    );
    assert!(!text.contains("section "), "{text}");
    assert!(text.lines().any(|l| l == "id_maps 30 24"), "{text}");
}
