//! CLI contract tests for the `chaos` binary's replay surface: every
//! malformed invocation or unreadable/corrupt dump must produce a typed
//! diagnostic on stderr and a nonzero exit — never a panic. (The replay
//! path consumes untrusted files; `expect`/`unwrap` on the arg or read
//! path would turn a bad path into a crash with exit 101.)

use std::path::PathBuf;
use std::process::{Command, Output};

fn chaos_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
}

fn run(args: &[&str]) -> Output {
    chaos_bin().args(args).output().expect("chaos bin runs")
}

/// The invocation failed in a controlled way: nonzero (but not the
/// 101/abort of a Rust panic), nothing panicked, and the diagnostic
/// mentions what went wrong.
fn assert_typed_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "expected failure, got success; stdout: {stdout}"
    );
    assert_ne!(out.status.code(), Some(101), "process panicked: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "panic leaked to stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr missing {needle:?}: {stderr}"
    );
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sm_cli_replay_tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn replay_missing_dump_is_a_typed_error() {
    let out = run(&["--replay", "/nonexistent/dir/no_such.smcdump"]);
    assert_typed_failure(&out, "cannot read");
}

#[test]
fn replay_truncated_header_is_a_typed_error() {
    let path = scratch("ten_bytes.smcdump");
    std::fs::write(&path, b"SMCDUMP\x01\x02\x03").expect("write stub dump");
    let out = run(&["--replay", path.to_str().unwrap()]);
    assert_typed_failure(&out, "replay rejected");
}

#[test]
fn replay_garbage_payload_is_a_typed_error() {
    // Long enough to pass any length precheck, but pure noise: the sha
    // trailer (or magic) check must reject it, not a slice panic.
    let path = scratch("garbage.smcdump");
    let noise: Vec<u8> = (0u32..4096)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    std::fs::write(&path, &noise).expect("write garbage dump");
    let out = run(&["--replay", path.to_str().unwrap()]);
    assert_typed_failure(&out, "replay rejected");
}

#[test]
fn replay_without_a_path_is_a_usage_error() {
    let out = run(&["--replay"]);
    assert_typed_failure(&out, "--replay needs a value");
    assert_eq!(out.status.code(), Some(2));
    // A following flag must not be swallowed as the path either.
    let out = run(&["--replay", "--stop-seq", "5"]);
    assert_typed_failure(&out, "--replay needs a value");
}

#[test]
fn dump_demo_without_a_path_is_a_usage_error() {
    let out = run(&["--dump-demo"]);
    assert_typed_failure(&out, "--dump-demo needs a value");
    assert_eq!(out.status.code(), Some(2));
}

/// Artifact writes go through one typed path: an unwritable destination is
/// a `chaos: cannot write ...` diagnostic with exit 1, not an io panic.
#[test]
fn dump_demo_unwritable_path_is_a_typed_error() {
    let out = run(&["--dump-demo", "/nonexistent/dir/demo.smcdump"]);
    assert_typed_failure(&out, "cannot write /nonexistent/dir/demo.smcdump");
    assert_eq!(out.status.code(), Some(1));
}

/// Sharded execution is gone, so `--shards` is an unknown argument
/// whatever its value: every form of it is a usage error (exit 2), not
/// a run that silently ignores the flag.
#[test]
fn bad_shard_count_is_a_usage_error() {
    for args in [&["--shards", "many"][..], &["--shards", "0"], &["--shards"]] {
        let out = run(args);
        assert_typed_failure(&out, "unrecognised argument --shards");
        assert_eq!(out.status.code(), Some(2));
    }
    // `fig6_normalized` takes no arguments at all.
    let out = Command::new(env!("CARGO_BIN_EXE_fig6_normalized"))
        .args(["--shards", "8"])
        .output()
        .expect("fig6_normalized bin runs");
    assert_typed_failure(&out, "unrecognised argument --shards");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_stop_seq_is_a_usage_error() {
    let path = scratch("unused.smcdump");
    std::fs::write(&path, b"irrelevant").expect("write stub");
    let out = run(&[
        "--replay",
        path.to_str().unwrap(),
        "--stop-seq",
        "not-a-number",
    ]);
    assert_typed_failure(&out, "--stop-seq is not a number");
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--replay", path.to_str().unwrap(), "--stop-seq"]);
    assert_typed_failure(&out, "--stop-seq needs a value");
}

/// An unknown argument is a usage error and nothing runs: the removed
/// pipeline A/B flag, a typo, a stray word, and a typo after a flag's
/// value (which is not itself checked as a flag).
#[test]
fn unknown_arguments_are_usage_errors() {
    let dump = scratch("typo.smcdump");
    let _ = std::fs::remove_file(&dump);
    let path = dump.to_str().unwrap();
    for args in [
        &["--no-pipeline"][..],
        &["--qiuck"],
        &["--quick", "stray"],
        &["--dump-demo", path, "--no-pipline"],
    ] {
        let out = run(args);
        let bad = args.last().unwrap();
        assert_typed_failure(&out, &format!("unrecognised argument {bad}"));
        assert_eq!(out.status.code(), Some(2));
    }
    assert!(!dump.exists(), "a usage error must not write the dump");
}

#[test]
fn stop_seq_without_replay_is_a_usage_error() {
    let out = run(&["--stop-seq", "5"]);
    assert_typed_failure(&out, "--stop-seq only makes sense with --replay");
    assert_eq!(out.status.code(), Some(2));
}

/// End-to-end time travel on a real dump: `--dump-demo` writes one, then
/// `--replay --stop-seq` runs it to a mid-run seq (checkpoint seq + 5)
/// and reports REACHED, while a stop seq *before* the checkpoint is a
/// typed rejection (time travel cannot rewind).
#[test]
fn stop_seq_time_travel_works_on_a_real_dump() {
    let dump = scratch("demo.smcdump");
    let out = run(&["--dump-demo", dump.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "dump-demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The demo prints the checkpoint slice; parse seq0 from a replay run
    // instead: a huge stop seq runs to completion ("run ended first").
    let out = run(&[
        "--replay",
        dump.to_str().unwrap(),
        "--stop-seq",
        "999999999",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("run ended first"),
        "expected the run to end before an absurd seq: {stdout}"
    );
    let seq0: u64 = stdout
        .split("checkpoint seq ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("checkpoint seq in output");

    let stop = (seq0 + 5).to_string();
    let out = run(&["--replay", dump.to_str().unwrap(), "--stop-seq", &stop]);
    assert!(
        out.status.success(),
        "time travel failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REACHED"), "did not reach seq: {stdout}");

    if seq0 > 0 {
        let before = (seq0 - 1).to_string();
        let out = run(&["--replay", dump.to_str().unwrap(), "--stop-seq", &before]);
        assert_typed_failure(&out, "cannot rewind");
    }
}
