//! CLI contract tests for the bench binaries, chiefly the `chaos`
//! binary's replay surface: every malformed invocation, unreadable/corrupt
//! dump or unwritable artifact path must produce a typed diagnostic on
//! stderr and a nonzero exit — never a panic. (The replay path consumes
//! untrusted files; `expect`/`unwrap` on the arg or read path would turn a
//! bad path into a crash with exit 101.)

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

/// `all_experiments` checks its summary destination before the first
/// section: an unwritable `BENCH_SUMMARY_PATH` is the shared `cannot write`
/// diagnostic with exit 1, not a full sweep that exits 0 with no summary.
#[test]
fn all_experiments_unwritable_summary_fails_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .env("BENCH_SUMMARY_PATH", "/nonexistent/dir/summary.json")
        .output()
        .expect("all_experiments bin runs");
    assert_typed_failure(
        &out,
        "all_experiments: cannot write /nonexistent/dir/summary.json",
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "a section ran before the check");
}

/// `fleet --report` to an unwritable path fails before simulating, with
/// the I/O status 1 (2 is reserved for usage errors).
#[test]
fn fleet_unwritable_report_fails_before_simulating() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--quick", "--report", "/nonexistent/dir/report.txt"])
        .output()
        .expect("fleet bin runs");
    assert_typed_failure(&out, "fleet: cannot write /nonexistent/dir/report.txt");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "the fleet ran before the check");
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
    // `fig6_normalized` takes no arguments at all, and `fleet` runs each
    // cell on its own, with no shard grouping to choose.
    for bin in [
        env!("CARGO_BIN_EXE_fig6_normalized"),
        env!("CARGO_BIN_EXE_fleet"),
    ] {
        let out = Command::new(bin)
            .args(["--shards", "4"])
            .output()
            .expect("bin runs");
        assert_typed_failure(&out, "unrecognised argument --shards");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(out.stdout.is_empty(), "{bin} ran before rejecting --shards");
    }
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

/// Every bench binary, in the order they sit in `crates/bench/src/bin`.
const BINS: [(&str, &str); 13] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("all_experiments", env!("CARGO_BIN_EXE_all_experiments")),
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    (
        "fig5_response_modes",
        env!("CARGO_BIN_EXE_fig5_response_modes"),
    ),
    ("fig6_normalized", env!("CARGO_BIN_EXE_fig6_normalized")),
    ("fig7_stress", env!("CARGO_BIN_EXE_fig7_stress")),
    ("fig8_apache_sweep", env!("CARGO_BIN_EXE_fig8_apache_sweep")),
    (
        "fig9_split_fraction",
        env!("CARGO_BIN_EXE_fig9_split_fraction"),
    ),
    ("fleet", env!("CARGO_BIN_EXE_fleet")),
    ("memory_overhead", env!("CARGO_BIN_EXE_memory_overhead")),
    ("profile_fig6", env!("CARGO_BIN_EXE_profile_fig6")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
];

/// An unknown argument is a usage error and nothing runs: every bench
/// binary rejects `--bogus` with exit 2 and an empty stdout. For `chaos`
/// also the removed pipeline A/B flag, a typo, a stray word, and a typo
/// after a flag's value (which is not itself checked as a flag); for
/// `profile_fig6` the removed `--pentium3`.
#[test]
fn unknown_arguments_are_usage_errors() {
    for (name, bin) in BINS {
        let out = Command::new(bin).arg("--bogus").output().expect("bin runs");
        assert_typed_failure(&out, &format!("{name}: unrecognised argument --bogus"));
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(out.stdout.is_empty(), "{name} ran before rejecting --bogus");
    }

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

    let out = Command::new(env!("CARGO_BIN_EXE_profile_fig6"))
        .arg("--pentium3")
        .output()
        .expect("profile_fig6 bin runs");
    assert_typed_failure(&out, "unrecognised argument --pentium3");
    assert_eq!(out.status.code(), Some(2));
}

/// `fleet` checks its whole command line before it simulates anything:
/// an unknown flag (the removed `--serial` too), a valued flag followed
/// by another flag (which must not become the `--report` path), a
/// trailing valued flag (which must not fall back to the default), and a
/// value that cannot describe a fleet (no frames, no tenants per cell)
/// are usage errors with exit 2.
#[test]
fn fleet_malformed_arguments_are_usage_errors() {
    let dir = scratch("fleet_args");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let small = ["--tenants", "1", "--requests", "1", "--cell-tenants", "1"];
    let cases: [(Vec<&str>, &str); 6] = [
        (
            [&small[..], &["--bogus-flag"]].concat(),
            "unrecognised argument --bogus-flag",
        ),
        (
            [&small[..], &["--serial"]].concat(),
            "unrecognised argument --serial",
        ),
        (
            ["--tenants", "10", "--frames", "0"].to_vec(),
            "--frames must be at least 1",
        ),
        (
            ["--tenants", "10", "--cell-tenants", "0", "--requests", "1"].to_vec(),
            "--cell-tenants must be at least 1",
        ),
        (
            [&small[..], &["--report", "--quick"]].concat(),
            "--report needs a value",
        ),
        (
            ["--requests", "1", "--cell-tenants", "1", "--tenants"].to_vec(),
            "--tenants needs a value",
        ),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("fleet bin runs");
        assert_typed_failure(&out, needle);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: the fleet ran");
    }
    assert!(
        !dir.join("--quick").exists(),
        "--quick was taken as the report path"
    );
}

/// `--quick` only changes the defaults of `--tenants` and `--requests`:
/// a flag given explicitly wins over it.
#[test]
fn fleet_quick_keeps_explicit_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--quick", "--tenants", "5"])
        .output()
        .expect("fleet bin runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let header = stdout.lines().next().unwrap_or_default();
    assert!(
        header.starts_with("fleet: tenants=5 cells=1 ") && header.contains(" reqs=4 "),
        "{header}"
    );
}

/// A command line that names two modes, a sweep switch outside the
/// sweep, or any flag twice is a usage error: exit 2, nothing on stdout
/// and no artifact written, instead of one flag silently winning.
#[test]
fn conflicting_or_repeated_flags_are_usage_errors() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_demo.smcdump"
    );
    let dump = scratch("conflict.smcdump");
    let _ = std::fs::remove_file(&dump);
    let out_path = dump.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (
            &["--replay", golden, "--dump-demo", out_path],
            "--replay and --dump-demo cannot be combined",
        ),
        (
            &["--fleet", "--dump-demo", out_path],
            "--dump-demo and --fleet cannot be combined",
        ),
        (
            &["--fleet", "--quick"],
            "--quick only applies to the sweep, not --fleet",
        ),
        (
            &["--dump-demo", out_path, "--trace"],
            "--trace only applies to the sweep, not --dump-demo",
        ),
        (
            &["--replay", golden, "--quick"],
            "--quick only applies to the sweep, not --replay",
        ),
        (
            &["--replay", golden, "--replay", "other.smcdump"],
            "--replay given twice",
        ),
        (&["--quick", "--trace", "--quick"], "--quick given twice"),
    ];
    for (args, needle) in cases {
        let out = run(args);
        assert_typed_failure(&out, needle);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
    assert!(!dump.exists(), "a usage error must not write the dump");

    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--tenants", "5", "--tenants", "6"])
        .output()
        .expect("fleet bin runs");
    assert_typed_failure(&out, "fleet: --tenants given twice");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "the fleet ran");
}

/// The exact bytes `--dump-demo` writes. The checked-in golden dump is
/// deliberately older (it proves old dumps still restore), so this is
/// the check that a change meant to keep results leaves the dump writer,
/// the demo combo's run and its checkpoints alone. After an intentional
/// change to the dump or snapshot format or to the demo run, regenerate
/// the digest with `cargo run --release --bin chaos -- --dump-demo
/// demo.smcdump && sha256sum demo.smcdump`.
#[test]
fn dump_demo_writes_the_pinned_bytes() {
    let dump = scratch("pinned_demo.smcdump");
    let out = run(&["--dump-demo", dump.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "dump-demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&dump).expect("dump-demo wrote its dump");
    let hex: String = sm_machine::sha256::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(bytes.len(), 35_907);
    assert_eq!(
        hex,
        "e0c94f54ea0ab15f7cf96a4c99282f1c28f155182b99aaec7030bc74ade91658"
    );
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
