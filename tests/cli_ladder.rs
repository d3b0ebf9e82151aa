//! End-to-end tests for the `rudoop` binary's degradation ladder: the
//! exit-code contract (0 complete / 3 degraded / 4 all rungs exhausted)
//! and the rendered attempt history.

use std::process::{Command, Output};

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

// The ladder table and verdict are progress reporting, so they land on
// stderr; stdout is reserved for machine-readable payloads.

#[test]
fn completed_ladder_exits_zero() {
    let out = rudoop(&["@hsqldb", "--ladder", "insens"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: complete"), "{text}");
    assert!(text.contains("* [0] insens"), "{text}");
    assert!(
        out.stdout.is_empty(),
        "ladder without reports keeps stdout empty"
    );
}

#[test]
fn degraded_ladder_exits_three() {
    // 2objH blows a 2M-derivation budget on hsqldb; introspective-A
    // completes (the paper's rescue story).
    let out = rudoop(&["@hsqldb", "--ladder", "default", "--budget", "2000000"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: degraded"), "{text}");
    assert!(
        text.contains("[0] 2objH              stopped: derivation budget exhausted"),
        "{text}"
    );
    assert!(
        text.contains("(computed shared insensitive first pass)"),
        "{text}"
    );
    // Degraded output still reports precision metrics of the fallback.
    assert!(text.contains("precision ("), "{text}");
}

#[test]
fn exhausted_ladder_exits_four_and_salvages() {
    // Too small even for the insensitive rung.
    let out = rudoop(&["@hsqldb", "--ladder", "2objH,insens", "--budget", "100000"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: exhausted"), "{text}");
    assert!(text.contains("best partial result kept"), "{text}");
}

#[test]
fn lone_introspective_rung_expands_to_canonical_ladder() {
    let out = rudoop(&[
        "@hsqldb",
        "--ladder",
        "introspectiveB:2objH",
        "--budget",
        "100000",
    ]);
    let text = stderr(&out);
    assert!(text.contains("[0] 2objH"), "{text}");
    assert!(text.contains("[1] introB:2objH"), "{text}");
    assert!(text.contains("[2] insens"), "{text}");
}

#[test]
fn bad_ladder_spec_is_a_usage_error() {
    let out = rudoop(&["@hsqldb", "--ladder", "introC:2objH"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(err.contains("bad ladder"), "{err}");
}

#[test]
fn lint_timeout_skips_tier2_and_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_rudoop-lint"))
        .args(["@hsqldb", "--analysis", "2objH", "--timeout", "0.02"])
        .output()
        .expect("failed to run rudoop-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        err.contains("analysis degraded (2objH), tier-2 lints skipped"),
        "{err}"
    );
}

/// Neither `--threads` nor a `@tN` rung suffix is accepted: every binary
/// rejects the flag as an unexpected argument, and the suffix is an
/// unknown flavor.
#[test]
fn thread_flag_and_rung_suffix_are_rejected() {
    for bin in [
        env!("CARGO_BIN_EXE_rudoop"),
        env!("CARGO_BIN_EXE_rudoop-lint"),
        env!("CARGO_BIN_EXE_rudoopd"),
    ] {
        let out = Command::new(bin)
            .args(["@antlr", "--threads", "2"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("failed to run binary");
        assert_eq!(out.status.code(), Some(2), "{bin}: {out:?}");
        let text = stderr(&out);
        assert!(
            text.contains("unexpected argument \"--threads\""),
            "{bin}: {text}"
        );
    }
    let out = rudoop(&["@antlr", "--ladder", "2objH,insens@t2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("rung 1 at chars 6..15"), "{text}");
    assert!(text.contains("unknown flavor \"insens@t2\""), "{text}");
}

/// A `--timeout` that is not a positive number of seconds representable
/// as a `Duration` is a usage error (exit 2) in both binaries, never a
/// panic; a huge but representable one still runs.
#[test]
fn out_of_range_timeout_is_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_rudoop"),
        env!("CARGO_BIN_EXE_rudoop-lint"),
    ] {
        for secs in ["1e300", "1e20", "nan", "inf", "0", "-1"] {
            let out = Command::new(bin)
                .args(["@antlr", "--analysis", "insens", "--timeout", secs])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .expect("failed to run binary");
            assert_eq!(out.status.code(), Some(2), "{bin} {secs}: {out:?}");
            let text = stderr(&out);
            assert!(!text.contains("panicked"), "{bin} {secs}: {text}");
            assert!(text.contains("usage:"), "{bin} {secs}: {text}");
        }
        let out = Command::new(bin)
            .args(["@antlr", "--analysis", "insens", "--timeout", "1e18"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("failed to run binary");
        assert_eq!(out.status.code(), Some(0), "{bin} 1e18: {out:?}");
    }
}
