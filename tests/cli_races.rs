//! End-to-end tests for the `rudoop races` subcommand: golden text and
//! JSON fixtures on a built-in benchmark (the same pair the CI trace-smoke
//! job diffs against fresh runs), run invariance, the stream contract,
//! and the supervisor's skip-on-exhaustion behavior.

use std::process::{Command, Output};

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn text_report_matches_golden_fixture() {
    let out = rudoop(&["races", "@antlr", "--analysis", "2objH"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        golden("races_antlr.txt"),
        "races text output drifted from the committed golden fixture; if the \
         change is intentional, regenerate tests/fixtures/races_antlr.txt"
    );
}

#[test]
fn json_report_matches_golden_fixture() {
    let out = rudoop(&["races", "@antlr", "--analysis", "2objH", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        golden("races_antlr.json"),
        "races --format json drifted from the committed golden fixture; if the \
         change is intentional, regenerate tests/fixtures/races_antlr.json"
    );
}

/// The JSON report is byte-identical across repeated runs.
#[test]
fn json_report_is_identical_across_runs() {
    let args = ["races", "@antlr", "--analysis", "2objH", "--format", "json"];
    let first = rudoop(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let again = rudoop(&args);
    assert_eq!(again.status.code(), Some(0), "{again:?}");
    assert_eq!(
        first.stdout, again.stdout,
        "races JSON differs between runs"
    );
}

#[test]
fn json_mode_keeps_stdout_a_single_document() {
    let out = rudoop(&[
        "races",
        "@antlr",
        "--analysis",
        "insens",
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\n"), "{stdout}");
    assert!(stdout.ends_with("}\n"), "{stdout}");
    // The human ladder table goes to stderr instead.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("degradation ladder:"), "{stderr}");
    assert!(!stdout.contains("degradation ladder:"), "{stdout}");
}

#[test]
fn exhausted_ladder_reports_skipped_races() {
    let out = rudoop(&[
        "races", "@antlr", "--ladder", "insens", "--budget", "1", "--format", "json",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"analysis\": null"), "{stdout}");
    assert!(stdout.contains("\"skipped\": \""), "{stdout}");
    assert!(stdout.contains("\"races\": []"), "{stdout}");

    let out = rudoop(&["races", "@antlr", "--ladder", "insens", "--budget", "1"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("races: SKIPPED"), "{stdout}");
}

#[test]
fn insens_reports_the_false_races_that_2objh_eliminates() {
    // The across-the-board claim at the CLI surface: same benchmark, same
    // battery, strictly more races under the insensitive analysis.
    let insens = rudoop(&["races", "@antlr", "--analysis", "insens"]);
    assert_eq!(insens.status.code(), Some(0), "{insens:?}");
    let text = String::from_utf8(insens.stdout).unwrap();
    let insens_races = text.lines().filter(|l| l.starts_with("race: ")).count();
    let obj = rudoop(&["races", "@antlr", "--analysis", "2objH"]);
    let text = String::from_utf8(obj.stdout).unwrap();
    let obj_races = text.lines().filter(|l| l.starts_with("race: ")).count();
    assert!(obj_races >= 1, "the shared-counter race must survive 2objH");
    assert!(
        obj_races < insens_races,
        "expected 2objH ({obj_races}) to report strictly fewer races than \
         insens ({insens_races})"
    );
}
