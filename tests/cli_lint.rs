//! End-to-end tests for the `rudoop-lint` binary: exit codes, level flags,
//! and stable rendering on the shipped example programs.

use std::path::Path;
use std::process::{Command, Output};

fn rudoop_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

#[test]
fn clean_example_exits_zero_with_notes_only() {
    let out = rudoop_lint(&["examples/programs/clean.rud"]);
    assert!(out.status.success(), "{out:?}");
    // Rendered diagnostics are the stdout payload; the summary tally is
    // progress reporting on stderr.
    assert!(stderr(&out).contains("0 error(s), 0 warning(s)"), "{out:?}");
    assert!(stdout(&out).contains("note[I005]"), "{out:?}");
}

#[test]
fn showcase_example_reports_every_tier() {
    let out = rudoop_lint(&["examples/programs/lint_showcase.rud"]);
    assert!(
        out.status.success(),
        "warnings alone must not fail: {out:?}"
    );
    let text = stdout(&out);
    for code in [
        "L001", "L002", "L003", "L004", "L005", "I001", "I002", "I003", "I004", "I005",
    ] {
        assert!(
            text.contains(&format!("[{code}]")),
            "missing {code} in:\n{text}"
        );
    }
}

#[test]
fn deny_escalates_to_failure_exit() {
    let out = rudoop_lint(&["examples/programs/lint_showcase.rud", "--deny", "L005"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("error[L005]"));
}

#[test]
fn allow_suppresses_findings() {
    let out = rudoop_lint(&["examples/programs/lint_showcase.rud", "--allow", "L003"]);
    assert!(out.status.success());
    assert!(!stdout(&out).contains("[L003]"));
}

#[test]
fn no_points_to_skips_tier2() {
    let out = rudoop_lint(&["examples/programs/lint_showcase.rud", "--no-points-to"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("[L005]"), "{text}");
    assert!(
        !text.contains("[I0"),
        "tier-2 finding without analysis: {text}"
    );
}

#[test]
fn unknown_code_and_missing_file_exit_two() {
    let out = rudoop_lint(&["examples/programs/clean.rud", "--deny", "Z999"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = rudoop_lint(&["no/such/file.rud"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// Input that is not IL at all is a line-numbered parse error for both
/// binaries, never an empty program that analyzes cleanly.
#[test]
fn garbage_input_is_a_parse_error() {
    let mut path = std::env::temp_dir();
    path.push(format!("rudoop-test-{}-garbage.rdp", std::process::id()));
    std::fs::write(&path, "hello world\n").unwrap();
    let file = path.to_str().unwrap();
    let lint = rudoop_lint(&[file]);
    let run = Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .arg(file)
        .output()
        .expect("failed to run rudoop");
    std::fs::remove_file(&path).ok();
    let expected = "line 1: unexpected `hello` at top level";
    assert_eq!(lint.status.code(), Some(2), "{lint:?}");
    assert!(stderr(&lint).contains(expected), "{lint:?}");
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    assert!(stderr(&run).contains(expected), "{run:?}");
}

#[test]
fn list_prints_all_codes() {
    let out = rudoop_lint(&["--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for code in [
        "L001", "L002", "L003", "L004", "L005", "I001", "I002", "I003", "I004", "I005",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(code)),
            "missing {code} in:\n{text}"
        );
    }
}

#[test]
fn benchmark_input_is_linted() {
    let out = rudoop_lint(&["@antlr"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stderr(&out).contains("@antlr:"));
}

/// `--races` on a `@benchmark` switches the concurrency battery on, as
/// `rudoop races` does: one R001 finding per race that command reports.
#[test]
fn benchmark_races_match_the_races_subcommand() {
    let lint = rudoop_lint(&["@pmd", "--races", "--format", "json"]);
    assert!(lint.status.success(), "{lint:?}");
    let r001 = stdout(&lint).matches("\"code\":\"R001\"").count();
    let races = Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(["races", "@pmd", "--analysis", "insens"])
        .output()
        .expect("failed to run rudoop");
    assert!(races.status.success(), "{races:?}");
    let summary = stdout(&races);
    let count: usize = summary
        .split(" race(s)")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no race count in {summary}"));
    assert!(count > 0, "the concurrency battery must produce races");
    assert_eq!(r001, count, "{summary}");
}

#[test]
fn every_shipped_example_program_lints_without_hard_errors() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rud") {
            found += 1;
            let out = rudoop_lint(&[path.to_str().unwrap()]);
            assert!(out.status.success(), "{} failed: {out:?}", path.display());
        }
    }
    assert!(
        found >= 2,
        "expected the shipped .rud examples, found {found}"
    );
}
