//! End-to-end tests for the telemetry flags (`--trace`, `--profile`,
//! `--telemetry`) and the stdout/stderr stream contract: machine-readable
//! documents are the only stdout payloads, everything human-facing goes to
//! stderr, and trace files always satisfy the Chrome trace-event contract.

use std::path::PathBuf;
use std::process::{Command, Output};

use rudoop::validate_chrome_trace;

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

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

/// A scratch path that is unique per test (parallel test threads must not
/// clobber each other's files).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rudoop-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn plain_run_keeps_stdout_empty_and_reports_on_stderr() {
    let out = rudoop(&["@antlr", "--analysis", "insens"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        out.stdout.is_empty(),
        "plain run without reports must keep stdout empty: {:?}",
        stdout(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("analysis insens: completed"), "{err}");
    assert!(err.contains("precision:"), "{err}");
}

#[test]
fn stats_report_is_the_stdout_payload() {
    let out = rudoop(&["@antlr", "--analysis", "insens", "--stats"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("var-points-to sizes:"), "{text}");
    assert!(
        !text.contains("analysis insens"),
        "progress text leaked to stdout: {text}"
    );
}

#[test]
fn trace_file_validates_and_covers_the_solve_phases() {
    let trace = scratch("solve.trace.json");
    let out = rudoop(&[
        "@antlr",
        "--analysis",
        "2objH",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    let check = validate_chrome_trace(&text).expect("trace passes the schema checker");
    assert!(check.spans > 0, "balanced spans present");
    for name in ["parse", "solve", "project"] {
        assert!(
            check.span_names.contains(name),
            "missing {name} span in {:?}",
            check.span_names
        );
    }
}

/// Every `solve` span holds one `project` span and then one `teardown`
/// span: the introspective run below traces two solves, the first pass
/// and the refined pass.
#[test]
fn every_solve_span_holds_one_project_and_one_teardown() {
    let trace = scratch("teardown.trace.json");
    let out = rudoop(&[
        "@antlr",
        "--analysis",
        "2objH",
        "--introspective",
        "B",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    validate_chrome_trace(&text).expect("trace validates");
    let events: Vec<String> = text
        .lines()
        .filter_map(|line| {
            ["solve", "project", "teardown"].iter().find_map(|name| {
                ["B", "E"]
                    .iter()
                    .find(|ph| {
                        line.contains(&format!(
                            "\"name\":\"{name}\",\"cat\":\"rudoop\",\"ph\":\"{ph}\""
                        ))
                    })
                    .map(|ph| format!("{name}:{ph}"))
            })
        })
        .collect();
    let block = [
        "solve:B",
        "project:B",
        "project:E",
        "teardown:B",
        "teardown:E",
        "solve:E",
    ];
    assert_eq!(events.len(), 2 * block.len(), "{events:?}");
    assert!(events.chunks(block.len()).all(|c| c == block), "{events:?}");
}

/// Every phase of the two context-sensitive clients shows in the trace as
/// a span of its own.
#[test]
fn client_traces_cover_every_client_phase() {
    let cases: [(&str, &[&str], &[&str]); 2] = [
        (
            "races",
            &["races", "@antlr"],
            &[
                "races",
                "races-facts",
                "races-mhp",
                "races-locks",
                "races-access",
                "races-pairs",
            ],
        ),
        (
            "taint",
            &["taint", "@antlr", "--spec", "builtin"],
            &["taint", "taint-facts", "taint-graph", "taint-bfs"],
        ),
    ];
    for (client, args, spans) in cases {
        let trace = scratch(&format!("{client}.trace.json"));
        let mut args = args.to_vec();
        args.extend(["--trace", trace.to_str().unwrap()]);
        let out = rudoop(&args);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let _ = std::fs::remove_file(&trace);
        let check = validate_chrome_trace(&text).expect("client trace validates");
        for name in spans {
            assert!(
                check.span_names.contains(*name),
                "{client}: missing {name} span in {:?}",
                check.span_names
            );
        }
    }
}

/// The clients' fact index is built once per points-to result: one
/// `cs-index` span when one client runs, and still one when `rudoop-lint`
/// runs both over the same result.
#[test]
fn fact_index_is_built_once_per_result() {
    let lint = scratch("lint.index.trace.json");
    let races = scratch("races.index.trace.json");
    let runs = [
        (
            rudoop_lint(&[
                "@pmd",
                "--races",
                "--taint-spec",
                "builtin",
                "--trace",
                lint.to_str().unwrap(),
            ]),
            lint,
        ),
        (
            rudoop(&["races", "@antlr", "--trace", races.to_str().unwrap()]),
            races,
        ),
    ];
    for (out, trace) in runs {
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let _ = std::fs::remove_file(&trace);
        validate_chrome_trace(&text).expect("trace validates");
        for ph in ["B", "E"] {
            let marker = format!("\"name\":\"cs-index\",\"cat\":\"rudoop\",\"ph\":\"{ph}\"");
            assert_eq!(text.matches(&marker).count(), 1, "{trace:?}: {ph} events");
        }
    }
}

#[test]
fn profile_json_has_stable_schema_and_telemetry_summary_is_stderr() {
    let profile = scratch("run.profile.json");
    let out = rudoop(&[
        "@antlr",
        "--analysis",
        "insens",
        "--profile",
        profile.to_str().unwrap(),
        "--telemetry",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "telemetry must not touch stdout");
    let err = stderr(&out);
    assert!(err.contains("telemetry summary"), "{err}");
    assert!(err.contains("solve"), "{err}");
    let text = std::fs::read_to_string(&profile).expect("profile written");
    let _ = std::fs::remove_file(&profile);
    assert!(text.contains("\"schema\": \"rudoop-profile-v1\""), "{text}");
    assert!(text.contains("insens.derivations"), "{text}");
}

#[test]
fn degraded_ladder_trace_has_one_rung_span_per_attempt() {
    let trace = scratch("ladder.trace.json");
    let out = rudoop(&[
        "@hsqldb",
        "--ladder",
        "default",
        "--budget",
        "2000000",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let attempts = stderr(&out)
        .lines()
        .filter(|l| l.trim_start().starts_with('[') || l.trim_start().starts_with("* ["))
        .count();
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let check = validate_chrome_trace(&text).expect("degraded-run trace validates");
    assert!(check.span_names.contains("rung"));
    let rung_begins = text
        .matches("\"name\":\"rung\",\"cat\":\"rudoop\",\"ph\":\"B\"")
        .count();
    assert_eq!(rung_begins, attempts, "one rung span per ladder line");
}

#[test]
fn lint_json_stdout_is_a_single_document() {
    let out = rudoop_lint(&["examples/programs/lint_showcase.rud", "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.starts_with('['), "{text}");
    assert!(text.trim_end().ends_with(']'), "{text}");
    assert!(
        !text.contains("error(s)"),
        "summary line leaked to stdout: {text}"
    );
}

#[test]
fn lint_trace_validates_and_covers_lints() {
    let trace = scratch("lint.trace.json");
    let out = rudoop_lint(&[
        "examples/programs/lint_showcase.rud",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let check = validate_chrome_trace(&text).expect("lint trace validates");
    for name in ["parse", "solve", "lint-pass", "lint"] {
        assert!(
            check.span_names.contains(name),
            "missing {name} span in {:?}",
            check.span_names
        );
    }
}

/// `--check-trace` accepts a freshly written trace (exit 0) and rejects
/// the same file with one record corrupted into malformed JSON — exit 1
/// with a per-record error naming the damaged record, not just schema
/// violations.
#[test]
fn check_trace_rejects_malformed_json_with_a_per_record_error() {
    let trace = scratch("checkme.trace.json");
    let out = rudoop(&[
        "@antlr",
        "--analysis",
        "insens",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = rudoop(&["--check-trace", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "valid trace must pass: {out:?}");
    assert!(stderr(&out).contains("valid"), "{out:?}");

    // Corrupt one event record: drop the tail of its line so the record
    // is no longer a JSON object (but the document still *looks* like a
    // trace file).
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let victim = text
        .lines()
        .find(|l| l.trim_start().starts_with("{\"name\""))
        .expect("trace has at least one event record");
    let truncated = &victim[..victim.len() / 2];
    let corrupted = text.replacen(victim, truncated, 1);
    std::fs::write(&trace, corrupted).unwrap();

    let out = rudoop(&["--check-trace", trace.to_str().unwrap()]);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed JSON must fail the check: {out:?}"
    );
    let err = stderr(&out);
    assert!(err.contains("invalid trace"), "{err}");
    assert!(err.contains("record"), "{err}");
    assert!(err.contains("not valid JSON"), "{err}");
}

/// The committed golden fixture stays loadable: it must keep passing the
/// same schema checker CI runs against freshly generated traces.
#[test]
fn golden_trace_fixture_validates() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_trace.json"
    );
    let text = std::fs::read_to_string(path).expect("golden fixture present");
    let check = validate_chrome_trace(&text).expect("golden fixture validates");
    assert!(check.spans > 0);
    for name in ["parse", "solve", "project"] {
        assert!(
            check.span_names.contains(name),
            "golden fixture lost the {name} phase"
        );
    }
}
