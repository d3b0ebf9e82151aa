//! A reader that goes away early (`rudoop … | head`) must end a run
//! quietly: each binary treats a closed stdout pipe as the end of its
//! output — no panic, no backtrace, and the exit code the run would have
//! had with a reader.

use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Spawns `bin` with piped stdout and closes the read end at once, before
/// the run has produced its document; `RUST_BACKTRACE` is on so a panic
/// would show on stderr.
fn spawn_with_closed_stdout(bin: &str, args: &[&str]) -> Child {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("RUST_BACKTRACE", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    drop(child.stdout.take());
    child
}

fn run_with_closed_stdout(bin: &str, args: &[&str]) -> Output {
    spawn_with_closed_stdout(bin, args)
        .wait_with_output()
        .expect("child exit status")
}

fn assert_quiet(what: &str, out: &Output, code: i32) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("panicked") && !err.contains("backtrace") && !err.contains("Broken pipe"),
        "{what}: closed stdout must end the run quietly:\n{err}"
    );
    assert_eq!(out.status.code(), Some(code), "{what}: {out:?}");
}

#[test]
fn rudoop_dump_into_a_closed_pipe_exits_zero() {
    let out = run_with_closed_stdout(env!("CARGO_BIN_EXE_rudoop"), &["@pmd", "--dump"]);
    assert_quiet("rudoop --dump", &out, 0);
}

#[test]
fn rudoop_lint_json_into_a_closed_pipe_keeps_its_exit_code() {
    let out = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_rudoop-lint"),
        &["@pmd", "--races", "--format", "json"],
    );
    assert_quiet("rudoop-lint --races --format json", &out, 0);
}

/// `rudoopd` writes no stdout document itself; its client `rudoop query`
/// does. Both run with a closed stdout, and the daemon still shuts down
/// cleanly.
#[test]
fn daemon_and_query_survive_closed_stdout() {
    let port_file = std::env::temp_dir().join(format!(
        "rudoop-test-{}-broken-pipe-portfile",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_file);
    let mut daemon = spawn_with_closed_stdout(
        env!("CARGO_BIN_EXE_rudoopd"),
        &["@antlr", "--port-file", port_file.to_str().unwrap()],
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(s) if !s.is_empty() => break s,
            _ => {}
        }
        if Instant::now() >= deadline {
            let _ = daemon.kill();
            panic!("rudoopd never wrote its port file");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let _ = std::fs::remove_file(&port_file);

    let query = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_rudoop"),
        &[
            "query", "--addr", &addr, "--kind", "dump", "--ladder", "insens",
        ],
    );
    let shutdown = Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(["query", "--addr", &addr, "--shutdown"])
        .output()
        .expect("failed to run rudoop query --shutdown");
    if !shutdown.status.success() {
        let _ = daemon.kill();
    }
    let served = daemon.wait_with_output().expect("daemon exit status");
    assert_quiet("rudoop query --kind dump", &query, 0);
    assert_eq!(shutdown.status.code(), Some(0), "{shutdown:?}");
    assert_quiet("rudoopd", &served, 0);
}
