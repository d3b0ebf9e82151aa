//! End-to-end tests for the resident daemon (`rudoopd`) and its client
//! (`rudoop query`): real processes, real sockets, real fault injection.
//!
//! The contract under test: a daemon-served document is byte-identical
//! to the batch CLI's stdout for the same query — including when the
//! request was shed under load and retried, and at every solver thread
//! count — and the daemon's Chrome trace carries the per-connection
//! service lanes (`accept`/`queue`/`rung`/`respond`).

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use rudoop::validate_chrome_trace;

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rudoop-test-{}-{name}", std::process::id()));
    p
}

/// A running `rudoopd` process, killed on drop. The bound address comes
/// from `--port-file` (the daemon picks a free port).
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(tag: &str, args: &[&str]) -> Daemon {
        let port_file = scratch(&format!("portfile-{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_rudoopd"))
            .args(args)
            .args(["--port-file", port_file.to_str().unwrap()])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn rudoopd");
        let deadline = Instant::now() + Duration::from_secs(120);
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {}
            }
            assert!(
                Instant::now() < deadline,
                "rudoopd never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        let _ = std::fs::remove_file(&port_file);
        Daemon { child, addr }
    }

    /// Orderly stop: `rudoop query --shutdown`, then wait for exit (the
    /// daemon writes `--trace` output on the way down).
    fn shutdown_and_wait(&mut self) {
        let out = rudoop(&["query", "--addr", &self.addr, "--shutdown"]);
        assert_eq!(out.status.code(), Some(0), "shutdown failed: {out:?}");
        let status = self.child.wait().expect("daemon exit status");
        assert!(status.success(), "daemon exited with {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes one raw request frame (4-byte big-endian length + payload).
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

#[test]
fn ping_round_trips() {
    let daemon = Daemon::start("ping", &["@antlr"]);
    let out = rudoop(&["query", "--addr", &daemon.addr, "--ping"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stderr(&out).contains("ok"), "{out:?}");
    assert!(out.stdout.is_empty(), "ping must not write stdout");
}

/// The headline byte-identity contract, at solver thread counts 1/2/4:
/// the daemon's taint JSON document equals the batch CLI's stdout.
#[test]
fn daemon_taint_json_matches_batch_at_every_thread_count() {
    for threads in ["1", "2", "4"] {
        let batch = rudoop(&[
            "taint",
            "@pmd",
            "--spec",
            "builtin",
            "--format",
            "json",
            "--threads",
            threads,
        ]);
        assert_eq!(batch.status.code(), Some(0), "{batch:?}");
        let reference = stdout(&batch);
        assert!(!reference.is_empty());

        let daemon = Daemon::start(
            &format!("taint-t{threads}"),
            &["@pmd", "--taint-spec", "builtin", "--threads", threads],
        );
        let out = rudoop(&[
            "query",
            "--addr",
            &daemon.addr,
            "--kind",
            "taint",
            "--format",
            "json",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(
            stdout(&out),
            reference,
            "threads={threads}: daemon taint document diverged from batch stdout"
        );
        assert!(stderr(&out).contains("status: complete"), "{out:?}");
    }
}

#[test]
fn daemon_dump_with_ladder_override_matches_batch() {
    let batch = rudoop(&["@antlr", "--analysis", "2objH", "--dump"]);
    assert_eq!(batch.status.code(), Some(0), "{batch:?}");
    let reference = stdout(&batch);
    assert!(!reference.is_empty());

    let daemon = Daemon::start("dump", &["@antlr"]);
    let out = rudoop(&[
        "query",
        "--addr",
        &daemon.addr,
        "--kind",
        "dump",
        "--ladder",
        "2objH",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        stdout(&out),
        reference,
        "daemon dump diverged from batch stdout"
    );
}

/// Overload shedding end to end, at every thread count: while a stalled
/// request holds the only worker slot, a no-retry client is shed with
/// exit 5, and a retrying client backs off, gets in, and prints a
/// document byte-identical to the batch CLI's.
#[test]
fn shed_then_retried_query_matches_batch_at_every_thread_count() {
    for threads in ["1", "2", "4"] {
        let batch = rudoop(&[
            "@antlr",
            "--analysis",
            "insens",
            "--dump",
            "--threads",
            threads,
        ]);
        assert_eq!(batch.status.code(), Some(0), "{batch:?}");
        let reference = stdout(&batch);

        let daemon = Daemon::start(
            &format!("shed-t{threads}"),
            &[
                "@antlr",
                "--workers",
                "1",
                "--queue",
                "0",
                "--threads",
                threads,
                "--inject",
                "stall-ms=700@req=1",
            ],
        );

        // Occupy the only slot: the stalled request holds it for 700ms.
        let mut blocker = TcpStream::connect(&daemon.addr).expect("connect blocker");
        write_raw_frame(
            &mut blocker,
            br#"{"op":"query","kind":"stats","ladder":"insens"}"#,
        );
        std::thread::sleep(Duration::from_millis(150));

        // A client with no retry budget is shed: typed exit code 5.
        let out = rudoop(&[
            "query",
            "--addr",
            &daemon.addr,
            "--kind",
            "dump",
            "--ladder",
            "insens",
            "--retries",
            "0",
        ]);
        assert_eq!(
            out.status.code(),
            Some(5),
            "threads={threads}: no-retry client must exit 5: {out:?}"
        );
        assert!(
            stderr(&out).contains("shed by admission control"),
            "{out:?}"
        );

        // A retrying client gets in after backoff — and its document is
        // byte-identical to the uncontended batch run.
        let out = rudoop(&[
            "query",
            "--addr",
            &daemon.addr,
            "--kind",
            "dump",
            "--ladder",
            "insens",
            "--retries",
            "5",
            "--retry-base-ms",
            "700",
            "--retry-seed",
            "7",
        ]);
        assert_eq!(out.status.code(), Some(0), "threads={threads}: {out:?}");
        assert!(
            stderr(&out).contains("retried"),
            "threads={threads}: the client must actually have retried: {out:?}"
        );
        assert_eq!(
            stdout(&out),
            reference,
            "threads={threads}: shed-then-retried document diverged from batch stdout"
        );
    }
}

/// A per-request wall-clock budget degrades down the ladder over the
/// wire: `2objH` on hsqldb blows the timeout, the insensitive rung
/// completes, and the client exits with the degraded code 3. The timeout
/// sits between the two solves: on a 2-CPU host `insens` takes ~0.09 s
/// (debug build) and `2objH` ~2 s (release) to ~7.5 s (debug).
#[test]
fn per_request_timeout_degrades_down_the_ladder() {
    let daemon = Daemon::start("timeout", &["@hsqldb"]);
    let out = rudoop(&[
        "query",
        "--addr",
        &daemon.addr,
        "--kind",
        "stats",
        "--ladder",
        "2objH,insens",
        "--timeout-ms",
        "500",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        stderr(&out).contains("status: degraded (insens)"),
        "{out:?}"
    );
    assert!(
        !stdout(&out).is_empty(),
        "the degraded document still renders"
    );
}

/// The daemon's Chrome trace: per-connection lanes with sequential
/// `accept`/`queue`/`rung`/`respond` spans, valid under the strict trace
/// checker, and accepted by `rudoop --check-trace`.
#[test]
fn daemon_trace_has_connection_lanes_and_validates() {
    let trace = scratch("daemon.trace.json");
    let _ = std::fs::remove_file(&trace);
    let mut daemon = Daemon::start("trace", &["@antlr", "--trace", trace.to_str().unwrap()]);
    for kind in ["stats", "dump"] {
        let out = rudoop(&[
            "query",
            "--addr",
            &daemon.addr,
            "--kind",
            kind,
            "--ladder",
            "insens",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    daemon.shutdown_and_wait();

    let text = std::fs::read_to_string(&trace).expect("daemon trace written");
    let check = validate_chrome_trace(&text).expect("daemon trace validates");
    for name in ["accept", "queue", "rung", "respond"] {
        assert!(
            check.span_names.contains(name),
            "missing {name} span in {:?}",
            check.span_names
        );
    }
    // One labelled lane per connection: two queries + the shutdown.
    for conn in ["conn-1", "conn-2", "conn-3"] {
        assert!(text.contains(conn), "trace is missing the {conn} lane");
    }
    assert!(check.samples > 0, "queue-depth samples present");

    let out = rudoop(&["--check-trace", trace.to_str().unwrap()]);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--check-trace rejected it: {out:?}"
    );
}

/// The committed golden daemon trace keeps validating: the service-lane
/// schema (accept/queue/rung/respond on `conn-N` lanes) is a contract,
/// not an implementation detail.
#[test]
fn golden_daemon_trace_fixture_validates() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_daemon_trace.json"
    );
    let text = std::fs::read_to_string(path).expect("golden daemon fixture present");
    let check = validate_chrome_trace(&text).expect("golden daemon fixture validates");
    for name in ["accept", "queue", "rung", "respond"] {
        assert!(
            check.span_names.contains(name),
            "golden daemon fixture lost the {name} span"
        );
    }
    assert!(
        text.contains("conn-1"),
        "golden daemon fixture lost its connection lane"
    );
}
