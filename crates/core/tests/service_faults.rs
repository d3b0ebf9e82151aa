//! Fault-injection end-to-end tests for the resident analysis service.
//!
//! Every test spawns a real in-process [`Server`] on a loopback port and
//! talks to it over actual TCP — the same code path `rudoopd` runs. The
//! faults come from the deterministic `--inject` plan, so each scenario
//! reproduces exactly: a flaky fault test is worse than no fault test.
//!
//! The robustness claims pinned here:
//!
//! - a malformed or truncated frame poisons only its own connection,
//! - protocol fuzz (seeded) never takes the listener down,
//! - a mid-rung cancellation still salvages partial facts,
//! - a shed-then-retried request gets a response byte-identical to an
//!   uncontended one,
//! - garbage and truncated response frames are retried by the client,
//! - client disconnect cancels the in-flight analysis,
//! - back-to-back requests on one connection never wait on the previous
//!   request's disconnect monitor,
//! - tight budgets degrade down the ladder with the 0/3/4 contract.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rudoop_core::service::client::{query_with_retry, send_once, RetryPolicy};
use rudoop_core::service::faults::FaultPlan;
use rudoop_core::service::protocol::{
    self, BudgetSpec, FrameError, QueryRequest, Request, Response, MAX_RESPONSE_FRAME,
};
use rudoop_core::service::server::{Server, ServerHandle};
use rudoop_core::service::{ServiceConfig, ServiceState};
use rudoop_ir::rng::SplitMix64;
use rudoop_workloads::dacapo;

/// Spawns a server over `benchmark`, returning the handle plus the shared
/// state (tests poll its admission gate and counters).
fn service(benchmark: &str, config: ServiceConfig) -> (ServerHandle, Arc<ServiceState>, String) {
    let program = dacapo::by_name(benchmark).expect("known benchmark").build();
    let state = Arc::new(ServiceState::new(program, config));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").expect("bind loopback");
    let handle = server.spawn().expect("spawn server thread");
    let addr = handle.addr().to_string();
    (handle, state, addr)
}

/// A fast query: insensitive stats (the insensitive rung completes in
/// milliseconds on the small benchmarks).
fn quick_stats() -> Request {
    Request::Query(QueryRequest {
        kind: "stats".to_owned(),
        ladder: Some("insens".to_owned()),
        ..QueryRequest::default()
    })
}

/// A slow query: the full `2objH` rung, which runs long enough on
/// `hsqldb` for cancellation to land mid-rung.
fn slow_stats() -> Request {
    Request::Query(QueryRequest {
        kind: "stats".to_owned(),
        ladder: Some("2objH".to_owned()),
        ..QueryRequest::default()
    })
}

fn expect_doc(response: Response) -> (String, u8, String) {
    match response {
        Response::Doc {
            status,
            exit_code,
            doc,
            ..
        } => (status, exit_code, doc),
        other => panic!("expected a doc response, got {other:?}"),
    }
}

#[test]
fn malformed_frame_poisons_only_its_own_connection() {
    let (handle, _state, addr) = service("antlr", ServiceConfig::default());

    // A healthy connection, opened first.
    let mut healthy = TcpStream::connect(&addr).expect("connect");
    protocol::write_frame(&mut healthy, Request::Ping.render().as_bytes()).unwrap();
    let payload = protocol::read_frame(&mut healthy, MAX_RESPONSE_FRAME).unwrap();
    assert_eq!(Response::parse(&payload).unwrap(), Response::Ok);

    // A hostile connection: a length prefix far over the request cap.
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
    hostile.flush().unwrap();
    let payload = protocol::read_frame(&mut hostile, MAX_RESPONSE_FRAME).unwrap();
    match Response::parse(&payload).unwrap() {
        Response::Error { message } => {
            assert!(message.contains("oversized frame"), "got: {message}")
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    // The hostile connection is dropped: framing is no longer trusted.
    assert_eq!(
        protocol::read_frame(&mut hostile, MAX_RESPONSE_FRAME),
        Err(FrameError::Closed)
    );

    // The healthy connection — and fresh ones — keep serving.
    protocol::write_frame(&mut healthy, quick_stats().render().as_bytes()).unwrap();
    let payload = protocol::read_frame(&mut healthy, MAX_RESPONSE_FRAME).unwrap();
    let (status, exit_code, doc) = expect_doc(Response::parse(&payload).unwrap());
    assert_eq!((status.as_str(), exit_code), ("complete", 0));
    assert!(!doc.is_empty());
    let fresh = send_once(&addr, &Request::Ping).expect("fresh connection");
    assert_eq!(fresh, Response::Ok);
    handle.stop();
}

#[test]
fn truncated_frame_gets_a_typed_error() {
    let (handle, _state, addr) = service("antlr", ServiceConfig::default());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    // Promise 100 payload bytes, deliver 10, then half-close.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    stream.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let payload = protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME).unwrap();
    match Response::parse(&payload).unwrap() {
        Response::Error { message } => assert!(
            message.contains("truncated frame: got 10 of 100 byte(s)"),
            "got: {message}"
        ),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(
        protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME),
        Err(FrameError::Closed)
    );
    handle.stop();
}

/// Seeded protocol fuzz: well-framed garbage payloads. Framing stays
/// intact, so the server must answer each with a typed error and keep
/// the connection — and the listener — alive throughout.
#[test]
fn seeded_protocol_fuzz_leaves_the_daemon_serving() {
    let (handle, _state, addr) = service("antlr", ServiceConfig::default());
    let mut rng = SplitMix64::new(0xF422_F422);
    for round in 0..40 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let len = rng.below(48);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        protocol::write_frame(&mut stream, &garbage).unwrap();
        let payload = protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME)
            .unwrap_or_else(|e| panic!("round {round}: no response to fuzz frame: {e}"));
        assert!(
            matches!(Response::parse(&payload), Ok(Response::Error { .. })),
            "round {round}: fuzz frame must yield a typed error"
        );
        // Intact framing means the connection survives its bad payload.
        protocol::write_frame(&mut stream, Request::Ping.render().as_bytes()).unwrap();
        let payload = protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME).unwrap();
        assert_eq!(Response::parse(&payload).unwrap(), Response::Ok);
    }
    // After the storm the daemon still runs real queries.
    let response = send_once(&addr, &quick_stats()).expect("query after fuzz");
    let (status, _, doc) = expect_doc(response);
    assert_eq!(status, "complete");
    assert!(!doc.is_empty());
    handle.stop();
}

#[test]
fn mid_rung_cancel_salvages_partial_facts() {
    let config = ServiceConfig {
        faults: FaultPlan::parse(&["cancel-mid-rung@req=1".to_owned()]).unwrap(),
        ..ServiceConfig::default()
    };
    let (handle, _state, addr) = service("hsqldb", config);
    let response = send_once(&addr, &slow_stats()).expect("cancelled query still answers");
    let (status, exit_code, doc) = expect_doc(response);
    assert_eq!(
        (status.as_str(), exit_code),
        ("exhausted", 4),
        "a lone cancelled rung must report exhaustion"
    );
    assert!(
        !doc.is_empty(),
        "the stats document must render over the salvaged partial facts"
    );
    // The fault targeted request 1 only: request 2 completes normally.
    let response = send_once(&addr, &quick_stats()).expect("follow-up query");
    assert_eq!(expect_doc(response).0, "complete");
    handle.stop();
}

/// The headline robustness property: a request shed under load and
/// retried by the client returns a response byte-identical to the same
/// query served with no contention at all.
#[test]
fn shed_then_retry_returns_byte_identical_response() {
    let config = ServiceConfig {
        workers: 1,
        queue: 0,
        faults: FaultPlan::parse(&["stall-ms=400@req=1".to_owned()]).unwrap(),
        ..ServiceConfig::default()
    };
    let (handle, state, addr) = service("antlr", config);

    // Occupy the only worker slot: the stalled request holds it for
    // 400ms before its (fast) analysis even starts.
    let mut blocker = TcpStream::connect(&addr).expect("connect");
    protocol::write_frame(&mut blocker, quick_stats().render().as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.admission().occupancy().0 == 0 {
        assert!(Instant::now() < deadline, "blocker was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The contended request: shed at least once, then retried to success.
    let policy = RetryPolicy {
        retries: 5,
        base_ms: 400,
        cap_ms: 2_000,
        seed: 9,
    };
    let outcome = query_with_retry(&addr, &quick_stats(), &policy, &None).expect("retry succeeds");
    assert!(outcome.attempts >= 2, "the first attempt must be shed");
    assert_eq!(outcome.delays_ms.len() as u32, outcome.attempts - 1);
    for (i, d) in outcome.delays_ms.iter().enumerate() {
        assert!(
            *d >= 25,
            "delay {i} ({d}ms) ignored the retry_after_ms floor"
        );
    }
    assert!(state.counters.shed.load(Ordering::Relaxed) >= 1);

    // Drain the blocker, then fetch the uncontended reference response.
    let payload = protocol::read_frame(&mut blocker, MAX_RESPONSE_FRAME).unwrap();
    assert_eq!(expect_doc(Response::parse(&payload).unwrap()).0, "complete");
    let reference = send_once(&addr, &quick_stats()).expect("uncontended query");
    assert_eq!(
        outcome.response.render(),
        reference.render(),
        "shed-then-retried response must be byte-identical to the uncontended one"
    );
    handle.stop();
}

#[test]
fn garbage_response_frame_is_retried_to_success() {
    let config = ServiceConfig {
        faults: FaultPlan::parse(&["garbage-frame@req=1".to_owned()]).unwrap(),
        ..ServiceConfig::default()
    };
    let (handle, _state, addr) = service("antlr", config);
    let policy = RetryPolicy {
        retries: 3,
        base_ms: 10,
        cap_ms: 50,
        seed: 3,
    };
    let outcome = query_with_retry(&addr, &quick_stats(), &policy, &None)
        .expect("garbage frame must be survivable");
    assert_eq!(
        outcome.attempts, 2,
        "exactly the garbled attempt is retried"
    );
    assert_eq!(expect_doc(outcome.response).0, "complete");
    handle.stop();
}

#[test]
fn truncated_response_poisons_only_that_connection() {
    let config = ServiceConfig {
        faults: FaultPlan::parse(&["drop-after-bytes=6@req=1".to_owned()]).unwrap(),
        ..ServiceConfig::default()
    };
    let (handle, _state, addr) = service("antlr", config);

    // Request 1: the response frame dies 6 bytes in (4 header + 2 payload).
    let mut stream = TcpStream::connect(&addr).expect("connect");
    protocol::write_frame(&mut stream, quick_stats().render().as_bytes()).unwrap();
    match protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME) {
        Err(FrameError::Truncated { got: 2, .. }) => {}
        other => panic!("expected a 2-byte truncated payload, got {other:?}"),
    }

    // Request 2, fresh connection: untouched. And the client-side retry
    // loop handles the whole exchange on its own.
    let response = send_once(&addr, &quick_stats()).expect("fresh connection");
    assert_eq!(expect_doc(response).0, "complete");
    handle.stop();
}

#[test]
fn client_disconnect_cancels_the_inflight_request() {
    let config = ServiceConfig {
        workers: 1,
        queue: 0,
        ..ServiceConfig::default()
    };
    let (handle, state, addr) = service("hsqldb", config);

    // Send a slow query, wait for admission, then hang up.
    let stream = TcpStream::connect(&addr).expect("connect");
    {
        let mut stream = &stream;
        protocol::write_frame(&mut stream, slow_stats().render().as_bytes()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.admission().occupancy().0 == 0 {
        assert!(Instant::now() < deadline, "query was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    // The disconnect monitor cancels the token; the supervised run winds
    // down as non-complete, which the degraded counter records. Without
    // cancellation a full 2objH on hsqldb would hold the slot far longer.
    let deadline = Instant::now() + Duration::from_secs(60);
    while state.counters.degraded.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the in-flight request"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The worker slot came back: a fresh query is admitted and served.
    let response = send_once(&addr, &quick_stats()).expect("slot was released");
    assert_eq!(expect_doc(response).0, "complete");
    handle.stop();
}

/// A closed loop on one connection: each request is sent as soon as the
/// previous response arrives. Joining the previous request's disconnect
/// monitor would cost one 50 ms poll per request (at least 1 s here); the
/// detached monitor costs nothing.
#[test]
fn back_to_back_requests_do_not_wait_on_the_disconnect_monitor() {
    let program = rudoop_ir::parse_program("class Object\nmethod Object.main() static {\n}\n")
        .expect("parse");
    let state = Arc::new(ServiceState::new(program, ServiceConfig::default()));
    let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").expect("bind loopback");
    let handle = server.spawn().expect("spawn server thread");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // A frame is two writes; without this, Nagle's algorithm holds the
    // second one for the server's delayed ACK.
    stream.set_nodelay(true).unwrap();
    let start = Instant::now();
    for _ in 0..20 {
        protocol::write_frame(&mut stream, quick_stats().render().as_bytes()).unwrap();
        let payload = protocol::read_frame(&mut stream, MAX_RESPONSE_FRAME).unwrap();
        assert_eq!(expect_doc(Response::parse(&payload).unwrap()).0, "complete");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "20 back-to-back requests took {elapsed:?}"
    );
    handle.stop();
}

/// Per-request budgets degrade down the ladder: a derivation cap sized
/// for the insensitive rung but far below `2objH` yields the degraded
/// verdict (exit 3) with the insensitive rung's document.
#[test]
fn tight_budget_degrades_down_the_ladder() {
    let (handle, state, addr) = service("hsqldb", ServiceConfig::default());
    let warm = state.warm_first_pass().expect("warm pass completed");
    let request = Request::Query(QueryRequest {
        kind: "stats".to_owned(),
        ladder: Some("2objH,insens".to_owned()),
        budget: BudgetSpec {
            derivations: Some(warm.stats.derivations * 4),
            ..BudgetSpec::default()
        },
        ..QueryRequest::default()
    });
    let response = send_once(&addr, &request).expect("budgeted query");
    match response {
        Response::Doc {
            status,
            exit_code,
            analysis,
            doc,
        } => {
            assert_eq!((status.as_str(), exit_code), ("degraded", 3));
            assert_eq!(analysis.as_deref(), Some("insens"));
            assert!(!doc.is_empty());
        }
        other => panic!("expected a degraded doc, got {other:?}"),
    }
    handle.stop();
}

/// The warm summary cache: the first `summaries` query computes the
/// bottom-up table (one miss), every later one reuses it (hits) — the
/// daemon's first *context-sensitive* warm artifact. The table is a pure
/// function of the resident program, so warm responses are byte-identical
/// to the cold one, and non-summaries queries never touch the cache.
#[test]
fn warm_summary_cache_serves_repeated_queries() {
    let (handle, state, addr) = service("antlr", ServiceConfig::default());

    // A non-summaries query leaves the cache untouched.
    let response = send_once(&addr, &quick_stats()).expect("insens query");
    assert_eq!(expect_doc(response).0, "complete");
    assert_eq!(state.counters.summary_cache_hits.load(Ordering::SeqCst), 0);
    assert_eq!(
        state.counters.summary_cache_misses.load(Ordering::SeqCst),
        0
    );

    let summaries_stats = || {
        Request::Query(QueryRequest {
            kind: "stats".to_owned(),
            ladder: Some("summaries".to_owned()),
            ..QueryRequest::default()
        })
    };

    // Cold: the table is computed and cached — exactly one miss.
    let cold = send_once(&addr, &summaries_stats()).expect("cold summaries query");
    let (status, exit_code, cold_doc) = expect_doc(cold);
    assert_eq!((status.as_str(), exit_code), ("complete", 0));
    assert_eq!(state.counters.summary_cache_hits.load(Ordering::SeqCst), 0);
    assert_eq!(
        state.counters.summary_cache_misses.load(Ordering::SeqCst),
        1
    );

    // Warm: served from the cached table, byte-identical documents.
    for round in 1..=2u64 {
        let warm = send_once(&addr, &summaries_stats()).expect("warm summaries query");
        let (status, exit_code, warm_doc) = expect_doc(warm);
        assert_eq!((status.as_str(), exit_code), ("complete", 0));
        assert_eq!(
            warm_doc, cold_doc,
            "warm summaries run must reproduce the cold document byte for byte"
        );
        assert_eq!(
            state.counters.summary_cache_hits.load(Ordering::SeqCst),
            round
        );
        assert_eq!(
            state.counters.summary_cache_misses.load(Ordering::SeqCst),
            1,
            "the table is computed at most once per resident program"
        );
    }
    handle.stop();
}
