//! Determinism contract of the telemetry layer.
//!
//! Telemetry keeps three strictly separated streams (see
//! `rudoop_core::telemetry`):
//!
//! - the **counter stream** holds only values derived from final analysis
//!   results, so its text rendering must be *byte-identical* across
//!   repeated runs;
//! - the **metric stream** holds engine scheduling values (worklist
//!   drains, successor visits), which must also be byte-identical across
//!   repeated runs;
//! - spans, instants, and samples carry wall-clock timestamps and are never
//!   compared.
//!
//! On top of that, telemetry must be *observationally inert*: a run with a
//! recorder attached produces byte-identical results (canonical stats,
//! projections, outcome, exit codes) to a run without one.

use std::sync::Arc;

use rudoop_core::driver::{analyze_flavor, Flavor};
use rudoop_core::solver::{Budget, SolverConfig};
use rudoop_core::supervisor::{supervise, LadderSpec, SupervisorConfig};
use rudoop_core::{Telemetry, TelemetryHandle};
use rudoop_ir::{ClassHierarchy, Program};
use rudoop_workloads::dacapo;

const FLAVORS: [(Flavor, &str); 4] = [
    (Flavor::Insensitive, "insens"),
    (Flavor::OBJ2H, "2objH"),
    (Flavor::CALL2H, "2callH"),
    (Flavor::TYPE2H, "2typeH"),
];

fn workloads() -> Vec<(String, Program)> {
    [dacapo::antlr(), dacapo::lusearch(), dacapo::pmd()]
        .into_iter()
        .map(|spec| (spec.name.clone(), spec.build()))
        .collect()
}

fn traced_config(tele: &TelemetryHandle) -> SolverConfig {
    SolverConfig {
        budget: Budget::unlimited(),
        telemetry: tele.clone(),
        ..SolverConfig::default()
    }
}

/// Runs one flavor and returns `(counter text, metric text)`.
fn run_traced(program: &Program, hierarchy: &ClassHierarchy, flavor: Flavor) -> (String, String) {
    let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
    let result = analyze_flavor(program, hierarchy, flavor, &traced_config(&tele));
    assert!(result.outcome.is_complete());
    let t = tele.as_deref().unwrap();
    (t.counter_stream_text(), t.metric_stream_text())
}

/// Counter and metric streams are byte-identical across repeated runs,
/// on three workloads × all four flavors.
#[test]
fn counter_streams_are_run_invariant() {
    for (name, program) in workloads() {
        let hierarchy = ClassHierarchy::new(&program);
        for (flavor, label) in FLAVORS {
            let (counters, metrics) = run_traced(&program, &hierarchy, flavor);
            assert!(!counters.is_empty(), "{name}/{label}: no counters recorded");
            assert!(!metrics.is_empty(), "{name}/{label}: no metrics recorded");
            let (again_c, again_m) = run_traced(&program, &hierarchy, flavor);
            assert_eq!(
                counters, again_c,
                "{name}/{label}: counters differ between repeated runs"
            );
            assert_eq!(
                metrics, again_m,
                "{name}/{label}: metrics differ between repeated runs"
            );
        }
    }
}

/// The sequential drain reports, in the metric stream, how many copy
/// successors it skipped because they already held the whole delta and
/// how many it walked. On antlr `2objH` the skip fires.
#[test]
fn sequential_drain_reports_skipped_successors() {
    let program = dacapo::antlr().build();
    let hierarchy = ClassHierarchy::new(&program);
    let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
    analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &traced_config(&tele));
    let metrics = tele.as_deref().unwrap().metric_stream();
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no {name} metric"))
    };
    assert!(get("seq.worklist_drains") > 0);
    assert!(get("seq.succ_skipped") > 0);
    assert!(get("seq.succ_visited") > 0);
}

/// Attaching a recorder never changes the analysis: canonical stats,
/// projections, outcome — byte-identical on vs. off.
#[test]
fn telemetry_is_observationally_inert() {
    for (name, program) in workloads() {
        let hierarchy = ClassHierarchy::new(&program);
        for (flavor, label) in FLAVORS {
            let plain = analyze_flavor(&program, &hierarchy, flavor, &traced_config(&None));
            let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
            let traced = analyze_flavor(&program, &hierarchy, flavor, &traced_config(&tele));
            let tag = format!("{name}/{label}");
            assert_eq!(plain.outcome, traced.outcome, "{tag}: outcome");
            assert_eq!(
                plain.stats.canonical(),
                traced.stats.canonical(),
                "{tag}: canonical stats"
            );
            assert_eq!(plain.var_pts, traced.var_pts, "{tag}: var projections");
            assert_eq!(
                plain.field_pts, traced.field_pts,
                "{tag}: field projections"
            );
            assert_eq!(plain.call_targets, traced.call_targets, "{tag}: call graph");
        }
    }
}

/// A budgeted ladder run emits exactly one `rung` span per attempted rung —
/// including rungs skipped by the exhausted-first-pass proxy, which still
/// count as attempts.
#[test]
fn ladder_emits_one_rung_span_per_attempt() {
    let program = dacapo::hsqldb().build();
    let hierarchy = ClassHierarchy::new(&program);
    let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
    let cfg = SupervisorConfig {
        ladder: LadderSpec::parse("2objH,introB:2objH,insens").unwrap(),
        budget: Budget::derivations(2_000_000),
        solver: SolverConfig {
            telemetry: tele.clone(),
            ..SolverConfig::default()
        },
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    assert!(run.attempts.len() > 1, "ladder must actually degrade");
    let t = tele.as_deref().unwrap();
    let rung_spans = t.spans().iter().filter(|s| s.name == "rung").count();
    assert_eq!(
        rung_spans,
        run.attempts.len(),
        "one rung span per attempted rung"
    );
    // The supervisor's own framing: one supervise span, and a degradation
    // instant for every non-complete attempt.
    let spans = t.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "supervise").count(), 1);
    let degraded = t
        .instants()
        .iter()
        .filter(|i| i.name == "rung-degraded")
        .count();
    let failed = run
        .attempts
        .iter()
        .filter(|a| a.exhaustion.is_some())
        .count();
    assert_eq!(degraded, failed, "one degradation instant per failed rung");
}

/// The service layer keeps the counter-stream contract: a scripted
/// serial overload scenario — one stalled request occupying the only
/// worker, one request shed and retried — produces a byte-identical
/// counter stream on every run, with the `service.*` counters flushed
/// once at shutdown in fixed order and the client's retry counter pushed
/// from the retry loop.
#[test]
fn service_counter_stream_is_run_invariant() {
    use rudoop_core::service::client::{query_with_retry, RetryPolicy};
    use rudoop_core::service::faults::FaultPlan;
    use rudoop_core::service::protocol::{
        self, QueryRequest, Request, Response, MAX_RESPONSE_FRAME,
    };
    use rudoop_core::service::server::Server;
    use rudoop_core::service::{ServiceConfig, ServiceState};

    fn scripted_run() -> String {
        let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
        let config = ServiceConfig {
            workers: 1,
            queue: 0,
            faults: FaultPlan::parse(&["stall-ms=100@req=1".to_owned()]).unwrap(),
            telemetry: tele.clone(),
            ..ServiceConfig::default()
        };
        // A tiny program, so the worker slot is held for the stall alone:
        // a benchmark-sized solve after the stall can outlast the retry
        // backoff in unoptimized builds and shed the retry a second time.
        let program = rudoop_ir::parse_program(
            "class Object\n\
             method Object.id(x) static {\n  return x\n}\n\
             method Object.main() static {\n  o = new Object\n  r = static Object.id(o)\n}\n\
             entry Object.main\n",
        )
        .expect("parse");
        let state = Arc::new(ServiceState::new(program, config));
        let server = Server::bind(Arc::clone(&state), "127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr().to_string();

        let query = Request::Query(QueryRequest {
            kind: "stats".to_owned(),
            ladder: Some("insens".to_owned()),
            ..QueryRequest::default()
        });

        // Occupy the only worker slot (held through the 100ms stall).
        let mut blocker = std::net::TcpStream::connect(&addr).expect("connect");
        protocol::write_frame(&mut blocker, query.render().as_bytes()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while state.admission().occupancy().0 == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "blocker never admitted"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Shed exactly once: the retry backs off 300-600ms, far past the
        // stall, so the second attempt is deterministically accepted.
        let policy = RetryPolicy {
            retries: 3,
            base_ms: 600,
            cap_ms: 2_000,
            seed: 11,
        };
        let outcome = query_with_retry(&addr, &query, &policy, &tele).expect("retry succeeds");
        assert_eq!(outcome.attempts, 2, "exactly one shed, one success");

        let payload = protocol::read_frame(&mut blocker, MAX_RESPONSE_FRAME).unwrap();
        assert!(matches!(
            Response::parse(&payload).unwrap(),
            Response::Doc { .. }
        ));
        drop(blocker);
        handle.stop();
        tele.as_deref().unwrap().counter_stream_text()
    }

    let first = scripted_run();
    let again = scripted_run();
    assert_eq!(
        first, again,
        "service counter stream must reproduce byte-identically"
    );
    for line in [
        "service.client_retries=1",
        "service.requests_accepted=2",
        "service.requests_shed=1",
        "service.requests_degraded=0",
        "service.summary_cache_hits=0",
        "service.summary_cache_misses=0",
    ] {
        assert!(
            first.lines().any(|l| l == line),
            "stream is missing {line:?}:\n{first}"
        );
    }
    // The client retry fires mid-run, the service counters flush at
    // shutdown — the stream order pins that discipline.
    let pos = |needle: &str| first.find(needle).unwrap();
    assert!(pos("service.client_retries") < pos("service.requests_accepted"));
    assert!(pos("service.requests_accepted") < pos("service.requests_shed"));
    assert!(pos("service.requests_shed") < pos("service.requests_degraded"));
    assert!(pos("service.requests_degraded") < pos("service.summary_cache_hits"));
    assert!(pos("service.summary_cache_hits") < pos("service.summary_cache_misses"));
}
