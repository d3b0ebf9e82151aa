//! `rudoop` — command-line driver for the points-to analysis framework.
//!
//! ```text
//! rudoop <program.rdp | @benchmark> [options]
//!
//!   <program.rdp>        a program in the textual IL format
//!   @<name>              a built-in DaCapo-shaped benchmark (e.g. @pmd)
//!
//! options:
//!   --analysis <name>    insens | cutshortcut | summaries | 1call |
//!                        2callH | 1objH | 2objH | 2typeH | S2objH
//!                        (default: 2objH)
//!   --introspective <h>  A | B — run the two-pass introspective variant
//!   --ladder <spec>      run a degradation ladder (comma-separated rungs,
//!                        e.g. 2objH,introB:2objH,insens; `default`; or a
//!                        lone introB:2objH which expands to the canonical
//!                        ladder). Exit code: 0 complete / 3 degraded /
//!                        4 all rungs exhausted.
//!   --budget <n>         per-run derivation budget (default: unlimited)
//!   --max-bytes <n>      per-run modeled memory budget in bytes
//!   --timeout <secs>     per-run wall-clock deadline (watchdog-enforced
//!                        under the supervisor: ladder and client modes)
//!   --filter-casts       enable assign-cast filtering
//!   --stats              print the points-to distribution dashboard
//!   --pts <var>          print the points-to set of Class.method::var
//!   --dump               print projected var-points-to for all variables
//!   --trace <path>       write a Chrome trace-event file of the run
//!                        (load chrome://tracing or https://ui.perfetto.dev)
//!   --profile <path>     write the structured JSON profile
//!                        (schema `rudoop-profile-v1`)
//!   --telemetry          print the span/counter summary table on stderr
//!   --check-trace <path> validate a Chrome trace-event file written by
//!                        --trace and exit (0 valid / 1 invalid) — the
//!                        same checker CI runs on generated traces
//!
//! Stream contract: machine-readable documents (`--format json`, `--pts`,
//! `--dump`, `--stats`) are the only stdout payloads; progress text, the
//! ladder table, and telemetry summaries always go to stderr. Telemetry is
//! observational only — results are byte-identical with and without it.
//!
//! taint subcommand:
//!
//!   rudoop taint <program.rdp | @benchmark> --spec <file|builtin>
//!                [--format text|json] [options]
//!
//! Runs the points-to analysis under the supervisor (the `--ladder` spec,
//! or the canonical ladder for `--analysis`/`--introspective`), then the
//! taint client of the given spec on the completed rung. `builtin` (for
//! @benchmarks) switches the workload's taint battery on and uses its
//! canonical TaintKit spec. Leaks print with their shortest derivation
//! trace. When every rung exhausts, salvaged points-to facts are reported
//! but taint is *skipped* with a note — a partial leak list never
//! masquerades as a complete one. Exit contract is the ladder's:
//! 0 complete / 3 degraded / 4 exhausted.
//!
//! `--format json` prints a machine-readable leak report on stdout (the
//! ladder table moves to stderr so stdout stays a single JSON document);
//! the schema is documented on `rudoop::analysis::taint::render_json`.
//!
//! races subcommand:
//!
//!   rudoop races <program.rdp | @benchmark>
//!                [--format text|json] [options]
//!
//! Runs the points-to analysis under the supervisor (the `--ladder` spec,
//! or the canonical ladder for `--analysis`/`--introspective`), then the
//! data-race client on the completed rung: may-happen-in-parallel from the
//! context-sensitive thread-creation graph, lock sets resolved through
//! points-to, and deterministic `(field, access A, access B)` witnesses
//! with shortest per-thread traces. For `@benchmark` inputs the workload's
//! concurrency battery is switched on (the default recipes are
//! sequential). When every rung exhausts, race detection is *skipped* with
//! a note — a partial race list never masquerades as a complete one. Exit
//! contract is the ladder's: 0 complete / 3 degraded / 4 exhausted.
//!
//! `--format json` prints a machine-readable race report on stdout (the
//! ladder table moves to stderr); the schema is documented on
//! `rudoop::analysis::races::render_json`.
//!
//! query subcommand:
//!
//!   rudoop query --addr HOST:PORT [--kind stats|dump|pts|taint|races|lints]
//!                [--var VAR] [--format text|json] [--ladder SPEC]
//!                [--budget N] [--max-bytes N] [--timeout-ms N]
//!                [--retries N] [--retry-base-ms N] [--retry-cap-ms N]
//!                [--retry-seed N] [--ping] [--shutdown]
//!
//! Sends one query to a resident `rudoopd` daemon. `busy` sheds and
//! transport failures retry with bounded exponential backoff and
//! SplitMix64 jitter (deterministic under `--retry-seed`), floored at
//! the server's `retry_after_ms` hint. The response document prints on
//! stdout byte-identical to the batch CLI's output for the same query.
//! Exit contract: 0 complete / 3 degraded / 4 exhausted / 1 error /
//! 5 shed on every retry.

use std::process::ExitCode;
use std::time::Duration;

use rudoop::analysis::driver::{analyze_flavor, analyze_introspective, Flavor};
use rudoop::analysis::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use rudoop::analysis::races::supervised_races_traced;
use rudoop::analysis::solver::{Budget, SolverConfig};
use rudoop::analysis::supervisor::{supervise, LadderSpec, SupervisedRun, SupervisorConfig};
use rudoop::analysis::taint::supervised_taint_traced;
use rudoop::analysis::telemetry::span_opt;
use rudoop::analysis::{
    render_supervised, PrecisionMetrics, ResultStats, Telemetry, TelemetryHandle,
};
use rudoop::cli::{flush_telemetry, print_stdout};
use rudoop::ir::{validate, ClassHierarchy, Program, TaintSpec};

struct Options {
    input: String,
    taint_cmd: bool,
    races_cmd: bool,
    spec: Option<String>,
    flavor: Flavor,
    introspective: Option<char>,
    ladder: Option<LadderSpec>,
    budget: Option<u64>,
    max_bytes: Option<u64>,
    timeout: Option<Duration>,
    json: bool,
    filter_casts: bool,
    stats: bool,
    pts: Vec<String>,
    dump: bool,
    trace: Option<String>,
    profile: Option<String>,
    telemetry: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rudoop [taint|races] <program.rdp | @benchmark> [--analysis NAME] \
         [--introspective A|B] [--ladder SPEC] [--spec FILE|builtin] \
         [--format text|json] [--budget N] [--max-bytes N] \
         [--timeout SECS] [--filter-casts] [--stats] \
         [--pts Class.method::var] [--dump] [--trace PATH] [--profile PATH] \
         [--telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        taint_cmd: false,
        races_cmd: false,
        spec: None,
        flavor: Flavor::OBJ2H,
        introspective: None,
        ladder: None,
        budget: None,
        max_bytes: None,
        timeout: None,
        json: false,
        filter_casts: false,
        stats: false,
        pts: Vec::new(),
        dump: false,
        trace: None,
        profile: None,
        telemetry: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--analysis" => {
                let name = args.next().unwrap_or_else(|| usage());
                opts.flavor = Flavor::parse(&name).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage()
                });
            }
            "--introspective" => {
                let h = args.next().unwrap_or_else(|| usage());
                match h.as_str() {
                    "A" => opts.introspective = Some('A'),
                    "B" => opts.introspective = Some('B'),
                    _ => usage(),
                }
            }
            "--ladder" => {
                let spec = args.next().unwrap_or_else(|| usage());
                opts.ladder = Some(LadderSpec::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad ladder: {e}");
                    usage()
                }));
            }
            "--budget" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.budget = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--max-bytes" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.max_bytes = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                let secs: f64 = secs.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs <= 0.0 {
                    usage();
                }
                opts.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--format" => {
                let fmt = args.next().unwrap_or_else(|| usage());
                match fmt.as_str() {
                    "text" => opts.json = false,
                    "json" => opts.json = true,
                    _ => {
                        eprintln!("unknown format {fmt:?} (expected text or json)");
                        usage();
                    }
                }
            }
            "--spec" => opts.spec = Some(args.next().unwrap_or_else(|| usage())),
            "--check-trace" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        std::process::exit(1);
                    }
                };
                match rudoop::validate_chrome_trace(&text) {
                    Ok(check) => {
                        eprintln!(
                            "{path}: valid — {} events, {} spans, {} instants, {} samples, \
                             {} span names, max ts {}us",
                            check.events,
                            check.spans,
                            check.instants,
                            check.samples,
                            check.span_names.len(),
                            check.max_ts_us
                        );
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("error: {path}: invalid trace: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => opts.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--telemetry" => opts.telemetry = true,
            "--filter-casts" => opts.filter_casts = true,
            "--stats" => opts.stats = true,
            "--pts" => opts.pts.push(args.next().unwrap_or_else(|| usage())),
            "--dump" => opts.dump = true,
            "--help" | "-h" => usage(),
            "taint" if !opts.taint_cmd && !opts.races_cmd && opts.input.is_empty() => {
                opts.taint_cmd = true;
            }
            "races" if !opts.taint_cmd && !opts.races_cmd && opts.input.is_empty() => {
                opts.races_cmd = true;
            }
            other if opts.input.is_empty() && !other.starts_with('-') => {
                opts.input = other.to_owned();
            }
            other => {
                eprintln!("unexpected argument {other:?}");
                usage();
            }
        }
    }
    if opts.input.is_empty() {
        usage();
    }
    if opts.taint_cmd && opts.spec.is_none() {
        eprintln!("the taint subcommand needs --spec FILE (or --spec builtin for @benchmarks)");
        usage();
    }
    if !opts.taint_cmd && opts.spec.is_some() {
        eprintln!("--spec only makes sense with the taint subcommand");
        usage();
    }
    if !opts.taint_cmd && !opts.races_cmd && opts.json {
        eprintln!("--format json only makes sense with the taint or races subcommand");
        usage();
    }
    opts
}

/// Loads the program plus, for `--spec builtin` on a `@benchmark`, the
/// workload's canonical TaintKit spec (switching the taint battery on in
/// the build, since the default recipes omit it). The races subcommand
/// switches the workload's concurrency battery on the same way — the
/// default recipes are sequential, so a race run over a stock benchmark
/// would be vacuous.
use rudoop::cli::load_program;

/// The `query` subcommand: one request against a resident `rudoopd`,
/// with bounded exponential backoff and SplitMix64 jitter on `busy`
/// sheds and transport failures. The response document prints on stdout
/// byte-identical to the batch CLI's output for the same query; status
/// goes to stderr. Exit contract: the daemon's 0/3/4 verdict for
/// answered queries, 1 for errors, 5 when every retry was shed.
fn run_query() -> ExitCode {
    use rudoop::analysis::service::client::{query_with_retry, ClientError, RetryPolicy};
    use rudoop::analysis::service::protocol::{BudgetSpec, DocFormat, QueryRequest, Request};

    fn query_usage() -> ! {
        eprintln!(
            "usage: rudoop query --addr HOST:PORT [--kind stats|dump|pts|taint|races|lints] \
             [--var Class.method::var] [--format text|json] [--ladder SPEC] [--budget N] \
             [--max-bytes N] [--timeout-ms N] [--retries N] [--retry-base-ms N] \
             [--retry-cap-ms N] [--retry-seed N] [--ping] [--shutdown]"
        );
        std::process::exit(2);
    }

    let mut args = std::env::args().skip(2);
    let mut addr: Option<String> = None;
    let mut query = QueryRequest {
        kind: "stats".to_owned(),
        var: None,
        format: DocFormat::Text,
        ladder: None,
        budget: BudgetSpec::default(),
    };
    let mut policy = RetryPolicy::default();
    let mut op: Option<Request> = None;
    while let Some(arg) = args.next() {
        let mut next = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} needs {what}");
                query_usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(next("HOST:PORT")),
            "--kind" => query.kind = next("KIND"),
            "--var" => query.var = Some(next("VAR")),
            "--format" => match next("text|json").as_str() {
                "text" => query.format = DocFormat::Text,
                "json" => query.format = DocFormat::Json,
                other => {
                    eprintln!("unknown format {other:?}");
                    query_usage()
                }
            },
            "--ladder" => query.ladder = Some(next("SPEC")),
            "--budget" => {
                query.budget.derivations = Some(next("N").parse().unwrap_or_else(|_| query_usage()))
            }
            "--max-bytes" => {
                query.budget.bytes = Some(next("N").parse().unwrap_or_else(|_| query_usage()))
            }
            "--timeout-ms" => {
                query.budget.ms = Some(next("N").parse().unwrap_or_else(|_| query_usage()))
            }
            "--retries" => policy.retries = next("N").parse().unwrap_or_else(|_| query_usage()),
            "--retry-base-ms" => {
                policy.base_ms = next("N").parse().unwrap_or_else(|_| query_usage())
            }
            "--retry-cap-ms" => policy.cap_ms = next("N").parse().unwrap_or_else(|_| query_usage()),
            "--retry-seed" => policy.seed = next("N").parse().unwrap_or_else(|_| query_usage()),
            "--ping" => op = Some(Request::Ping),
            "--shutdown" => op = Some(Request::Shutdown),
            "--help" | "-h" => query_usage(),
            other => {
                eprintln!("unexpected argument {other:?}");
                query_usage()
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("--addr is required");
        query_usage()
    };
    let request = op.unwrap_or(Request::Query(query));
    match query_with_retry(&addr, &request, &policy, &None) {
        Ok(outcome) => {
            if outcome.attempts > 1 {
                eprintln!(
                    "retried {} time(s), backoff {:?} ms",
                    outcome.attempts - 1,
                    outcome.delays_ms
                );
            }
            use rudoop::analysis::service::protocol::Response;
            match outcome.response {
                Response::Ok => {
                    eprintln!("ok");
                    ExitCode::SUCCESS
                }
                Response::Doc {
                    status,
                    exit_code,
                    analysis,
                    doc,
                } => {
                    print_stdout(&doc);
                    eprintln!(
                        "status: {status} ({})",
                        analysis.as_deref().unwrap_or("no completed rung")
                    );
                    ExitCode::from(exit_code)
                }
                Response::Error { message } => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
                Response::Busy { .. } => unreachable!("busy responses are retried"),
            }
        }
        Err(e @ ClientError::Overloaded { .. }) => {
            eprintln!("error: {e}");
            ExitCode::from(5)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("query") {
        return run_query();
    }
    let opts = parse_args();
    let tele: TelemetryHandle = (opts.trace.is_some() || opts.profile.is_some() || opts.telemetry)
        .then(|| std::sync::Arc::new(Telemetry::new()));
    let builtin_taint = opts.taint_cmd && opts.spec.as_deref() == Some("builtin");
    let parse_span = span_opt(&tele, "parse");
    if let Some(s) = &parse_span {
        s.arg("input", &opts.input);
    }
    let (program, builtin_spec) = match load_program(&opts.input, builtin_taint, opts.races_cmd) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(errs) = validate(&program) {
        eprintln!("error: invalid program:");
        for e in errs {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }
    drop(parse_span);
    let hierarchy = ClassHierarchy::new(&program);
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.budget {
        budget = budget.and_derivations(n);
    }
    if let Some(n) = opts.max_bytes {
        budget = budget.and_bytes(n);
    }
    if let Some(d) = opts.timeout {
        budget = budget.and_duration(d);
    }
    let config = SolverConfig {
        budget,
        filter_casts: opts.filter_casts,
        // The taint and race clients walk per-context points-to facts.
        record_contexts: opts.taint_cmd || opts.races_cmd,
        telemetry: tele.clone(),
        ..SolverConfig::default()
    };

    let code = run(&program, &hierarchy, builtin_spec, budget, config, &opts);
    if let Err(e) = flush_telemetry(
        &tele,
        opts.trace.as_deref(),
        opts.profile.as_deref(),
        opts.telemetry,
    ) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    code
}

/// Dispatches to the taint subcommand, ladder mode, or a plain single run.
fn run(
    program: &Program,
    hierarchy: &ClassHierarchy,
    builtin_spec: Option<TaintSpec>,
    budget: Budget,
    config: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let builtin_taint = opts.taint_cmd && opts.spec.as_deref() == Some("builtin");
    if opts.taint_cmd {
        let spec = match &opts.spec {
            Some(_) if builtin_taint => builtin_spec.expect("builtin spec was loaded"),
            Some(path) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match TaintSpec::parse(&text, program) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => unreachable!("parse_args requires --spec with taint"),
        };
        return run_taint(program, hierarchy, &spec, budget, config, opts);
    }
    if opts.races_cmd {
        return run_races(program, hierarchy, budget, config, opts);
    }

    if let Some(ladder) = opts.ladder.clone() {
        return run_ladder(program, hierarchy, ladder, budget, config, opts);
    }

    let result = match opts.introspective {
        None => analyze_flavor(program, hierarchy, opts.flavor, &config),
        Some(which) => {
            let heuristic: Box<dyn RefinementHeuristic> = if which == 'A' {
                Box::new(HeuristicA::default())
            } else {
                Box::new(HeuristicB::default())
            };
            let run =
                analyze_introspective(program, hierarchy, opts.flavor, heuristic.as_ref(), &config);
            eprintln!(
                "selection: {:.1}% of call sites, {:.1}% of objects not refined",
                run.refinement_stats.call_site_pct(),
                run.refinement_stats.object_pct()
            );
            run.result
        }
    };

    eprintln!(
        "analysis {}: {} in {:.2}s, {} derivations, {} contexts",
        result.analysis,
        if result.outcome.is_complete() {
            "completed"
        } else {
            "BUDGET EXHAUSTED"
        },
        result.stats.duration.as_secs_f64(),
        result.stats.derivations,
        result.stats.contexts,
    );
    let pm = PrecisionMetrics::compute(program, hierarchy, &result);
    eprintln!(
        "precision: {} polymorphic virtual call sites, {} reachable methods, {} casts may fail",
        pm.polymorphic_call_sites, pm.reachable_methods, pm.casts_may_fail
    );
    print_reports(program, hierarchy, &result, opts);
    ExitCode::SUCCESS
}

/// The `taint` subcommand: supervise the points-to analysis down the
/// ladder, then run the taint client on the completed rung. An exhausted
/// ladder skips taint with a note (the 0/3/4 exit contract is the
/// supervisor's).
fn run_taint(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: &TaintSpec,
    budget: Budget,
    solver: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let tele = solver.telemetry.clone();
    let run = supervise_client(program, hierarchy, budget, solver, opts);
    // Keep stdout a single document either way; the ladder table is still
    // useful context, so it moves to stderr.
    eprint!("{}", render_supervised(&run));
    let taint = supervised_taint_traced(program, spec, &run, &tele);
    if opts.json {
        print_stdout(&rudoop::analysis::taint::render_json(program, &taint));
    } else {
        print_stdout(&rudoop::analysis::taint::render_text(program, &taint));
    }
    ExitCode::from(run.exit_code())
}

/// The `races` subcommand: supervise the points-to analysis down the
/// ladder, then run the data-race client on the completed rung. An
/// exhausted ladder skips race detection with a note (the 0/3/4 exit
/// contract is the supervisor's).
fn run_races(
    program: &Program,
    hierarchy: &ClassHierarchy,
    budget: Budget,
    solver: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let tele = solver.telemetry.clone();
    let run = supervise_client(program, hierarchy, budget, solver, opts);
    // Keep stdout a single document either way; the ladder table is still
    // useful context, so it moves to stderr.
    eprint!("{}", render_supervised(&run));
    let races = supervised_races_traced(program, &run, &tele);
    if opts.json {
        print_stdout(&rudoop::analysis::races::render_json(program, &races));
    } else {
        print_stdout(&rudoop::analysis::races::render_text(&races));
    }
    ExitCode::from(run.exit_code())
}

/// Supervises the points-to analysis a client subcommand runs on: the
/// `--ladder` spec, or the canonical ladder for `--analysis` and
/// `--introspective`.
fn supervise_client(
    program: &Program,
    hierarchy: &ClassHierarchy,
    budget: Budget,
    solver: SolverConfig,
    opts: &Options,
) -> SupervisedRun {
    let ladder = match (opts.ladder.clone(), opts.introspective) {
        (Some(l), _) => l,
        (None, Some(which)) => {
            let rung = format!("intro{which}:{}", opts.flavor.spec_name());
            LadderSpec::parse(&rung).expect("canonical introspective rung parses")
        }
        (None, None) => LadderSpec::default_for(opts.flavor),
    };
    let cfg = SupervisorConfig {
        ladder,
        budget,
        solver,
        ..SupervisorConfig::default()
    };
    supervise(program, hierarchy, &cfg)
}

/// Runs the degradation ladder and maps the verdict onto the exit-code
/// contract: 0 = complete, 3 = degraded, 4 = all rungs exhausted.
fn run_ladder(
    program: &Program,
    hierarchy: &ClassHierarchy,
    ladder: LadderSpec,
    budget: Budget,
    solver: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let cfg = SupervisorConfig {
        ladder,
        budget,
        solver,
        ..SupervisorConfig::default()
    };
    let run = supervise(program, hierarchy, &cfg);
    eprint!("{}", render_supervised(&run));
    if let Some(result) = run.best_result() {
        let pm = PrecisionMetrics::compute(program, hierarchy, result);
        eprintln!(
            "precision ({}): {} polymorphic virtual call sites, {} reachable methods, \
             {} casts may fail",
            result.analysis, pm.polymorphic_call_sites, pm.reachable_methods, pm.casts_may_fail
        );
        print_reports(program, hierarchy, result, opts);
    }
    ExitCode::from(run.exit_code())
}

/// The `--stats` / `--pts` / `--dump` reports over one result.
fn print_reports(
    program: &Program,
    _hierarchy: &ClassHierarchy,
    result: &rudoop::PointsToResult,
    opts: &Options,
) {
    if opts.stats {
        print_stdout(&format!(
            "\n{}",
            ResultStats::compute(program, result, 10).render(program)
        ));
    }

    for query in &opts.pts {
        match rudoop::analysis::stats::render_pts(program, result, query) {
            Some(doc) => print_stdout(&doc),
            None => eprintln!("no variable matches {query:?}"),
        }
    }

    if opts.dump {
        print_stdout(&rudoop::analysis::stats::render_dump(program, result));
    }
}
