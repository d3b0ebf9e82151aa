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

use rudoop::analysis::driver::{analyze_flavor, analyze_introspective, Flavor};
use rudoop::analysis::service::protocol::DocFormat;
use rudoop::analysis::service::render_doc;
use rudoop::analysis::solver::{Budget, SolverConfig};
use rudoop::analysis::supervisor::{
    supervise, HeuristicChoice, LadderSpec, SupervisedRun, SupervisorConfig,
};
use rudoop::analysis::telemetry::span_opt;
use rudoop::analysis::{
    render_supervised, PrecisionMetrics, ResultStats, Telemetry, TelemetryHandle,
};
use rudoop::cli::{flush_telemetry, load_input, parse_timeout, print_stdout};
use rudoop::ir::{ClassHierarchy, Program, TaintSpec};

struct Options {
    input: String,
    /// The client subcommand: `taint` or `races`.
    client: Option<String>,
    spec: Option<String>,
    flavor: Flavor,
    introspective: Option<HeuristicChoice>,
    ladder: Option<LadderSpec>,
    budget: Budget,
    format: DocFormat,
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
        client: None,
        spec: None,
        flavor: Flavor::OBJ2H,
        introspective: None,
        ladder: None,
        budget: Budget::unlimited(),
        format: DocFormat::Text,
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
                    "A" => opts.introspective = Some(HeuristicChoice::a()),
                    "B" => opts.introspective = Some(HeuristicChoice::b()),
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
                opts.budget = opts
                    .budget
                    .and_derivations(n.parse().unwrap_or_else(|_| usage()));
            }
            "--max-bytes" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.budget = opts.budget.and_bytes(n.parse().unwrap_or_else(|_| usage()));
            }
            "--timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                opts.budget = opts
                    .budget
                    .and_duration(parse_timeout(&secs).unwrap_or_else(|| usage()));
            }
            "--format" => {
                let fmt = args.next().unwrap_or_else(|| usage());
                opts.format = DocFormat::parse(&fmt).unwrap_or_else(|| {
                    eprintln!("unknown format {fmt:?} (expected text or json)");
                    usage()
                });
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
            "taint" | "races" if opts.client.is_none() && opts.input.is_empty() => {
                opts.client = Some(arg);
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
    let taint_cmd = opts.client.as_deref() == Some("taint");
    if taint_cmd && opts.spec.is_none() {
        eprintln!("the taint subcommand needs --spec FILE (or --spec builtin for @benchmarks)");
        usage();
    }
    if !taint_cmd && opts.spec.is_some() {
        eprintln!("--spec only makes sense with the taint subcommand");
        usage();
    }
    if opts.client.is_none() && opts.format == DocFormat::Json {
        eprintln!("--format json only makes sense with the taint or races subcommand");
        usage();
    }
    opts
}

/// The `query` subcommand: one request against a resident `rudoopd`,
/// with bounded exponential backoff and SplitMix64 jitter on `busy`
/// sheds and transport failures. The response document prints on stdout
/// byte-identical to the batch CLI's output for the same query; status
/// goes to stderr. Exit contract: the daemon's 0/3/4 verdict for
/// answered queries, 1 for errors, 5 when every retry was shed.
fn run_query() -> ExitCode {
    use rudoop::analysis::service::client::{query_with_retry, ClientError, RetryPolicy};
    use rudoop::analysis::service::protocol::{BudgetSpec, QueryRequest, Request};

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
            "--format" => {
                let fmt = next("text|json");
                query.format = DocFormat::parse(&fmt).unwrap_or_else(|| {
                    eprintln!("unknown format {fmt:?}");
                    query_usage()
                });
            }
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
    let parse_span = span_opt(&tele, "parse");
    if let Some(s) = &parse_span {
        s.arg("input", &opts.input);
    }
    // The races subcommand switches a benchmark's concurrency battery on:
    // the default recipes are sequential, so a race run would be vacuous.
    let races = opts.client.as_deref() == Some("races");
    let (program, spec) = match load_input(&opts.input, "--spec", opts.spec.as_deref(), races, true)
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(parse_span);
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        budget: opts.budget,
        filter_casts: opts.filter_casts,
        // The taint and race clients walk per-context points-to facts.
        record_contexts: opts.client.is_some(),
        telemetry: tele.clone(),
        ..SolverConfig::default()
    };

    let code = run(&program, &hierarchy, spec.as_ref(), config, &opts);
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

/// Dispatches to a client subcommand, ladder mode, or a plain single run.
fn run(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: Option<&TaintSpec>,
    config: SolverConfig,
    opts: &Options,
) -> ExitCode {
    if let Some(kind) = &opts.client {
        return run_client(program, hierarchy, spec, kind, config, opts);
    }
    if let Some(ladder) = &opts.ladder {
        return run_ladder(program, hierarchy, ladder.clone(), config, opts);
    }

    let result = match opts.introspective {
        None => analyze_flavor(program, hierarchy, opts.flavor, &config),
        Some(heuristic) => {
            let run =
                analyze_introspective(program, hierarchy, opts.flavor, heuristic.as_dyn(), &config);
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
    print_reports(program, &result, opts);
    ExitCode::SUCCESS
}

/// The `taint` and `races` subcommands: supervise the points-to analysis
/// (the `--ladder` spec, or the canonical ladder for `--analysis` and
/// `--introspective`), then print the client's document on the completed
/// rung. An exhausted ladder skips the client with a note (the 0/3/4 exit
/// contract is the supervisor's).
fn run_client(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: Option<&TaintSpec>,
    kind: &str,
    solver: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let tele = solver.telemetry.clone();
    let ladder = opts
        .ladder
        .clone()
        .unwrap_or_else(|| match opts.introspective {
            Some(heuristic) => LadderSpec::introspective(opts.flavor, heuristic),
            None => LadderSpec::default_for(opts.flavor),
        });
    let run = supervise_ladder(program, hierarchy, ladder, solver);
    // Keep stdout a single document either way; the ladder table is still
    // useful context, so it moves to stderr.
    eprint!("{}", render_supervised(&run));
    match render_doc(program, spec, kind, opts.format, None, &run, &tele) {
        Ok(doc) => {
            print_stdout(&doc);
            ExitCode::from(run.exit_code())
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `ladder` under the supervisor, each rung with the solver's
/// budget (`--budget`/`--max-bytes`/`--timeout`).
fn supervise_ladder(
    program: &Program,
    hierarchy: &ClassHierarchy,
    ladder: LadderSpec,
    solver: SolverConfig,
) -> SupervisedRun {
    let cfg = SupervisorConfig {
        ladder,
        budget: solver.budget,
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
    solver: SolverConfig,
    opts: &Options,
) -> ExitCode {
    let run = supervise_ladder(program, hierarchy, ladder, solver);
    eprint!("{}", render_supervised(&run));
    if let Some(result) = run.best_result() {
        let pm = PrecisionMetrics::compute(program, hierarchy, result);
        eprintln!(
            "precision ({}): {} polymorphic virtual call sites, {} reachable methods, \
             {} casts may fail",
            result.analysis, pm.polymorphic_call_sites, pm.reachable_methods, pm.casts_may_fail
        );
        print_reports(program, result, opts);
    }
    ExitCode::from(run.exit_code())
}

/// The `--stats` / `--pts` / `--dump` reports over one result.
fn print_reports(program: &Program, result: &rudoop::PointsToResult, opts: &Options) {
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
