//! `rudoopd` — the resident analysis daemon.
//!
//! ```text
//! rudoopd <program.rdp | @benchmark> [options]
//!
//! options:
//!   --listen HOST:PORT   bind address (default 127.0.0.1:0 — port 0
//!                        picks a free port; read it from --port-file
//!                        or the startup line on stderr)
//!   --port-file PATH     write the bound address to PATH once listening
//!   --workers N          concurrent analysis slots (default 2)
//!   --queue N            waiting slots past the workers (default 4);
//!                        arrivals past workers+queue are shed with a
//!                        typed busy response and a retry_after_ms hint
//!   --analysis NAME      flavor whose canonical ladder serves queries
//!                        without an explicit ladder (default 2objH)
//!   --ladder SPEC        default degradation ladder override
//!   --filter-casts       enable assign-cast filtering
//!   --taint-spec F       taint spec file, or `builtin` for @benchmarks
//!   --races              switch a @benchmark's concurrency battery on
//!   --inject SPEC        arm a deterministic fault (repeatable):
//!                        drop-after-bytes=N[@req=K] | stall-ms=T@req=K |
//!                        garbage-frame@req=K | cancel-mid-rung@req=K
//!   --trace PATH         write a Chrome trace of the service spans
//!                        (accept/queue/rung/respond lanes) at shutdown
//!   --telemetry          print the telemetry summary at shutdown
//!
//! The daemon loads and interns the program once, warms the insensitive
//! first pass, and serves queries over a length-prefixed JSON protocol
//! on TCP localhost. The first query whose ladder contains a `summaries`
//! rung additionally computes and caches the bottom-up summary table —
//! the warm *context-sensitive* artifact — so repeated summaries queries
//! skip the pre-analysis (observable as `service.summary_cache_hits`). Every request runs under the supervisor's
//! degradation ladder with its own budget and a cancel token wired to
//! client disconnect; responses carry the 0/3/4 verdict as a
//! `complete|degraded|exhausted` status and a document byte-identical
//! to the batch CLI's stdout for the same query. Stop it with
//! `rudoop query --addr ... --shutdown`.
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use rudoop::analysis::driver::Flavor;
use rudoop::analysis::service::faults::FaultPlan;
use rudoop::analysis::service::protocol::DocFormat;
use rudoop::analysis::service::server::Server;
use rudoop::analysis::service::{QueryHandler, ServiceConfig, ServiceState};
use rudoop::analysis::supervisor::LadderSpec;
use rudoop::analysis::{PointsToResult, Telemetry, TelemetryHandle};
use rudoop::ir::{validate, ClassHierarchy, Program, TaintSpec};
use rudoop::{LintContext, LintRegistry};

struct Options {
    input: String,
    listen: String,
    port_file: Option<String>,
    workers: usize,
    queue: usize,
    flavor: Flavor,
    ladder: Option<LadderSpec>,
    filter_casts: bool,
    taint_spec: Option<String>,
    races: bool,
    inject: Vec<String>,
    trace: Option<String>,
    telemetry: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rudoopd <program.rdp | @benchmark> [--listen HOST:PORT] [--port-file PATH] \
         [--workers N] [--queue N] [--analysis NAME] [--ladder SPEC] \
         [--filter-casts] [--taint-spec FILE|builtin] [--races] [--inject SPEC]... \
         [--trace PATH] [--telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        listen: "127.0.0.1:0".to_owned(),
        port_file: None,
        workers: 2,
        queue: 4,
        flavor: Flavor::OBJ2H,
        ladder: None,
        filter_casts: false,
        taint_spec: None,
        races: false,
        inject: Vec::new(),
        trace: None,
        telemetry: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => opts.listen = args.next().unwrap_or_else(|| usage()),
            "--port-file" => opts.port_file = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => {
                opts.workers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--queue" => {
                opts.queue = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--analysis" => {
                let name = args.next().unwrap_or_else(|| usage());
                opts.flavor = Flavor::parse(&name).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage()
                });
            }
            "--ladder" => {
                let spec = args.next().unwrap_or_else(|| usage());
                opts.ladder = Some(LadderSpec::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad ladder: {e}");
                    usage()
                }));
            }
            "--filter-casts" => opts.filter_casts = true,
            "--taint-spec" => opts.taint_spec = Some(args.next().unwrap_or_else(|| usage())),
            "--races" => opts.races = true,
            "--inject" => opts.inject.push(args.next().unwrap_or_else(|| usage())),
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--telemetry" => opts.telemetry = true,
            "--help" | "-h" => usage(),
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
    opts
}

/// The `lints` query: the full default lint suite over the warm program
/// and the request's completed points-to result. Registered here — the
/// lint crate sits above the analysis core, so the core's service module
/// cannot depend on it.
struct LintsHandler;

impl QueryHandler for LintsHandler {
    fn handle(
        &self,
        program: &Program,
        hierarchy: &ClassHierarchy,
        result: &PointsToResult,
        format: DocFormat,
    ) -> Result<String, String> {
        let cx = LintContext {
            program,
            hierarchy,
            points_to: Some(result),
            taint: None,
            races: None,
        };
        let diags = LintRegistry::with_defaults().run(&cx);
        Ok(match format {
            DocFormat::Json => rudoop::lints::render_json(program, &diags),
            DocFormat::Text => rudoop::lints::render(program, &diags),
        })
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let builtin_taint = opts.taint_spec.as_deref() == Some("builtin");
    let (program, builtin_spec) =
        match rudoop::cli::load_program_for("--taint-spec", &opts.input, builtin_taint, opts.races)
        {
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
    let taint_spec: Option<TaintSpec> = match &opts.taint_spec {
        Some(_) if builtin_taint => builtin_spec,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match TaintSpec::parse(&text, &program) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let faults = match FaultPlan::parse(&opts.inject) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: bad --inject: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !faults.is_empty() {
        eprintln!(
            "rudoopd: FAULT INJECTION ARMED ({} spec(s))",
            opts.inject.len()
        );
    }

    let tele: TelemetryHandle =
        (opts.trace.is_some() || opts.telemetry).then(|| Arc::new(Telemetry::new()));
    let config = ServiceConfig {
        workers: opts.workers,
        queue: opts.queue,
        flavor: opts.flavor,
        ladder: opts.ladder.clone(),
        filter_casts: opts.filter_casts,
        taint_spec,
        faults,
        telemetry: tele.clone(),
    };
    let mut state = ServiceState::new(program, config);
    state.register_handler("lints", Box::new(LintsHandler));
    let warm = state.warm_first_pass().is_some();
    let server = match Server::bind(Arc::new(state), &opts.listen) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "rudoopd: listening on {addr} ({}, warm first pass: {}; \
         summary table cached lazily on the first `summaries` query)",
        opts.input,
        if warm { "ready" } else { "unavailable" },
    );

    server.run();

    if let Err(e) = rudoop::cli::flush_telemetry(&tele, opts.trace.as_deref(), None, opts.telemetry)
    {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("rudoopd: shut down");
    ExitCode::SUCCESS
}
