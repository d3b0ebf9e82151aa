//! `rudoop-lint` — diagnostics and lints over IL programs, backed by
//! points-to facts.
//!
//! ```text
//! rudoop-lint <program.rud | @benchmark> [options]
//!
//!   <program.rud>        a program in the textual IL format
//!   @<name>              a built-in DaCapo-shaped benchmark (e.g. @pmd)
//!
//! options:
//!   --analysis <name>    points-to policy backing the tier-2 lints:
//!                        insens | cutshortcut | summaries | 1call |
//!                        2callH | 1objH | 2objH | 2typeH | S2objH
//!                        (default: insens)
//!   --no-points-to       skip the analysis; run only tier-1 lints
//!   --timeout <secs>     wall-clock deadline for the backing analysis
//!                        (run under the supervisor on a one-rung ladder,
//!                        whose watchdog enforces it). If it fires, tier-2
//!                        lints are skipped and the exit code is 2.
//!   --taint-spec <file>  taint sources/sinks/sanitizers (see
//!                        `rudoop_ir::TaintSpec` for the grammar); enables
//!                        the T001–T004 taint lints. For @benchmarks the
//!                        special value `builtin` uses the workload's
//!                        canonical TaintKit spec.
//!   --races              run the data-race client on the points-to result
//!                        and enable the R001–R004 race lints (requires
//!                        the backing analysis, i.e. not --no-points-to).
//!                        For @benchmarks it switches the workload's
//!                        concurrency battery on, as `rudoop races` does.
//!   --format <fmt>       text (default) or json — a stable array of
//!                        {code, level, span, message, location, notes}
//!   --allow <CODE>       suppress a lint (repeatable)
//!   --warn <CODE>        report a lint at its default severity (default)
//!   --deny <CODE>        escalate a lint to an error (repeatable)
//!   --list               list all lints with codes and exit
//!   --trace <path>       write a Chrome trace-event file of the run
//!   --profile <path>     write the structured JSON profile
//!   --telemetry          print the span/counter summary table on stderr
//!
//! Stream contract: the rendered diagnostics (text or `--format json`) are
//! the only stdout payload; the trailing per-file summary line, degradation
//! notes, and telemetry summaries go to stderr.
//!
//! exit code: 0 — no errors (warnings and notes allowed);
//!            1 — validity errors or denied lint findings;
//!            2 — usage, I/O or parse failure, or the backing analysis
//!                degraded (timed out / exhausted) before tier-2 lints
//!                could run.
//! ```
//!
//! Well-formedness violations (`E` codes) and lint findings
//! (`L`/`I`/`T`/`R` codes) are rendered uniformly, sorted by source
//! position.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rudoop::analysis::driver::Flavor;
use rudoop::analysis::service::protocol::DocFormat;
use rudoop::analysis::solver::{Budget, SolverConfig};
use rudoop::analysis::supervisor::{supervise, LadderSpec, RungSpec, SupervisorConfig};
use rudoop::analysis::taint::analyze_taint_traced;
use rudoop::analysis::telemetry::span_opt;
use rudoop::analysis::{Telemetry, TelemetryHandle};
use rudoop::cli::{flush_telemetry, load_input, parse_timeout, print_stdout};
use rudoop::ir::ClassHierarchy;
use rudoop::lints::diagnostics::{has_errors, render, render_json, validate_diagnostics};
use rudoop::lints::{Level, LintContext, LintRegistry};

struct Options {
    input: String,
    flavor: Flavor,
    points_to: bool,
    timeout: Option<Duration>,
    levels: Vec<(String, Level)>,
    list: bool,
    taint_spec: Option<String>,
    races: bool,
    format: DocFormat,
    trace: Option<String>,
    profile: Option<String>,
    telemetry: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rudoop-lint <program.rud | @benchmark> [--analysis NAME] \
         [--no-points-to] [--timeout SECS] \
         [--taint-spec FILE|builtin] [--races] \
         [--format text|json] [--allow CODE] [--warn CODE] \
         [--deny CODE] [--list] [--trace PATH] [--profile PATH] [--telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        flavor: Flavor::Insensitive,
        points_to: true,
        timeout: None,
        levels: Vec::new(),
        list: false,
        taint_spec: None,
        races: false,
        format: DocFormat::Text,
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
            "--no-points-to" => opts.points_to = false,
            "--timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                opts.timeout = Some(parse_timeout(&secs).unwrap_or_else(|| usage()));
            }
            "--allow" => {
                let code = args.next().unwrap_or_else(|| usage());
                opts.levels.push((code, Level::Allow));
            }
            "--warn" => {
                let code = args.next().unwrap_or_else(|| usage());
                opts.levels.push((code, Level::Warn));
            }
            "--deny" => {
                let code = args.next().unwrap_or_else(|| usage());
                opts.levels.push((code, Level::Deny));
            }
            "--taint-spec" => {
                opts.taint_spec = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--races" => opts.races = true,
            "--format" => {
                let fmt = args.next().unwrap_or_else(|| usage());
                opts.format = DocFormat::parse(&fmt).unwrap_or_else(|| {
                    eprintln!("unknown format {fmt:?} (expected text or json)");
                    usage()
                });
            }
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => opts.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--telemetry" => opts.telemetry = true,
            "--list" => opts.list = true,
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
    if opts.input.is_empty() && !opts.list {
        usage();
    }
    if opts.races && !opts.points_to {
        eprintln!("--races needs the backing analysis (drop --no-points-to)");
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let tele: TelemetryHandle = (opts.trace.is_some() || opts.profile.is_some() || opts.telemetry)
        .then(|| Arc::new(Telemetry::new()));
    let code = run(&opts, &tele);
    if let Err(e) = flush_telemetry(
        &tele,
        opts.trace.as_deref(),
        opts.profile.as_deref(),
        opts.telemetry,
    ) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    code
}

fn run(opts: &Options, tele: &TelemetryHandle) -> ExitCode {
    let mut registry = LintRegistry::with_defaults();
    if opts.list {
        let list: String = registry
            .iter()
            .map(|(code, name, description, _)| format!("{code}  {name:<22} {description}\n"))
            .collect();
        print_stdout(&list);
        return ExitCode::SUCCESS;
    }
    for (code, level) in &opts.levels {
        if !registry.set_level(code, *level) {
            eprintln!("unknown lint code {code:?} (see --list)");
            return ExitCode::from(2);
        }
    }

    let parse_span = span_opt(tele, "parse");
    if let Some(s) = &parse_span {
        s.arg("input", &opts.input);
    }
    // Validity is not checked here: it is reported below as E-diagnostics.
    let loaded = load_input(
        &opts.input,
        "--taint-spec",
        opts.taint_spec.as_deref(),
        opts.races,
        false,
    );
    drop(parse_span);
    let (program, taint_spec) = match loaded {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Well-formedness first: an ill-formed program would make lint and
    // analysis results meaningless, so report every violation and stop.
    let mut diags = validate_diagnostics(&program);
    let hierarchy = ClassHierarchy::new(&program);
    let mut degraded = false;
    if diags.is_empty() {
        // The backing analysis runs on a one-rung ladder, so `--timeout`
        // is the supervisor's per-rung deadline: it spans a flavor's
        // pre-pass as well as the solve. Like the solver's own deadline it
        // is checked between worklist steps.
        let run = opts.points_to.then(|| {
            let cfg = SupervisorConfig {
                ladder: LadderSpec {
                    rungs: vec![RungSpec::direct(opts.flavor)],
                },
                budget: opts
                    .timeout
                    .map(Budget::duration)
                    .unwrap_or_else(Budget::unlimited),
                solver: SolverConfig {
                    // The taint and race clients walk per-context
                    // points-to facts.
                    record_contexts: taint_spec.is_some() || opts.races,
                    telemetry: tele.clone(),
                    ..SolverConfig::default()
                },
                ..SupervisorConfig::default()
            };
            supervise(&program, &hierarchy, &cfg)
        });
        // A partial analysis would make tier-2 lints unsound to trust
        // (missing points-to facts look like clean code): skip them.
        degraded = run.as_ref().is_some_and(|r| r.result.is_none());
        let complete = run.as_ref().and_then(|r| r.result.as_ref());
        let taint = match (&taint_spec, complete) {
            (Some(spec), Some(r)) => match analyze_taint_traced(&program, spec, r, tele) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("error: taint analysis failed: {e}");
                    return ExitCode::from(2);
                }
            },
            _ => None,
        };
        let races = match (opts.races, complete) {
            (true, Some(r)) => {
                match rudoop::analysis::races::analyze_races_traced(&program, r, tele) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        eprintln!("error: race analysis failed: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => None,
        };
        let cx = LintContext {
            program: &program,
            hierarchy: &hierarchy,
            points_to: complete,
            taint: taint.as_ref(),
            races: races.as_ref(),
        };
        diags = registry.run_traced(&cx, tele);
    }

    if opts.format == DocFormat::Json {
        print_stdout(&render_json(&program, &diags));
    } else {
        print_stdout(&render(&program, &diags));
        let errors = diags
            .iter()
            .filter(|d| d.severity == rudoop::Severity::Error)
            .count();
        let warnings = diags
            .iter()
            .filter(|d| d.severity == rudoop::Severity::Warning)
            .count();
        // Summary on stderr: stdout carries only the rendered diagnostics.
        eprintln!(
            "{}: {} error(s), {} warning(s), {} note(s)",
            opts.input,
            errors,
            warnings,
            diags.len() - errors - warnings
        );
    }

    if degraded {
        eprintln!(
            "note: analysis degraded ({}), tier-2 lints skipped — raise --timeout or \
             use a cheaper --analysis",
            opts.flavor.spec_name()
        );
        return ExitCode::from(2);
    }
    if has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
