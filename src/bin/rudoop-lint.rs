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
//!                        (watchdog-cancelled). If it fires, tier-2 lints
//!                        are skipped and the exit code is 2.
//!   --taint-spec <file>  taint sources/sinks/sanitizers (see
//!                        `rudoop_ir::TaintSpec` for the grammar); enables
//!                        the T001–T004 taint lints. For @benchmarks the
//!                        special value `builtin` uses the workload's
//!                        canonical TaintKit spec.
//!   --races              run the data-race client on the points-to result
//!                        and enable the R001–R004 race lints (requires
//!                        the backing analysis, i.e. not --no-points-to)
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rudoop::analysis::driver::{analyze_flavor, Flavor};
use rudoop::analysis::solver::{Budget, CancelToken, SolverConfig};
use rudoop::analysis::taint::analyze_taint_traced;
use rudoop::analysis::telemetry::span_opt;
use rudoop::analysis::{Telemetry, TelemetryHandle};
use rudoop::ir::{parse_program, ClassHierarchy, Program, TaintSpec};
use rudoop::lints::diagnostics::{has_errors, render, render_json, validate_diagnostics};
use rudoop::lints::{Level, LintContext, LintRegistry};
use rudoop::workloads::dacapo;

struct Options {
    input: String,
    flavor: Flavor,
    points_to: bool,
    timeout: Option<Duration>,
    levels: Vec<(String, Level)>,
    list: bool,
    taint_spec: Option<String>,
    races: bool,
    json: bool,
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
        json: false,
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
                let secs: f64 = secs.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs <= 0.0 {
                    usage();
                }
                opts.timeout = Some(Duration::from_secs_f64(secs));
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
            "--format" => match args.next().unwrap_or_else(|| usage()).as_str() {
                "text" => opts.json = false,
                "json" => opts.json = true,
                other => {
                    eprintln!("unknown format {other:?} (expected text or json)");
                    usage();
                }
            },
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

/// Loads the program plus, for `--taint-spec builtin` on a `@benchmark`,
/// the workload's canonical TaintKit spec (switching the taint battery on
/// in the build, since the default recipes omit it).
fn load_program(input: &str, builtin_taint: bool) -> Result<(Program, Option<TaintSpec>), String> {
    if let Some(name) = input.strip_prefix('@') {
        let mut spec = dacapo::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name:?} (try @pmd, @hsqldb, …)"))?;
        if builtin_taint {
            spec.taint_flows = spec.taint_flows.max(1);
        }
        let program = spec.build();
        let taint = builtin_taint.then(|| spec.taint_spec(&program));
        return Ok((program, taint));
    }
    if builtin_taint {
        return Err("--taint-spec builtin requires a @benchmark input".to_owned());
    }
    let source = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let program = parse_program(&source).map_err(|e| format!("{input}: {e}"))?;
    Ok((program, None))
}

fn main() -> ExitCode {
    let opts = parse_args();
    let tele: TelemetryHandle = (opts.trace.is_some() || opts.profile.is_some() || opts.telemetry)
        .then(|| Arc::new(Telemetry::new()));
    let code = run(&opts, &tele);
    if let Err(e) = flush_telemetry(&tele, &opts) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    code
}

/// Writes the `--trace` / `--profile` sinks and prints the `--telemetry`
/// summary table (on stderr, per the stream contract).
fn flush_telemetry(tele: &TelemetryHandle, opts: &Options) -> Result<(), String> {
    let Some(t) = tele.as_deref() else {
        return Ok(());
    };
    if let Some(path) = &opts.trace {
        std::fs::write(path, t.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.profile {
        std::fs::write(path, t.profile_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.telemetry {
        eprint!("{}", t.summary());
    }
    Ok(())
}

fn run(opts: &Options, tele: &TelemetryHandle) -> ExitCode {
    let mut registry = LintRegistry::with_defaults();
    if opts.list {
        for (code, name, description, _) in registry.iter() {
            println!("{code}  {name:<22} {description}");
        }
        return ExitCode::SUCCESS;
    }
    for (code, level) in &opts.levels {
        if !registry.set_level(code, *level) {
            eprintln!("unknown lint code {code:?} (see --list)");
            return ExitCode::from(2);
        }
    }

    let builtin_taint = opts.taint_spec.as_deref() == Some("builtin");
    let parse_span = span_opt(tele, "parse");
    if let Some(s) = &parse_span {
        s.arg("input", &opts.input);
    }
    let (program, builtin_spec) = match load_program(&opts.input, builtin_taint) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    drop(parse_span);
    let taint_spec = match &opts.taint_spec {
        None => None,
        Some(_) if builtin_taint => builtin_spec,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match TaintSpec::parse(&text, &program) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    // Well-formedness first: an ill-formed program would make lint and
    // analysis results meaningless, so report every violation and stop.
    let mut diags = validate_diagnostics(&program);
    let hierarchy = ClassHierarchy::new(&program);
    let mut degraded = false;
    if diags.is_empty() {
        let result = opts.points_to.then(|| {
            let cancel = CancelToken::new();
            let config = SolverConfig {
                budget: opts
                    .timeout
                    .map(Budget::duration)
                    .unwrap_or_else(Budget::unlimited),
                cancel: Some(cancel.clone()),
                // The taint and race clients walk per-context points-to
                // facts.
                record_contexts: taint_spec.is_some() || opts.races,
                telemetry: tele.clone(),
                ..SolverConfig::default()
            };
            // Watchdog: enforce the deadline even if a worklist step stalls
            // (the solver's own wall-clock check runs between steps).
            let watchdog = opts.timeout.map(|deadline| {
                let disarm = Arc::new(AtomicBool::new(false));
                let disarm2 = Arc::clone(&disarm);
                let handle = std::thread::spawn(move || {
                    let start = std::time::Instant::now();
                    while !disarm2.load(Ordering::Relaxed) {
                        let remaining = deadline.saturating_sub(start.elapsed());
                        if remaining.is_zero() {
                            cancel.cancel();
                            return;
                        }
                        std::thread::sleep(remaining.min(Duration::from_millis(5)));
                    }
                });
                (disarm, handle)
            });
            let result = analyze_flavor(&program, &hierarchy, opts.flavor, &config);
            if let Some((disarm, handle)) = watchdog {
                disarm.store(true, Ordering::Relaxed);
                let _ = handle.join();
            }
            result
        });
        // A partial analysis would make tier-2 lints unsound to trust
        // (missing points-to facts look like clean code): skip them.
        degraded = result.as_ref().is_some_and(|r| r.outcome.is_partial());
        let complete = result.as_ref().filter(|r| r.outcome.is_complete());
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

    if opts.json {
        print!("{}", render_json(&program, &diags));
    } else {
        print!("{}", render(&program, &diags));
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
