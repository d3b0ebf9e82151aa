//! # rudoop
//!
//! A from-scratch Rust reproduction of *"Introspective Analysis:
//! Context-Sensitivity, Across the Board"* (Smaragdakis, Kastrinis,
//! Balatsouras; PLDI 2014): a Doop-style context-sensitive points-to
//! analysis framework whose headline feature is **introspective
//! context-sensitivity** — run a cheap context-insensitive pass, measure
//! where context would explode, and re-run with context-sensitivity
//! everywhere *except* those program elements.
//!
//! This crate is the facade: it re-exports the workspace members.
//!
//! - [`ir`] — the simplified Jimple-like intermediate language, builder,
//!   parser and printer (`rudoop-ir`),
//! - [`analysis`] — context policies, the solver, introspection metrics,
//!   heuristics, the two-pass driver and precision clients (`rudoop-core`),
//! - [`datalog`] — the semi-naive Datalog engine and the executable model
//!   of the paper's Figures 2–3 (`rudoop-datalog`),
//! - [`workloads`] — deterministic DaCapo-shaped benchmark generators
//!   (`rudoop-workloads`),
//! - [`lints`] — the diagnostics framework and lint suite over the IL,
//!   backed by points-to facts (`rudoop-analyses`), driven by the
//!   `rudoop-lint` binary.
//!
//! # Examples
//!
//! The paper's pitch, end to end: a benchmark where full `2objH` is orders
//! of magnitude costlier than the insensitive analysis, rescued by
//! introspection:
//!
//! ```no_run
//! use rudoop::analysis::driver::{analyze_flavor, analyze_introspective, Flavor};
//! use rudoop::analysis::heuristics::HeuristicA;
//! use rudoop::analysis::solver::SolverConfig;
//! use rudoop::ir::ClassHierarchy;
//! use rudoop::workloads::dacapo;
//!
//! let program = dacapo::hsqldb().build();
//! let hierarchy = ClassHierarchy::new(&program);
//! let config = SolverConfig::default();
//! let full = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
//! let intro = analyze_introspective(
//!     &program, &hierarchy, Flavor::OBJ2H, &HeuristicA::default(), &config,
//! );
//! assert!(intro.result.stats.derivations < full.stats.derivations / 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rudoop_analyses as lints;
pub use rudoop_core as analysis;
pub use rudoop_datalog as datalog;
pub use rudoop_ir as ir;
pub use rudoop_workloads as workloads;

pub use rudoop_analyses::{Diagnostic, LintContext, LintRegistry, Severity};

pub use rudoop_core::{
    analyze, analyze_flavor, analyze_introspective, analyze_taint, supervised_taint,
    validate_chrome_trace, Flavor, HeuristicA, HeuristicB, IntrospectionMetrics, Outcome,
    PointsToResult, PrecisionMetrics, SolverConfig, SupervisedTaint, TaintResult, Telemetry,
    TelemetryHandle, TraceCheck,
};
pub use rudoop_ir::{
    parse_program, print_program, ClassHierarchy, Program, ProgramBuilder, TaintSpec,
};

/// Shared plumbing for the `rudoop` / `rudoopd` / `rudoop-lint` binaries.
pub mod cli {
    use std::io::{ErrorKind, Write as _};
    use std::time::Duration;

    use rudoop_core::TelemetryHandle;
    use rudoop_ir::{parse_program, validate, Program, TaintSpec};
    use rudoop_workloads::dacapo;

    /// Writes `doc` to stdout: every stdout document of the binaries goes
    /// through here. A reader that went away (`rudoop … | head`) ends the
    /// output quietly — nothing is reported and the run keeps its exit
    /// code. Any other write error is reported on stderr.
    pub fn print_stdout(doc: &str) {
        let mut out = std::io::stdout().lock();
        match out.write_all(doc.as_bytes()).and_then(|()| out.flush()) {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => eprintln!("error: stdout: {e}"),
            _ => {}
        }
    }

    /// Writes a run's telemetry sinks: the Chrome trace to `trace`, the
    /// profile to `profile`, and the summary table to stderr when
    /// `summary` is set. Does nothing when telemetry is off.
    ///
    /// # Errors
    ///
    /// `path: reason` for the first sink that cannot be written.
    pub fn flush_telemetry(
        tele: &TelemetryHandle,
        trace: Option<&str>,
        profile: Option<&str>,
        summary: bool,
    ) -> Result<(), String> {
        let Some(t) = tele.as_deref() else {
            return Ok(());
        };
        if let Some(path) = trace {
            std::fs::write(path, t.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = profile {
            std::fs::write(path, t.profile_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        if summary {
            eprint!("{}", t.summary());
        }
        Ok(())
    }

    /// Loads a program from a `.rdp` path or an `@benchmark` name.
    ///
    /// For benchmarks, `builtin_taint` switches the workload's taint
    /// battery on (and returns its canonical TaintKit spec) and `races`
    /// switches the concurrency battery on — the default recipes are
    /// sequential and taint-free. A builtin spec on a file input is an
    /// error naming `--spec`.
    pub fn load_program(
        input: &str,
        builtin_taint: bool,
        races: bool,
    ) -> Result<(Program, Option<TaintSpec>), String> {
        load_input(
            input,
            "--spec",
            builtin_taint.then_some("builtin"),
            races,
            false,
        )
    }

    /// The input loader of all three binaries: loads `input` as
    /// [`load_program`] does, validates the program when `check` is set,
    /// and resolves `spec`, the value of the binary's `spec_flag` — either
    /// `builtin` (the benchmark's canonical spec) or a spec file parsed
    /// against the program.
    ///
    /// # Errors
    ///
    /// One message, in this order: the input cannot be loaded, the program
    /// is invalid (`invalid program:` and one indented line per violation),
    /// or the spec cannot be read or parsed.
    pub fn load_input(
        input: &str,
        spec_flag: &str,
        spec: Option<&str>,
        races: bool,
        check: bool,
    ) -> Result<(Program, Option<TaintSpec>), String> {
        let builtin_taint = spec == Some("builtin");
        let (program, builtin_spec) = if let Some(name) = input.strip_prefix('@') {
            let mut bench = dacapo::by_name(name)
                .ok_or_else(|| format!("unknown benchmark {name:?} (try @pmd, @hsqldb, …)"))?;
            if builtin_taint {
                bench.taint_flows = bench.taint_flows.max(1);
            }
            if races {
                bench.concurrency = bench.concurrency.max(2);
            }
            let program = bench.build();
            let taint = builtin_taint.then(|| bench.taint_spec(&program));
            (program, taint)
        } else {
            if builtin_taint {
                return Err(format!("{spec_flag} builtin requires a @benchmark input"));
            }
            let source = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
            let program = parse_program(&source).map_err(|e| format!("{input}: {e}"))?;
            (program, None)
        };
        if check {
            if let Err(errs) = validate(&program) {
                let lines: String = errs.iter().map(|e| format!("\n  {e}")).collect();
                return Err(format!("invalid program:{lines}"));
            }
        }
        let taint = match spec {
            None | Some("builtin") => builtin_spec,
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Some(TaintSpec::parse(&text, &program).map_err(|e| format!("{path}: {e}"))?)
            }
        };
        Ok((program, taint))
    }

    /// Parses a `--timeout` value: positive seconds that fit a
    /// [`Duration`]. `None` (a usage error) for anything else — `0`,
    /// negatives, `nan`, `inf`, or a value too large to represent.
    pub fn parse_timeout(secs: &str) -> Option<Duration> {
        let secs: f64 = secs.parse().ok()?;
        Duration::try_from_secs_f64(secs)
            .ok()
            .filter(|_| secs > 0.0)
    }
}
