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

    use rudoop_core::TelemetryHandle;
    use rudoop_ir::{parse_program, Program, TaintSpec};
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
    /// error naming `--spec`, the `rudoop` flag; [`load_program_for`]
    /// names another.
    pub fn load_program(
        input: &str,
        builtin_taint: bool,
        races: bool,
    ) -> Result<(Program, Option<TaintSpec>), String> {
        load_program_for("--spec", input, builtin_taint, races)
    }

    /// [`load_program`] for a binary whose taint-spec flag is
    /// `taint_flag` (`rudoopd` and `rudoop-lint` take `--taint-spec`).
    pub fn load_program_for(
        taint_flag: &str,
        input: &str,
        builtin_taint: bool,
        races: bool,
    ) -> Result<(Program, Option<TaintSpec>), String> {
        if let Some(name) = input.strip_prefix('@') {
            let mut spec = dacapo::by_name(name)
                .ok_or_else(|| format!("unknown benchmark {name:?} (try @pmd, @hsqldb, …)"))?;
            if builtin_taint {
                spec.taint_flows = spec.taint_flows.max(1);
            }
            if races {
                spec.concurrency = spec.concurrency.max(2);
            }
            let program = spec.build();
            let taint = builtin_taint.then(|| spec.taint_spec(&program));
            return Ok((program, taint));
        }
        if builtin_taint {
            return Err(format!("{taint_flag} builtin requires a @benchmark input"));
        }
        let source = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
        let program = parse_program(&source).map_err(|e| format!("{input}: {e}"))?;
        Ok((program, None))
    }
}
