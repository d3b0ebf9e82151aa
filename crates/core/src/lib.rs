//! # rudoop-core
//!
//! Context-sensitive points-to analysis with **introspective
//! context-sensitivity** — a from-scratch Rust reproduction of
//! *"Introspective Analysis: Context-Sensitivity, Across the Board"*
//! (Smaragdakis, Kastrinis, Balatsouras; PLDI 2014).
//!
//! The crate implements:
//!
//! - the paper's analysis model (§2): a policy-parametric,
//!   flow-insensitive, field-sensitive Andersen-style analysis with
//!   on-the-fly call-graph construction ([`solver`]),
//! - the three classic context flavors it evaluates — call-site-,
//!   object- and type-sensitivity, each with a context-sensitive heap —
//!   plus the insensitive baseline and the per-element
//!   [`policy::Introspective`] combinator ([`policy`], [`context`]),
//! - the six introspection metrics of §3 ([`introspection`]),
//! - Heuristics A and B with the paper's constants ([`heuristics`]),
//! - the two-pass introspective driver ([`driver`]),
//! - the precision clients of the evaluation: devirtualization, reachable
//!   methods, cast-may-fail ([`clients`]).
//!
//! # Examples
//!
//! Run the paper's headline configuration — introspective `2objH` under
//! Heuristic A — on a program:
//!
//! ```
//! use rudoop_core::driver::{analyze_introspective, Flavor};
//! use rudoop_core::heuristics::HeuristicA;
//! use rudoop_core::solver::SolverConfig;
//! use rudoop_ir::{parse_program, ClassHierarchy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "class Object\n\
//!      method Object.id(x) static {\n  return x\n}\n\
//!      method Object.main() static {\n  a = new Object\n  r = static Object.id(a)\n}\n\
//!      entry Object.main\n",
//! )?;
//! let hierarchy = ClassHierarchy::new(&program);
//! let run = analyze_introspective(
//!     &program,
//!     &hierarchy,
//!     Flavor::OBJ2H,
//!     &HeuristicA::default(),
//!     &SolverConfig::default(),
//! );
//! assert!(run.result.outcome.is_complete());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod clients;
pub mod context;
pub mod cs_facts;
pub mod cutshortcut;
pub mod driver;
pub mod hash;
pub mod heuristics;
pub mod introspection;
pub mod json;
pub mod policy;
pub mod races;
mod rules;
pub mod service;
pub mod solver;
pub mod stats;
pub mod summaries;
pub mod supervisor;
pub mod taint;
pub mod telemetry;

pub use clients::PrecisionMetrics;
pub use context::{CObj, ContextElem, CtxId, CtxTables, HCtxId};
pub use cs_facts::{ClientError, Supervised};
pub use cutshortcut::{CutStats, CutSummary, ParamCut};
pub use driver::{
    analyze_flavor, analyze_introspective, Flavor, FlavorParseError, IntrospectiveRun,
};
pub use heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
pub use introspection::IntrospectionMetrics;
pub use policy::{
    CallSiteSensitive, ContextPolicy, CutShortcut, HybridObjectSensitive, Insensitive,
    Introspective, ObjectSensitive, RefinementSet, Summaries, TypeSensitive,
};
pub use races::{
    analyze_races, supervised_races, Race, RaceAccess, RaceKey, RaceResult, SupervisedRaces,
};
pub use solver::{
    analyze, Budget, CancelToken, ExhaustionCause, Outcome, PointsToResult, SolverConfig,
    SolverError, SolverStats,
};
pub use stats::{render_supervised, ResultStats, SizeHistogram};
pub use summaries::{MethodSummary, SummaryAtom, SummaryStats, SummaryTable};
pub use supervisor::{
    supervise, HeuristicChoice, LadderSpec, RungKind, RungReport, RungSpec, SalvagedFacts,
    SupervisedRun, SupervisionVerdict, SupervisorConfig,
};
pub use taint::{analyze_taint, supervised_taint, Leak, SupervisedTaint, TaintResult};
pub use telemetry::{validate_chrome_trace, Telemetry, TelemetryHandle, TraceCheck};
