//! The two-pass introspective driver (§3 of the paper).
//!
//! Pass 1 runs the context-insensitive analysis (`SITETOREFINE` and
//! `OBJECTTOREFINE` empty). The driver then computes the introspection
//! metrics, applies a heuristic to select refinement sets, and runs pass 2
//! — the *same* analysis code — with an [`Introspective`] policy that
//! refines the selected elements with the precise context abstraction and
//! leaves the rest context-insensitive.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rudoop_ir::{ClassHierarchy, Program};

use crate::cutshortcut::CutSummary;
use crate::heuristics::{RefinementHeuristic, RefinementStats};
use crate::introspection::IntrospectionMetrics;
use crate::policy::{
    CallSiteSensitive, ContextPolicy, CutShortcut, HybridObjectSensitive, Insensitive,
    Introspective, ObjectSensitive, RefinementSet, Summaries, TypeSensitive,
};
use crate::solver::{analyze, PointsToResult, SolverConfig};
use crate::summaries::SummaryTable;

/// A named context-sensitivity flavor, as in the paper's evaluation
/// (e.g. `Flavor::Object { k: 2, heap_k: 1 }` is `2objH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Context-insensitive.
    Insensitive,
    /// k-call-site-sensitive with heap depth.
    CallSite {
        /// Context depth.
        k: usize,
        /// Heap-context depth.
        heap_k: usize,
    },
    /// k-object-sensitive with heap depth.
    Object {
        /// Context depth.
        k: usize,
        /// Heap-context depth.
        heap_k: usize,
    },
    /// k-type-sensitive with heap depth.
    Type {
        /// Context depth.
        k: usize,
        /// Heap-context depth.
        heap_k: usize,
    },
    /// k-hybrid-object-sensitive with heap depth (object-sensitivity for
    /// virtual calls, call-site-sensitivity for static calls).
    Hybrid {
        /// Context depth.
        k: usize,
        /// Heap-context depth.
        heap_k: usize,
    },
    /// The cut-shortcut engine: context-free, but with the flow-graph
    /// cuts and per-call-site shortcut edges of the
    /// [`crate::cutshortcut`] pre-analysis applied inside the solver.
    CutShortcut,
    /// The summary-based compositional engine: context-free, but every
    /// call to a method the bottom-up [`crate::summaries`] pre-analysis
    /// distilled gets its `ret → result` edge replaced by per-site
    /// instantiations of the method's summary atoms.
    Summaries,
}

/// The error of [`Flavor::parse`]: an unrecognized flavor name, with the
/// full menu of valid spellings in its message (shared by the `rudoop`
/// and `rudoop-lint` CLIs and by ladder-spec parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlavorParseError {
    name: String,
}

impl FlavorParseError {
    /// The rejected input.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for FlavorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown flavor {:?}: valid flavors are insens, cutshortcut, \
             summaries, <k>call[H], <k>obj[H], <k>type[H], and S<k>obj[H] \
             (e.g. 2objH, 2typeH, 2callH, S2objH); a heap depth n of 2 or more \
             is spelled +<n>H (e.g. 2obj+2H)",
            self.name
        )
    }
}

impl std::error::Error for FlavorParseError {}

impl Flavor {
    /// The paper's `2objH` baseline.
    pub const OBJ2H: Flavor = Flavor::Object { k: 2, heap_k: 1 };
    /// The paper's `2typeH` baseline.
    pub const TYPE2H: Flavor = Flavor::Type { k: 2, heap_k: 1 };
    /// The paper's `2callH` baseline.
    pub const CALL2H: Flavor = Flavor::CallSite { k: 2, heap_k: 1 };
    /// The related-work hybrid `S2objH` configuration.
    pub const HYBRID2H: Flavor = Flavor::Hybrid { k: 2, heap_k: 1 };

    /// Instantiates the policy for `program`.
    pub fn policy(self, program: &Program) -> Box<dyn ContextPolicy> {
        struct Boxed;
        impl WithPolicy for Boxed {
            type Output = Box<dyn ContextPolicy>;
            fn apply<P: ContextPolicy + 'static>(self, policy: P) -> Self::Output {
                Box::new(policy)
            }
        }
        self.with_policy(program, Boxed)
    }

    /// Instantiates the policy for `program` and hands it to `f` by value:
    /// the one constructor table, statically dispatched.
    fn with_policy<W: WithPolicy>(self, program: &Program, f: W) -> W::Output {
        match self {
            Flavor::Insensitive => f.apply(Insensitive),
            Flavor::CallSite { k, heap_k } => f.apply(CallSiteSensitive::new(k, heap_k)),
            Flavor::Object { k, heap_k } => f.apply(ObjectSensitive::new(k, heap_k)),
            Flavor::Type { k, heap_k } => f.apply(TypeSensitive::new(k, heap_k, program)),
            Flavor::Hybrid { k, heap_k } => f.apply(HybridObjectSensitive::new(k, heap_k)),
            Flavor::CutShortcut => f.apply(CutShortcut),
            Flavor::Summaries => f.apply(Summaries),
        }
    }

    /// Prepares the solver configuration for this flavor. For
    /// [`Flavor::CutShortcut`] this runs the cut-shortcut pre-analysis
    /// (under its `cutshortcut-pass` telemetry span) and injects the
    /// summary into [`SolverConfig::cuts`]; for [`Flavor::Summaries`] it
    /// runs the bottom-up summary pre-analysis over `hierarchy` (under
    /// `summaries-pass`) and injects the table into
    /// [`SolverConfig::summaries`] — unless a warm table is already
    /// present (the daemon's warm-summary cache), in which case the warm
    /// table is used as is. Every other flavor clears
    /// both fields so pre-analyses never leak between rungs sharing a base
    /// config.
    pub fn prepare_config(
        self,
        program: &Program,
        hierarchy: &ClassHierarchy,
        config: &SolverConfig,
    ) -> SolverConfig {
        let mut config = config.clone();
        config.cuts = match self {
            Flavor::CutShortcut => Some(Arc::new(CutSummary::compute_traced(
                program,
                &config.telemetry,
            ))),
            _ => None,
        };
        config.summaries = match self {
            Flavor::Summaries => match config.summaries.take() {
                Some(warm) => Some(warm),
                None => Some(Arc::new(SummaryTable::compute_traced(
                    program,
                    hierarchy,
                    &config.telemetry,
                ))),
            },
            _ => None,
        };
        config
    }

    /// Parses a Doop-style flavor name: `insens`, `cutshortcut`, `2objH`,
    /// `1call`, `2typeH`, `S2objH`, … — the inverse of
    /// [`Flavor::spec_name`]. The error message enumerates the valid
    /// spellings, so every consumer (CLIs, ladder specs) reports the same
    /// actionable diagnostic.
    pub fn parse(name: &str) -> Result<Flavor, FlavorParseError> {
        Flavor::parse_inner(name).ok_or_else(|| FlavorParseError {
            name: name.to_owned(),
        })
    }

    fn parse_inner(name: &str) -> Option<Flavor> {
        if name == "insens" || name == "insensitive" {
            return Some(Flavor::Insensitive);
        }
        if name == "cutshortcut" {
            return Some(Flavor::CutShortcut);
        }
        if name == "summaries" {
            return Some(Flavor::Summaries);
        }
        let (hybrid, rest) = match name.strip_prefix('S') {
            Some(r) => (true, r),
            None => (false, name),
        };
        let digits_end = rest.find(|c: char| !c.is_ascii_digit())?;
        if digits_end == 0 {
            return None;
        }
        let k: usize = rest[..digits_end].parse().ok()?;
        if k == 0 {
            return None;
        }
        let rest = &rest[digits_end..];
        let (kind, rest) = ["call", "obj", "type"]
            .iter()
            .find_map(|p| rest.strip_prefix(p).map(|r| (*p, r)))?;
        // Heap depth 2 and more is spelled `+<n>H`.
        let heap_k = match rest {
            "" => 0,
            "H" => 1,
            _ => {
                let n = rest.strip_prefix('+')?.strip_suffix('H')?;
                let heap_k: usize = n.parse().ok()?;
                if heap_k < 2 || n != heap_k.to_string() {
                    return None;
                }
                heap_k
            }
        };
        match (hybrid, kind) {
            (true, "obj") => Some(Flavor::Hybrid { k, heap_k }),
            (false, "call") => Some(Flavor::CallSite { k, heap_k }),
            (false, "obj") => Some(Flavor::Object { k, heap_k }),
            (false, "type") => Some(Flavor::Type { k, heap_k }),
            _ => None,
        }
    }

    /// The Doop-style name (`2objH`, `insens`, `2obj+2H`, …), accepted back
    /// by [`Flavor::parse`]; every policy reports its flavor's name.
    pub fn spec_name(self) -> String {
        fn h(heap_k: usize) -> String {
            match heap_k {
                0 => String::new(),
                1 => "H".to_owned(),
                n => format!("+{n}H"),
            }
        }
        match self {
            Flavor::Insensitive => "insens".to_owned(),
            Flavor::CallSite { k, heap_k } => format!("{k}call{}", h(heap_k)),
            Flavor::Object { k, heap_k } => format!("{k}obj{}", h(heap_k)),
            Flavor::Type { k, heap_k } => format!("{k}type{}", h(heap_k)),
            Flavor::Hybrid { k, heap_k } => format!("S{k}obj{}", h(heap_k)),
            Flavor::CutShortcut => "cutshortcut".to_owned(),
            Flavor::Summaries => "summaries".to_owned(),
        }
    }
}

/// A computation generic in the policy type, handed a flavor's policy by
/// [`Flavor::with_policy`].
trait WithPolicy {
    type Output;
    fn apply<P: ContextPolicy + 'static>(self, policy: P) -> Self::Output;
}

/// Runs a single (non-introspective) analysis of `program` under `flavor`.
pub fn analyze_flavor(
    program: &Program,
    hierarchy: &ClassHierarchy,
    flavor: Flavor,
    config: &SolverConfig,
) -> PointsToResult {
    let policy = flavor.policy(program);
    let config = flavor.prepare_config(program, hierarchy, config);
    analyze(program, hierarchy, policy.as_ref(), &config)
}

/// Everything produced by a two-pass introspective run.
#[derive(Debug)]
pub struct IntrospectiveRun {
    /// The first, context-insensitive pass.
    pub first_pass: PointsToResult,
    /// The metrics computed from the first pass.
    pub metrics: IntrospectionMetrics,
    /// The selected refinement (complement form).
    pub refinement: RefinementSet,
    /// Figure-4-style statistics about the selection.
    pub refinement_stats: RefinementStats,
    /// Time spent computing metrics and selecting refinement sets (the
    /// paper's "other timing overheads").
    pub selection_time: Duration,
    /// The second, selectively-refined pass.
    pub result: PointsToResult,
}

/// Runs the full two-pass introspective analysis: insensitive pass,
/// heuristic selection, refined pass.
///
/// `flavor` is the *refined* context; the default context of unrefined
/// elements is insensitive, as in the paper's experimental setting. The
/// budget in `config` applies to each pass separately.
pub fn analyze_introspective(
    program: &Program,
    hierarchy: &ClassHierarchy,
    flavor: Flavor,
    heuristic: &dyn RefinementHeuristic,
    config: &SolverConfig,
) -> IntrospectiveRun {
    let fp_span = crate::telemetry::span_opt(&config.telemetry, "first-pass");
    let first_pass = analyze(program, hierarchy, &Insensitive, config);
    drop(fp_span);
    analyze_introspective_from(program, hierarchy, flavor, heuristic, config, first_pass)
}

/// Like [`analyze_introspective`] but reusing an existing first-pass result
/// (the paper's §4 note: the insensitive pass can be shared across
/// introspective variants).
pub fn analyze_introspective_from(
    program: &Program,
    hierarchy: &ClassHierarchy,
    flavor: Flavor,
    heuristic: &dyn RefinementHeuristic,
    config: &SolverConfig,
    first_pass: PointsToResult,
) -> IntrospectiveRun {
    let select_start = Instant::now();
    let sel_span = crate::telemetry::span_opt(&config.telemetry, "introspection");
    let metrics = IntrospectionMetrics::compute(program, &first_pass);
    let refinement = heuristic.select(program, &metrics, &first_pass);
    let refinement_stats = RefinementStats::compute(program, &first_pass, &refinement);
    if let Some(span) = &sel_span {
        span.arg("heuristic", heuristic.label());
    }
    drop(sel_span);
    if let Some(tele) = config.telemetry.as_deref() {
        // Selection statistics are pure functions of the first pass, so
        // they belong in the deterministic counter stream.
        tele.counter(
            "introspection.call_sites_not_refined",
            refinement_stats.call_sites_not_refined as u64,
        );
        tele.counter(
            "introspection.call_sites_total",
            refinement_stats.call_sites_total as u64,
        );
        tele.counter(
            "introspection.objects_not_refined",
            refinement_stats.objects_not_refined as u64,
        );
        tele.counter(
            "introspection.objects_total",
            refinement_stats.objects_total as u64,
        );
    }
    let selection_time = select_start.elapsed();

    /// Pass 2: the refined policy on the selected elements, insensitive
    /// elsewhere.
    struct Refined<'a> {
        program: &'a Program,
        hierarchy: &'a ClassHierarchy,
        refinement: &'a RefinementSet,
        label: &'a str,
        config: &'a SolverConfig,
    }
    impl WithPolicy for Refined<'_> {
        type Output = PointsToResult;
        fn apply<P: ContextPolicy + 'static>(self, refined: P) -> PointsToResult {
            let policy =
                Introspective::new(Insensitive, refined, self.refinement.clone(), self.label);
            analyze(self.program, self.hierarchy, &policy, self.config)
        }
    }

    let result = match flavor {
        Flavor::Insensitive => analyze(program, hierarchy, &Insensitive, config),
        // Cut-shortcut and summary precision are not per-element, so there
        // is nothing for the refinement sets to select: like the
        // insensitive arm, the selection is computed (for its stats) but
        // does not steer the run.
        Flavor::CutShortcut | Flavor::Summaries => {
            analyze_flavor(program, hierarchy, flavor, config)
        }
        Flavor::CallSite { .. }
        | Flavor::Object { .. }
        | Flavor::Type { .. }
        | Flavor::Hybrid { .. } => flavor.with_policy(
            program,
            Refined {
                program,
                hierarchy,
                refinement: &refinement,
                label: heuristic.label(),
                config,
            },
        ),
    };

    IntrospectiveRun {
        first_pass,
        metrics,
        refinement,
        refinement_stats,
        selection_time,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{HeuristicA, HeuristicB};
    use rudoop_ir::ProgramBuilder;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        let c = b.var(main, "c");
        let r1 = b.var(main, "r1");
        let r2 = b.var(main, "r2");
        b.alloc(main, a, obj);
        b.alloc(main, c, obj);
        b.scall(main, Some(r1), id_m, &[a]);
        b.scall(main, Some(r2), id_m, &[c]);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn flavor_names_match_doop_convention() {
        assert_eq!(Flavor::Insensitive.spec_name(), "insens");
        assert_eq!(Flavor::OBJ2H.spec_name(), "2objH");
        assert_eq!(Flavor::TYPE2H.spec_name(), "2typeH");
        assert_eq!(Flavor::CALL2H.spec_name(), "2callH");
        assert_eq!(Flavor::HYBRID2H.spec_name(), "S2objH");
        assert_eq!(Flavor::Object { k: 2, heap_k: 2 }.spec_name(), "2obj+2H");
    }

    /// Every context-sensitive kind at `k` 1–3 and heap depth 0–2, plus
    /// the context-free flavors: names are distinct, parse back to their
    /// flavor, and are what the flavor's policy reports.
    #[test]
    fn flavor_names_are_distinct_and_round_trip() {
        let p = sample_program();
        let mut flavors = vec![Flavor::Insensitive, Flavor::CutShortcut, Flavor::Summaries];
        for k in 1..=3 {
            for heap_k in 0..=2 {
                flavors.extend([
                    Flavor::CallSite { k, heap_k },
                    Flavor::Object { k, heap_k },
                    Flavor::Type { k, heap_k },
                    Flavor::Hybrid { k, heap_k },
                ]);
            }
        }
        let names: std::collections::BTreeSet<String> =
            flavors.iter().map(|f| f.spec_name()).collect();
        assert_eq!(names.len(), flavors.len(), "{names:?}");
        for f in flavors {
            assert_eq!(Flavor::parse(&f.spec_name()), Ok(f), "{f:?}");
            assert_eq!(f.policy(&p).name(), f.spec_name(), "{f:?}");
        }
        for bad in [
            "2obj+1H", "2obj+0H", "2obj+02H", "2obj+H", "2obj+2", "2objHH",
        ] {
            assert!(Flavor::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn hybrid_flavor_runs_end_to_end() {
        let p = sample_program();
        let h = ClassHierarchy::new(&p);
        let cfg = SolverConfig::default();
        let r = analyze_flavor(&p, &h, Flavor::HYBRID2H, &cfg);
        assert!(r.outcome.is_complete());
        // Static identity calls are distinguished by call site under the
        // hybrid policy, unlike plain object-sensitivity.
        let obj = analyze_flavor(&p, &h, Flavor::OBJ2H, &cfg);
        let hybrid_total: usize = p.vars.ids().map(|v| r.points_to(v).len()).sum();
        let obj_total: usize = p.vars.ids().map(|v| obj.points_to(v).len()).sum();
        assert!(hybrid_total < obj_total, "{hybrid_total} vs {obj_total}");
    }

    #[test]
    fn introspective_with_everything_refined_matches_full_analysis() {
        // With the paper's default constants, a tiny program has no
        // excluded elements, so the introspective run must be exactly as
        // precise as the full context-sensitive one.
        let p = sample_program();
        let h = ClassHierarchy::new(&p);
        let cfg = SolverConfig::default();
        let full = analyze_flavor(&p, &h, Flavor::CALL2H, &cfg);
        let run = analyze_introspective(&p, &h, Flavor::CALL2H, &HeuristicA::default(), &cfg);
        assert!(run.refinement.no_refine_objects.is_empty());
        for (v, pts) in full.var_pts.iter() {
            assert_eq!(pts, &run.result.var_pts[v], "var {v:?} differs");
        }
    }

    #[test]
    fn introspective_with_everything_excluded_matches_insensitive() {
        let p = sample_program();
        let h = ClassHierarchy::new(&p);
        let cfg = SolverConfig::default();
        // Cutoffs of zero exclude every element with any points-to volume.
        let zero = HeuristicB { p: 0, q: 0 };
        let run = analyze_introspective(&p, &h, Flavor::CALL2H, &zero, &cfg);
        let insens = analyze_flavor(&p, &h, Flavor::Insensitive, &cfg);
        // Heuristic B's q=0 only excludes objects with a nonzero cost
        // product; methods with volume > 0 are all excluded, so contexts
        // collapse for calls.
        for (v, pts) in insens.var_pts.iter() {
            assert_eq!(pts, &run.result.var_pts[v], "var {v:?} differs");
        }
        assert!(run.result.stats.contexts <= 2);
    }

    #[test]
    fn run_reports_selection_statistics() {
        let p = sample_program();
        let h = ClassHierarchy::new(&p);
        let run = analyze_introspective(
            &p,
            &h,
            Flavor::OBJ2H,
            &HeuristicA::default(),
            &SolverConfig::default(),
        );
        assert_eq!(run.refinement_stats.objects_total, 2);
        assert!(run.first_pass.outcome.is_complete());
        assert!(run.result.outcome.is_complete());
        assert!(run.result.analysis.contains("IntroA"));
    }

    #[test]
    fn cutshortcut_flavor_parses_and_round_trips() {
        assert_eq!(Flavor::parse("cutshortcut").unwrap(), Flavor::CutShortcut);
        assert_eq!(Flavor::CutShortcut.spec_name(), "cutshortcut");
        assert_eq!(
            Flavor::parse(&Flavor::CutShortcut.spec_name()).unwrap(),
            Flavor::CutShortcut
        );
    }

    #[test]
    fn summaries_flavor_parses_and_round_trips() {
        assert_eq!(Flavor::parse("summaries").unwrap(), Flavor::Summaries);
        assert_eq!(Flavor::Summaries.spec_name(), "summaries");
        assert_eq!(
            Flavor::parse(&Flavor::Summaries.spec_name()).unwrap(),
            Flavor::Summaries
        );
    }

    #[test]
    fn flavor_parse_error_enumerates_valid_names() {
        // The exact wording is shared by `rudoop`, `rudoop-lint`,
        // `rudoopd`, and ladder-spec parsing — a typo'd `--analysis`
        // should teach the valid grammar, not just reject.
        let err = Flavor::parse("3foo").unwrap_err();
        assert_eq!(err.name(), "3foo");
        assert_eq!(
            err.to_string(),
            "unknown flavor \"3foo\": valid flavors are insens, cutshortcut, \
             summaries, <k>call[H], <k>obj[H], <k>type[H], and S<k>obj[H] \
             (e.g. 2objH, 2typeH, 2callH, S2objH); a heap depth n of 2 or more \
             is spelled +<n>H (e.g. 2obj+2H)"
        );
    }
}
