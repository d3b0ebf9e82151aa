//! The three precision clients the paper's Figures 5–7 report, all
//! "lower is better":
//!
//! - **calls that cannot be devirtualized** — reachable virtual call sites
//!   with more than one resolved target,
//! - **reachable methods** — size of the computed call graph's node set,
//! - **casts that may fail** — reachable cast instructions whose incoming
//!   points-to set contains an object of a non-conforming type.

use rudoop_ir::{ClassHierarchy, InvokeKind, Program};

use crate::solver::PointsToResult;

/// The precision triple reported in the paper's evaluation charts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionMetrics {
    /// Reachable virtual call sites that cannot be devirtualized
    /// (≥ 2 possible targets).
    pub polymorphic_call_sites: usize,
    /// Reachable methods.
    pub reachable_methods: usize,
    /// Reachable casts that may fail.
    pub casts_may_fail: usize,
}

impl PrecisionMetrics {
    /// Computes all three metrics from an analysis result.
    pub fn compute(program: &Program, hierarchy: &ClassHierarchy, result: &PointsToResult) -> Self {
        PrecisionMetrics {
            polymorphic_call_sites: polymorphic_call_sites(program, result),
            reachable_methods: result.reachable_method_count(),
            casts_may_fail: casts_may_fail(program, hierarchy, result),
        }
    }
}

/// Reachable virtual call sites whose resolved target set has ≥ 2 methods —
/// "calls that cannot be devirtualized".
pub fn polymorphic_call_sites(program: &Program, result: &PointsToResult) -> usize {
    program
        .invokes
        .iter()
        .filter(|(iid, invoke)| {
            matches!(invoke.kind, InvokeKind::Virtual { .. })
                && result.reachable_methods.contains(invoke.method)
                && result.call_targets.get(iid).is_some_and(|t| t.len() >= 2)
        })
        .count()
}

/// Reachable cast instructions for which the analysis cannot prove success:
/// the source variable may point to an object whose class is not a subtype
/// of the cast's target class.
pub fn casts_may_fail(
    program: &Program,
    hierarchy: &ClassHierarchy,
    result: &PointsToResult,
) -> usize {
    program
        .cast_sites()
        .filter(|(site, from, class)| {
            result.reachable_methods.contains(site.method)
                && result.var_pts[*from]
                    .iter()
                    .any(|&h| !hierarchy.is_subtype(program.allocs[h].class, *class))
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CallSiteSensitive, Insensitive};
    use crate::solver::{analyze, SolverConfig};
    use rudoop_ir::{ClassHierarchy, ProgramBuilder};

    /// A program where imprecision creates a spurious polymorphic call and
    /// a spurious failing cast, both of which 1-call-site-sensitivity
    /// eliminates: an `id` method conflates a Dog and a Cat insensitively.
    fn litmus() -> rudoop_ir::Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let animal = b.class("Animal", Some(obj));
        let dog = b.class("Dog", Some(animal));
        let cat = b.class("Cat", Some(animal));
        b.method(dog, "speak", &[], false);
        b.method(cat, "speak", &[], false);

        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);

        let main = b.method(obj, "main", &[], true);
        let d = b.var(main, "d");
        let c = b.var(main, "c");
        let rd = b.var(main, "rd");
        let rc = b.var(main, "rc");
        let dd = b.var(main, "dd");
        b.alloc(main, d, dog);
        b.alloc(main, c, cat);
        b.scall(main, Some(rd), id_m, &[d]);
        b.scall(main, Some(rc), id_m, &[c]);
        // rd is dynamically always a Dog; imprecision says it may be a Cat.
        b.vcall(main, None, rd, "speak", &[]);
        b.cast(main, dd, rd, dog);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn insensitive_analysis_reports_spurious_imprecision() {
        let p = litmus();
        let h = ClassHierarchy::new(&p);
        let r = analyze(&p, &h, &Insensitive, &SolverConfig::default());
        let m = PrecisionMetrics::compute(&p, &h, &r);
        assert_eq!(m.polymorphic_call_sites, 1);
        assert_eq!(m.casts_may_fail, 1);
        // Both speak methods spuriously reachable.
        assert_eq!(m.reachable_methods, 4); // main, id, Dog.speak, Cat.speak
    }

    #[test]
    fn context_sensitivity_restores_precision() {
        let p = litmus();
        let h = ClassHierarchy::new(&p);
        let r = analyze(
            &p,
            &h,
            &CallSiteSensitive::new(1, 0),
            &SolverConfig::default(),
        );
        let m = PrecisionMetrics::compute(&p, &h, &r);
        assert_eq!(m.polymorphic_call_sites, 0);
        assert_eq!(m.casts_may_fail, 0);
        assert_eq!(m.reachable_methods, 3); // main, id, Dog.speak
    }

    #[test]
    fn unreachable_casts_do_not_count() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let dead = b.method(obj, "dead", &[], true);
        let x = b.var(dead, "x");
        let y = b.var(dead, "y");
        b.alloc(dead, x, obj);
        b.cast(dead, y, x, a);
        let main = b.method(obj, "main", &[], true);
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let r = analyze(&p, &h, &Insensitive, &SolverConfig::default());
        assert_eq!(casts_may_fail(&p, &h, &r), 0);
    }

    #[test]
    fn monomorphic_calls_are_devirtualizable() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        b.method(a, "f", &[], false);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, a);
        b.vcall(main, None, x, "f", &[]);
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let r = analyze(&p, &h, &Insensitive, &SolverConfig::default());
        assert_eq!(polymorphic_call_sites(&p, &r), 0);
    }
}
