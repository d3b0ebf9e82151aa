//! The refinement heuristics of §3: Heuristic A and Heuristic B, which turn
//! [`IntrospectionMetrics`] into a [`RefinementSet`].
//!
//! Both heuristics work in complement form: they pick the (small) sets of
//! program elements that must *not* be refined because their metrics
//! predict disproportionate cost. Everything else is refined, i.e. analyzed
//! with the precise context.
//!
//! - **Heuristic A** (paper defaults K=100, L=100, M=200): exclude objects
//!   with pointed-by-vars > K; exclude call sites with in-flow > L or
//!   invoking methods with max var-field points-to > M.
//! - **Heuristic B** (paper defaults P=Q=10000): exclude call sites
//!   invoking methods with total points-to volume > P; exclude objects with
//!   `total field points-to × pointed-by-vars > Q` — "an object's total
//!   potential for weighing down the analysis".

use rudoop_ir::Program;

use crate::introspection::IntrospectionMetrics;
use crate::policy::RefinementSet;
use crate::solver::PointsToResult;

/// A rule for selecting which program elements to refine.
pub trait RefinementHeuristic: std::fmt::Debug {
    /// Short label used in analysis names (`"IntroA"`, `"IntroB"`).
    fn label(&self) -> &str;

    /// Computes the refinement decision from the first (context-insensitive)
    /// pass.
    fn select(
        &self,
        program: &Program,
        metrics: &IntrospectionMetrics,
        insens: &PointsToResult,
    ) -> RefinementSet;
}

/// Heuristic A: aggressive scalability (§3).
///
/// Refine all allocation sites except those with pointed-by-vars (metric
/// #5) above `k`; refine all call sites except those with in-flow (metric
/// #1) above `l` or a target method max var-field points-to (metric #4)
/// above `m`.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicA {
    /// Pointed-by-vars cutoff (paper: 100).
    pub k: u32,
    /// In-flow cutoff (paper: 100).
    pub l: u32,
    /// Max var-field points-to cutoff (paper: 200).
    pub m: u32,
}

impl Default for HeuristicA {
    fn default() -> Self {
        HeuristicA {
            k: 100,
            l: 100,
            m: 200,
        }
    }
}

impl RefinementHeuristic for HeuristicA {
    fn label(&self) -> &str {
        "IntroA"
    }

    fn select(
        &self,
        program: &Program,
        metrics: &IntrospectionMetrics,
        _insens: &PointsToResult,
    ) -> RefinementSet {
        let mut set = RefinementSet::refine_all(program);
        for alloc in program.allocs.ids() {
            if metrics.pointed_by_vars[alloc] > self.k {
                set.no_refine_objects.insert(alloc);
            }
        }
        for invoke in program.invokes.ids() {
            if metrics.in_flow[invoke] > self.l {
                set.no_refine_invokes.insert(invoke);
            }
        }
        for method in program.methods.ids() {
            if metrics.method_max_var_field_pts[method] > self.m {
                set.no_refine_methods.insert(method);
            }
        }
        set
    }
}

/// Heuristic B: selective, precision-preserving (§3).
///
/// Refine all call sites except those invoking methods with total points-to
/// volume (metric #2) above `p`; refine all objects except those whose
/// `total field points-to × pointed-by-vars` (metrics #3 × #5) exceeds `q`.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicB {
    /// Method total points-to volume cutoff (paper: 10000).
    pub p: u32,
    /// Object cost-product cutoff (paper: 10000).
    pub q: u32,
}

impl Default for HeuristicB {
    fn default() -> Self {
        HeuristicB {
            p: 10_000,
            q: 10_000,
        }
    }
}

impl RefinementHeuristic for HeuristicB {
    fn label(&self) -> &str {
        "IntroB"
    }

    fn select(
        &self,
        program: &Program,
        metrics: &IntrospectionMetrics,
        _insens: &PointsToResult,
    ) -> RefinementSet {
        let mut set = RefinementSet::refine_all(program);
        for method in program.methods.ids() {
            if metrics.method_total_pts[method] > self.p {
                set.no_refine_methods.insert(method);
            }
        }
        for alloc in program.allocs.ids() {
            let product = u64::from(metrics.obj_total_field_pts[alloc])
                * u64::from(metrics.pointed_by_vars[alloc]);
            if product > u64::from(self.q) {
                set.no_refine_objects.insert(alloc);
            }
        }
        set
    }
}

/// Percentages for the paper's Figure 4: how many call sites and objects
/// were selected to *not* be refined, relative to the reachable program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementStats {
    /// Reachable virtual/special call sites excluded from refinement.
    pub call_sites_not_refined: usize,
    /// Reachable call sites total.
    pub call_sites_total: usize,
    /// Reachable allocation sites excluded from refinement.
    pub objects_not_refined: usize,
    /// Reachable allocation sites total.
    pub objects_total: usize,
}

impl RefinementStats {
    /// Computes Figure-4 statistics for `set`, counting only program
    /// elements reachable in the first pass (unreachable code has no
    /// metrics and is never analyzed anyway).
    ///
    /// A call site counts as "not refined" when the site itself is excluded
    /// or every first-pass target of it is an excluded method.
    pub fn compute(program: &Program, insens: &PointsToResult, set: &RefinementSet) -> Self {
        let mut call_sites_total = 0usize;
        let mut call_sites_not_refined = 0usize;
        for (iid, invoke) in program.invokes.iter() {
            if !insens.reachable_methods.contains(invoke.method) {
                continue;
            }
            call_sites_total += 1;
            if set.no_refine_invokes.contains(iid) {
                call_sites_not_refined += 1;
                continue;
            }
            if let Some(targets) = insens.call_targets.get(&iid) {
                if !targets.is_empty() && targets.iter().all(|&t| set.no_refine_methods.contains(t))
                {
                    call_sites_not_refined += 1;
                }
            }
        }

        let mut objects_total = 0usize;
        let mut objects_not_refined = 0usize;
        for (aid, alloc) in program.allocs.iter() {
            if !insens.reachable_methods.contains(alloc.method) {
                continue;
            }
            objects_total += 1;
            if set.no_refine_objects.contains(aid) {
                objects_not_refined += 1;
            }
        }

        RefinementStats {
            call_sites_not_refined,
            call_sites_total,
            objects_not_refined,
            objects_total,
        }
    }

    /// Percentage of call sites not refined (Figure 4, left columns).
    pub fn call_site_pct(&self) -> f64 {
        percentage(self.call_sites_not_refined, self.call_sites_total)
    }

    /// Percentage of objects not refined (Figure 4, right columns).
    pub fn object_pct(&self) -> f64 {
        percentage(self.objects_not_refined, self.objects_total)
    }
}

fn percentage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::introspection::IntrospectionMetrics;
    use crate::policy::Insensitive;
    use crate::solver::{analyze, SolverConfig};
    use rudoop_ir::{ClassHierarchy, ProgramBuilder};

    /// A program with one "hub" object pointed to by many variables and one
    /// ordinary object.
    fn hub_program(fanout: usize) -> rudoop_ir::Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let hub = b.var(main, "hub");
        b.alloc(main, hub, obj);
        for i in 0..fanout {
            let v = b.var(main, &format!("v{i}"));
            b.mov(main, v, hub);
        }
        let lone = b.var(main, "lone");
        b.alloc(main, lone, obj);
        b.entry(main);
        b.finish()
    }

    fn select(
        p: &rudoop_ir::Program,
        h: &dyn RefinementHeuristic,
    ) -> (RefinementSet, PointsToResult) {
        let hier = ClassHierarchy::new(p);
        let insens = analyze(p, &hier, &Insensitive, &SolverConfig::default());
        let metrics = IntrospectionMetrics::compute(p, &insens);
        (h.select(p, &metrics, &insens), insens)
    }

    #[test]
    fn heuristic_a_excludes_heavily_pointed_objects() {
        let p = hub_program(12);
        let small = HeuristicA {
            k: 5,
            l: 100,
            m: 200,
        };
        let (set, _) = select(&p, &small);
        // The hub (alloc 0) exceeds pointed-by-vars 5; the lone object not.
        assert!(!set.object_refined(rudoop_ir::AllocId(0)));
        assert!(set.object_refined(rudoop_ir::AllocId(1)));
    }

    #[test]
    fn heuristic_a_paper_constants_refine_small_programs_fully() {
        let p = hub_program(12);
        let (set, _) = select(&p, &HeuristicA::default());
        assert!(set.no_refine_objects.is_empty());
        assert!(set.no_refine_invokes.is_empty());
        assert!(set.no_refine_methods.is_empty());
    }

    #[test]
    fn heuristic_b_uses_cost_product_for_objects() {
        // Hub object holding many field targets and pointed by many vars.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let f = b.field(obj, "f");
        let main = b.method(obj, "main", &[], true);
        let hub = b.var(main, "hub");
        b.alloc(main, hub, obj);
        for i in 0..4 {
            let v = b.var(main, &format!("p{i}"));
            b.mov(main, v, hub);
        }
        for i in 0..4 {
            let v = b.var(main, &format!("t{i}"));
            b.alloc(main, v, obj);
            b.store(main, hub, f, v);
        }
        b.entry(main);
        let p = b.finish();
        // total field pts = 4, pointed-by-vars = 5 (hub + 4 copies) => 20.
        let tight = HeuristicB { p: 10_000, q: 19 };
        let (set, _) = select(&p, &tight);
        assert!(!set.object_refined(rudoop_ir::AllocId(0)));
        let loose = HeuristicB { p: 10_000, q: 20 };
        let (set, _) = select(&p, &loose);
        assert!(set.object_refined(rudoop_ir::AllocId(0)));
    }

    #[test]
    fn heuristic_b_excludes_high_volume_methods() {
        let p = hub_program(40);
        // main has ~42 var-points-to tuples; cutoff below that.
        let tight = HeuristicB { p: 10, q: 10_000 };
        let (set, insens) = select(&p, &tight);
        let main = p.entry_points[0];
        assert!(!set.site_refined(rudoop_ir::InvokeId(0), main) || p.invokes.is_empty());
        assert!(set.no_refine_methods.contains(main));
        let stats = RefinementStats::compute(&p, &insens, &set);
        assert_eq!(stats.objects_not_refined, 0);
    }

    #[test]
    fn refinement_stats_percentages() {
        let p = hub_program(12);
        let small = HeuristicA {
            k: 5,
            l: 100,
            m: 200,
        };
        let (set, insens) = select(&p, &small);
        let stats = RefinementStats::compute(&p, &insens, &set);
        assert_eq!(stats.objects_total, 2);
        assert_eq!(stats.objects_not_refined, 1);
        assert!((stats.object_pct() - 50.0).abs() < 1e-9);
        assert_eq!(stats.call_sites_total, 0);
        assert_eq!(stats.call_site_pct(), 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(HeuristicA::default().label(), "IntroA");
        assert_eq!(HeuristicB::default().label(), "IntroB");
    }
}
