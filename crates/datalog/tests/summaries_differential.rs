//! Differential testing of the summary-based compositional engine: the
//! optimized solver running `Flavor::Summaries` (the bottom-up SCC pass
//! feeding `SolverConfig::summaries`) must produce relations
//! *byte-identical* to the Datalog reference model extended with the
//! `SUMRET` negation and the four summary-instantiation rules, on
//! hand-seeded fixtures, arbitrary seeded programs, and DaCapo-shaped
//! workloads — for the base points-to relations and for both downstream
//! clients (taint, races).
//!
//! The suite also pins the engine's place in the precision order, the
//! defining contract of the flavor:
//!
//! ```text
//! pts(2objH)    ⊆  pts(summaries)    ⊆  pts(insensitive)
//! leaks(2objH)  ⊆  leaks(summaries)  ⊆  leaks(insensitive)
//! races(2objH)  ⊆  races(summaries)  ⊆  races(insensitive)
//! ```
//!
//! and demonstrates both halves of the design decision behind it: on the
//! setter/getter litmus the receiver-filtered `ThisFieldToRet` atoms
//! separate boxes that context insensitivity merges (strict precision),
//! while on the identity litmus the formal-reading `ParamToRet` atoms
//! deliberately *match* insensitivity — a per-site argument edge would
//! out-precision `2objH` where it conflates static call sites, breaking
//! the upper chain.

use rudoop_core::context::ContextElem;
use rudoop_core::driver::{analyze_flavor, Flavor};
use rudoop_core::policy::{ContextPolicy, Insensitive, ObjectSensitive, RefinementSet, Summaries};
use rudoop_core::races::{analyze_races, RaceKey};
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_core::summaries::SummaryTable;
use rudoop_core::taint::analyze_taint;
use rudoop_datalog::{
    run_model_with_summaries, run_race_model_with_summaries, run_taint_model_with_summaries,
};
use rudoop_ir::arbitrary::{generate_with_taint, ProgramShape};
use rudoop_ir::{ClassHierarchy, InvokeId, MethodId, Program, ProgramBuilder, TaintSpec};
use rudoop_workloads::{dacapo, WorkloadSpec};

type LeakSet = Vec<(InvokeId, InvokeId, u32)>;
type RaceSet = Vec<(RaceKey, (MethodId, usize), (MethodId, usize))>;

fn record_config() -> SolverConfig {
    SolverConfig {
        record_contexts: true,
        ..SolverConfig::default()
    }
}

/// Canonical, implementation-independent renderings of the relations.
#[derive(Debug, PartialEq, Eq)]
struct Canonical {
    var_points_to: Vec<(u32, Vec<ContextElem>, u32, Vec<ContextElem>)>,
    call_graph: Vec<(u32, Vec<ContextElem>, u32, Vec<ContextElem>)>,
    reachable: Vec<(u32, Vec<ContextElem>)>,
}

impl Canonical {
    /// Context-erased `(var, heap)` projection of `VarPointsTo`.
    fn projected_pts(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<_> = self.var_points_to.iter().map(|t| (t.0, t.2)).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Optimized-solver relations under `Flavor::Summaries` (the driver
/// computes the summary table and threads it through
/// `SolverConfig::summaries`).
fn canonical_summary_solver(program: &Program, hierarchy: &ClassHierarchy) -> Canonical {
    let r = analyze_flavor(program, hierarchy, Flavor::Summaries, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    let dump = r.cs_dump.unwrap_or_default();
    let t = &r.tables;
    let mut var_points_to: Vec<_> = dump
        .var_points_to()
        .map(|(v, c, h, hc)| (v.0, t.ctx_elems(c).to_vec(), h.0, t.hctx_elems(hc).to_vec()))
        .collect();
    var_points_to.sort();
    var_points_to.dedup();
    let mut call_graph: Vec<_> = dump
        .call_graph()
        .map(|(i, c1, m, c2)| (i.0, t.ctx_elems(c1).to_vec(), m.0, t.ctx_elems(c2).to_vec()))
        .collect();
    call_graph.sort();
    call_graph.dedup();
    let mut reachable: Vec<_> = dump
        .reachable()
        .map(|(m, c)| (m.0, t.ctx_elems(c).to_vec()))
        .collect();
    reachable.sort();
    reachable.dedup();
    Canonical {
        var_points_to,
        call_graph,
        reachable,
    }
}

/// Reference-model relations with the same summary table loaded as EDB
/// facts (`SUMRET` negation + the four instantiation rules).
fn canonical_summary_model(program: &Program, hierarchy: &ClassHierarchy) -> Canonical {
    let table = SummaryTable::compute(program, hierarchy);
    let refine_all = RefinementSet::refine_all(program);
    let m = run_model_with_summaries(
        program,
        hierarchy,
        &Insensitive,
        &Summaries,
        &refine_all,
        Some(&table),
    )
    .unwrap();
    let t = &m.tables;
    let mut var_points_to: Vec<_> = m
        .var_points_to
        .iter()
        .map(|&(v, c, h, hc)| (v.0, t.ctx_elems(c).to_vec(), h.0, t.hctx_elems(hc).to_vec()))
        .collect();
    var_points_to.sort();
    var_points_to.dedup();
    let mut call_graph: Vec<_> = m
        .call_graph
        .iter()
        .map(|&(i, c1, mm, c2)| {
            (
                i.0,
                t.ctx_elems(c1).to_vec(),
                mm.0,
                t.ctx_elems(c2).to_vec(),
            )
        })
        .collect();
    call_graph.sort();
    call_graph.dedup();
    let mut reachable: Vec<_> = m
        .reachable
        .iter()
        .map(|&(mm, c)| (mm.0, t.ctx_elems(c).to_vec()))
        .collect();
    reachable.sort();
    reachable.dedup();
    Canonical {
        var_points_to,
        call_graph,
        reachable,
    }
}

/// Context-erased `(var, heap)` pairs for a plain policy, from the solver.
fn projected_solver_pts(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
) -> Vec<(u32, u32)> {
    let r = analyze(program, hierarchy, policy, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    let dump = r.cs_dump.unwrap_or_default();
    let mut v: Vec<_> = dump
        .var_points_to()
        .map(|(var, _, h, _)| (var.0, h.0))
        .collect();
    v.sort();
    v.dedup();
    v
}

fn assert_subset<T: Ord + std::fmt::Debug>(finer: &[T], coarser: &[T], what: &str) {
    for item in finer {
        assert!(
            coarser.binary_search(item).is_ok(),
            "{what}: tuple {item:?} reported by the finer analysis is missing from the \
             coarser one — soundness violated"
        );
    }
}

/// The base-relation battery for one program: solver ≡ model under the
/// summaries flavor, and the context-erased points-to sets sandwich
/// between `2objH` and insensitive — the full chain, both directions.
fn check_base(name: &str, program: &Program) {
    let hierarchy = ClassHierarchy::new(program);
    let solver = canonical_summary_solver(program, &hierarchy);
    let model = canonical_summary_model(program, &hierarchy);
    assert_eq!(solver, model, "{name}: summaries solver ≢ model");

    let sum_pts = solver.projected_pts();
    let insens_pts = projected_solver_pts(program, &hierarchy, &Insensitive);
    let obj_pts = projected_solver_pts(program, &hierarchy, &ObjectSensitive::new(2, 1));
    assert_subset(
        &obj_pts,
        &sum_pts,
        &format!("{name}: pts(2objH) ⊆ pts(summaries)"),
    );
    assert_subset(
        &sum_pts,
        &insens_pts,
        &format!("{name}: pts(summaries) ⊆ pts(insens)"),
    );
}

// ---------------------------------------------------------------- leaks

fn solver_leaks(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: &TaintSpec,
    flavor: Flavor,
) -> LeakSet {
    let r = analyze_flavor(program, hierarchy, flavor, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    analyze_taint(program, spec, &r).unwrap().leak_set()
}

fn model_summary_leaks(program: &Program, hierarchy: &ClassHierarchy, spec: &TaintSpec) -> LeakSet {
    let table = SummaryTable::compute(program, hierarchy);
    let refine_all = RefinementSet::refine_all(program);
    run_taint_model_with_summaries(
        program,
        hierarchy,
        spec,
        &Insensitive,
        &Summaries,
        &refine_all,
        Some(&table),
    )
    .unwrap()
    .leaks
}

/// The taint battery: solver ≡ model under summaries, plus the
/// `leaks(2objH) ⊆ leaks(summaries) ⊆ leaks(insens)` chain.
fn check_taint(name: &str, program: &Program, spec: &TaintSpec) {
    let hierarchy = ClassHierarchy::new(program);
    let sum = solver_leaks(program, &hierarchy, spec, Flavor::Summaries);
    let model = model_summary_leaks(program, &hierarchy, spec);
    assert_eq!(sum, model, "{name}: summaries taint solver ≢ model");

    let insens = solver_leaks(program, &hierarchy, spec, Flavor::Insensitive);
    let obj = solver_leaks(program, &hierarchy, spec, Flavor::OBJ2H);
    assert_subset(
        &obj,
        &sum,
        &format!("{name}: leaks(2objH) ⊆ leaks(summaries)"),
    );
    assert_subset(
        &sum,
        &insens,
        &format!("{name}: leaks(summaries) ⊆ leaks(insens)"),
    );
}

// ---------------------------------------------------------------- races

fn solver_races(program: &Program, hierarchy: &ClassHierarchy, flavor: Flavor) -> RaceSet {
    let r = analyze_flavor(program, hierarchy, flavor, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    analyze_races(program, &r).unwrap().race_set()
}

fn model_summary_races(program: &Program, hierarchy: &ClassHierarchy) -> RaceSet {
    let table = SummaryTable::compute(program, hierarchy);
    let refine_all = RefinementSet::refine_all(program);
    run_race_model_with_summaries(
        program,
        hierarchy,
        &Insensitive,
        &Summaries,
        &refine_all,
        Some(&table),
    )
    .unwrap()
    .races
}

/// The race battery: solver ≡ model under summaries, plus the
/// `races(2objH) ⊆ races(summaries) ⊆ races(insens)` chain.
fn check_races(name: &str, program: &Program) {
    let hierarchy = ClassHierarchy::new(program);
    let sum = solver_races(program, &hierarchy, Flavor::Summaries);
    let model = model_summary_races(program, &hierarchy);
    assert_eq!(sum, model, "{name}: summaries race solver ≢ model");

    let insens = solver_races(program, &hierarchy, Flavor::Insensitive);
    let obj = solver_races(program, &hierarchy, Flavor::OBJ2H);
    assert_subset(
        &obj,
        &sum,
        &format!("{name}: races(2objH) ⊆ races(summaries)"),
    );
    assert_subset(
        &sum,
        &insens,
        &format!("{name}: races(summaries) ⊆ races(insens)"),
    );
}

// ---------------------------------------------------------------- fixtures

/// Identity function, two static call sites with distinct arguments, plus
/// a result-less third call. `id` distills to `ParamToRet(id, 0)`; both
/// results read the shared formal.
fn identity_program() -> Program {
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
    b.scall(main, None, id_m, &[a]);
    b.entry(main);
    b.finish()
}

/// Boxes filled by *direct* caller-side stores and read through a shared
/// getter — the getter litmus. `get` distills to `ThisFieldToRet(val)`,
/// so each call site loads the field through *its own* receiver objects,
/// separating the two boxes without building a single context. (A shared
/// *setter* would re-conflate the fields before the getter filter could
/// help: summaries shortcut return edges only, unlike the cut-shortcut
/// engine's setter cuts.)
fn boxes_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let item = b.class("Item", Some(obj));
    let special = b.class("SpecialItem", Some(item));
    let box_c = b.class("Box", Some(obj));
    let f = b.field(box_c, "val");
    let get_m = b.method(box_c, "get", &[], false);
    let gt = b.this(get_m);
    let gr = b.var(get_m, "r");
    b.load(get_m, gr, gt, f);
    b.ret(get_m, gr);
    let main = b.method(obj, "main", &[], true);
    let b1 = b.var(main, "b1");
    let b2 = b.var(main, "b2");
    let i1 = b.var(main, "i1");
    let i2 = b.var(main, "i2");
    let o1 = b.var(main, "o1");
    let o2 = b.var(main, "o2");
    b.alloc(main, b1, box_c);
    b.alloc(main, b2, box_c);
    b.alloc(main, i1, item);
    b.alloc(main, i2, special);
    b.store(main, b1, f, i1);
    b.store(main, b2, f, i2);
    b.vcall(main, Some(o1), b1, "get", &[]);
    b.vcall(main, Some(o2), b2, "get", &[]);
    b.entry(main);
    b.finish()
}

/// A factory whose parameter escapes into a field of the returned fresh
/// object. The return slice is just the allocation (`AllocToRet`), while
/// the escaping store rides on the untouched argument edges — the call
/// edge must stay intact and keep the callee reachable.
fn escape_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let holder = b.class("Holder", Some(obj));
    let f = b.field(holder, "held");
    let keep_m = b.method(obj, "keep", &["x"], true);
    let kx = b.param(keep_m, 0);
    let kh = b.var(keep_m, "h");
    b.alloc(keep_m, kh, holder);
    b.store(keep_m, kh, f, kx);
    b.ret(keep_m, kh);
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let r = b.var(main, "r");
    let out = b.var(main, "out");
    b.alloc(main, a, obj);
    b.scall(main, Some(r), keep_m, &[a]);
    b.load(main, out, r, f);
    b.entry(main);
    b.finish()
}

/// A two-method recursion distilled to an SCC fixpoint, called from two
/// static sites — exercises composed `ParamToRet` atoms (which keep
/// pointing at the *inner* formal) against the model.
fn recursion_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let box_c = b.class("Box", Some(obj));
    let f_m = b.method(obj, "f", &["x"], true);
    let g_m = b.method(obj, "g", &["y"], true);
    let fx = b.param(f_m, 0);
    let fr = b.var(f_m, "r");
    b.scall(f_m, Some(fr), g_m, &[fx]);
    b.ret(f_m, fr);
    let gy = b.param(g_m, 0);
    let gt = b.var(g_m, "t");
    let gr = b.var(g_m, "r");
    b.alloc(g_m, gt, box_c);
    b.ret(g_m, gt);
    b.ret(g_m, gy);
    b.scall(g_m, Some(gr), f_m, &[gy]);
    b.ret(g_m, gr);
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let r1 = b.var(main, "r1");
    let r2 = b.var(main, "r2");
    b.alloc(main, a, obj);
    b.alloc(main, c, box_c);
    b.scall(main, Some(r1), f_m, &[a]);
    b.scall(main, Some(r2), g_m, &[c]);
    b.entry(main);
    b.finish()
}

fn fixtures() -> Vec<(&'static str, Program)> {
    vec![
        ("identity", identity_program()),
        ("boxes", boxes_program()),
        ("escape", escape_program()),
        ("recursion", recursion_program()),
    ]
}

// ------------------------------------------------------------------ tests

#[test]
fn fixtures_pin_summaries_to_model() {
    for (name, program) in fixtures() {
        check_base(name, &program);
    }
}

#[test]
fn summaries_separate_boxes_without_contexts() {
    // Strict precision over insensitivity: on the setter/getter litmus the
    // receiver-filtered `ThisFieldToRet` instantiation must shrink the
    // context-erased points-to set (o1 no longer sees box 2's item).
    let program = boxes_program();
    let hierarchy = ClassHierarchy::new(&program);
    let bare = projected_solver_pts(&program, &hierarchy, &Summaries);
    // `projected_solver_pts` runs the bare policy without a table — go
    // through the flavor driver so the summary pass is attached.
    let sum = canonical_summary_solver(&program, &hierarchy).projected_pts();
    let insens = projected_solver_pts(&program, &hierarchy, &Insensitive);
    let obj = projected_solver_pts(&program, &hierarchy, &ObjectSensitive::new(2, 1));
    // Without a table the Summaries policy is just insensitivity...
    assert_eq!(bare, insens, "bare Summaries policy should equal insens");
    // ...with one it is strictly smaller, and sandwiched by 2objH.
    assert!(
        sum.len() < insens.len(),
        "summaries ({}) should be strictly more precise than insens ({})",
        sum.len(),
        insens.len()
    );
    assert_subset(&obj, &sum, "boxes: pts(2objH) ⊆ pts(summaries)");
}

#[test]
fn formal_reading_param_atoms_match_insens_on_identity() {
    // The deliberate imprecision half of the chain contract: `ParamToRet`
    // reads the shared formal (the union over call sites), so on the
    // identity litmus — where 2objH itself conflates the static sites —
    // summaries, 2objH and insens all agree. A per-site argument edge
    // would make r1/r2 more precise than 2objH here and break
    // `pts(2objH) ⊆ pts(summaries)`.
    let program = identity_program();
    let hierarchy = ClassHierarchy::new(&program);
    let sum = canonical_summary_solver(&program, &hierarchy).projected_pts();
    let insens = projected_solver_pts(&program, &hierarchy, &Insensitive);
    let obj = projected_solver_pts(&program, &hierarchy, &ObjectSensitive::new(2, 1));
    assert_eq!(sum, insens, "identity: summaries should equal insens");
    assert_eq!(obj, insens, "identity: 2objH conflates the static sites");
}

#[test]
fn seeded_programs_pin_summaries_to_model() {
    let shape = ProgramShape::default();
    for seed in 0..16u64 {
        let (program, spec) = generate_with_taint(&shape, seed, 2);
        let name = format!("seed {seed}");
        check_base(&name, &program);
        check_taint(&name, &program, &spec);
    }
}

// ------------------------------------------------------------ workloads

/// A DaCapo-shaped spec shrunk to reference-model scale (the Datalog
/// engine evaluates rules tuple-at-a-time); every pattern of the original
/// stays enabled, just smaller, with the taint battery switched on.
fn shrink(mut spec: WorkloadSpec) -> WorkloadSpec {
    fn cap(v: &mut usize, at: usize) {
        *v = (*v).min(at);
    }
    cap(&mut spec.pool_values, 8);
    cap(&mut spec.pool_readers, 6);
    cap(&mut spec.wrapper_classes, 2);
    cap(&mut spec.creator_classes, 2);
    cap(&mut spec.creator_instances, 3);
    cap(&mut spec.allocator_classes, 2);
    cap(&mut spec.wrapper_sites_per_class, 2);
    cap(&mut spec.process_steps, 2);
    cap(&mut spec.deep_pool_values, 6);
    cap(&mut spec.deep_creator_classes, 2);
    cap(&mut spec.deep_allocator_classes, 2);
    cap(&mut spec.deep_instances, 2);
    cap(&mut spec.deep_sites_per_class, 2);
    cap(&mut spec.deep_steps, 2);
    cap(&mut spec.util_consumers, 3);
    cap(&mut spec.util_dists, 2);
    cap(&mut spec.util_chain, 2);
    cap(&mut spec.util_moves, 2);
    cap(&mut spec.medium_pool, 6);
    cap(&mut spec.probes_clean, 2);
    cap(&mut spec.probes_type_friendly, 2);
    cap(&mut spec.probes_medium, 2);
    cap(&mut spec.listeners, 2);
    cap(&mut spec.visitor_nodes, 2);
    cap(&mut spec.visitor_kinds, 2);
    cap(&mut spec.stream_depth, 2);
    cap(&mut spec.app_classes, 2);
    cap(&mut spec.app_casts, 2);
    spec.taint_flows = 1;
    spec
}

#[test]
fn dacapo_workloads_pin_summaries_to_model() {
    for base in dacapo::all_nine() {
        let spec = shrink(base);
        let program = spec.build();
        let taint = spec.taint_spec(&program);
        check_base(&spec.name, &program);
        check_taint(&spec.name, &program, &taint);
    }
}

#[test]
fn dacapo_concurrency_workloads_pin_summaries_races_to_model() {
    for base in dacapo::all_nine() {
        let mut spec = shrink(base);
        spec.taint_flows = 0;
        spec.concurrency = 2;
        let program = spec.build();
        check_races(&spec.name, &program);
    }
}
