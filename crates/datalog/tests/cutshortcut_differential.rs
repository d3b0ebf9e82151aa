//! Differential testing of the cut-shortcut engine: the optimized solver
//! running `Flavor::CutShortcut` (the flow-graph pre-analysis feeding
//! `SolverConfig::cuts`) must produce relations *byte-identical* to the
//! Datalog reference model extended with the `CUTPARAM`/`CUTRET` negations
//! and the three shortcut rules, on hand-seeded fixtures, arbitrary seeded
//! programs, and DaCapo-shaped workloads — for the base points-to
//! relations and for both downstream clients (taint, races).
//!
//! The suite also pins the engine's place in the precision order:
//!
//! ```text
//! pts(cutshortcut)    ⊆  pts(insensitive)      (pointwise, always)
//! leaks(2objH)        ⊆  leaks(cutshortcut)    ⊆  leaks(insensitive)
//! races(2objH)        ⊆  races(cutshortcut)    ⊆  races(insensitive)
//! ```
//!
//! and demonstrates the strict-precision half of the contract: on the
//! setter/getter litmus the cut-shortcut analysis separates boxes that
//! context insensitivity merges, without building a single context.

use rudoop_core::context::ContextElem;
use rudoop_core::cutshortcut::CutSummary;
use rudoop_core::driver::{analyze_flavor, Flavor};
use rudoop_core::policy::{
    ContextPolicy, CutShortcut, Insensitive, ObjectSensitive, RefinementSet,
};
use rudoop_core::races::{analyze_races, RaceKey};
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_core::taint::analyze_taint;
use rudoop_datalog::{run_model_with_cuts, run_race_model_with_cuts, run_taint_model_with_cuts};
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

/// Optimized-solver relations under `Flavor::CutShortcut` (the driver
/// computes the cut summary and threads it through `SolverConfig::cuts`).
fn canonical_cut_solver(program: &Program, hierarchy: &ClassHierarchy) -> Canonical {
    let r = analyze_flavor(program, hierarchy, Flavor::CutShortcut, &record_config());
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

/// Reference-model relations with the same cut summary loaded as EDB
/// facts (`CUTPARAM`/`CUTRET` negations + shortcut rules).
fn canonical_cut_model(program: &Program, hierarchy: &ClassHierarchy) -> Canonical {
    let cuts = CutSummary::compute(program);
    let refine_all = RefinementSet::refine_all(program);
    let m = run_model_with_cuts(
        program,
        hierarchy,
        &Insensitive,
        &CutShortcut,
        &refine_all,
        Some(&cuts),
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
/// cut-shortcut flavor, and the context-erased points-to sets sandwich
/// between `2objH` and insensitive.
fn check_base(name: &str, program: &Program) {
    let hierarchy = ClassHierarchy::new(program);
    let solver = canonical_cut_solver(program, &hierarchy);
    let model = canonical_cut_model(program, &hierarchy);
    assert_eq!(solver, model, "{name}: cutshortcut solver ≢ model");

    let cut_pts = solver.projected_pts();
    let insens_pts = projected_solver_pts(program, &hierarchy, &Insensitive);
    assert_subset(
        &cut_pts,
        &insens_pts,
        &format!("{name}: pts(cutshortcut) ⊆ pts(insens)"),
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

fn model_cut_leaks(program: &Program, hierarchy: &ClassHierarchy, spec: &TaintSpec) -> LeakSet {
    let cuts = CutSummary::compute(program);
    let refine_all = RefinementSet::refine_all(program);
    run_taint_model_with_cuts(
        program,
        hierarchy,
        spec,
        &Insensitive,
        &CutShortcut,
        &refine_all,
        Some(&cuts),
    )
    .unwrap()
    .leaks
}

/// The taint battery: solver ≡ model under cut-shortcut, plus the
/// `leaks(2objH) ⊆ leaks(cutshortcut) ⊆ leaks(insens)` chain.
fn check_taint(name: &str, program: &Program, spec: &TaintSpec) {
    let hierarchy = ClassHierarchy::new(program);
    let cut = solver_leaks(program, &hierarchy, spec, Flavor::CutShortcut);
    let model = model_cut_leaks(program, &hierarchy, spec);
    assert_eq!(cut, model, "{name}: cutshortcut taint solver ≢ model");

    let insens = solver_leaks(program, &hierarchy, spec, Flavor::Insensitive);
    let obj = solver_leaks(program, &hierarchy, spec, Flavor::OBJ2H);
    assert_subset(
        &obj,
        &cut,
        &format!("{name}: leaks(2objH) ⊆ leaks(cutshortcut)"),
    );
    assert_subset(
        &cut,
        &insens,
        &format!("{name}: leaks(cutshortcut) ⊆ leaks(insens)"),
    );
}

// ---------------------------------------------------------------- races

fn solver_races(program: &Program, hierarchy: &ClassHierarchy, flavor: Flavor) -> RaceSet {
    let r = analyze_flavor(program, hierarchy, flavor, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    analyze_races(program, &r).unwrap().race_set()
}

fn model_cut_races(program: &Program, hierarchy: &ClassHierarchy) -> RaceSet {
    let cuts = CutSummary::compute(program);
    let refine_all = RefinementSet::refine_all(program);
    run_race_model_with_cuts(
        program,
        hierarchy,
        &Insensitive,
        &CutShortcut,
        &refine_all,
        Some(&cuts),
    )
    .unwrap()
    .races
}

/// The race battery: solver ≡ model under cut-shortcut, plus the
/// `races(2objH) ⊆ races(cutshortcut) ⊆ races(insens)` chain.
fn check_races(name: &str, program: &Program) {
    let hierarchy = ClassHierarchy::new(program);
    let cut = solver_races(program, &hierarchy, Flavor::CutShortcut);
    let model = model_cut_races(program, &hierarchy);
    assert_eq!(cut, model, "{name}: cutshortcut race solver ≢ model");

    let insens = solver_races(program, &hierarchy, Flavor::Insensitive);
    let obj = solver_races(program, &hierarchy, Flavor::OBJ2H);
    assert_subset(
        &obj,
        &cut,
        &format!("{name}: races(2objH) ⊆ races(cutshortcut)"),
    );
    assert_subset(
        &cut,
        &insens,
        &format!("{name}: races(cutshortcut) ⊆ races(insens)"),
    );
}

// ---------------------------------------------------------------- fixtures

/// Identity functions, two static call sites: both calls are cut, the
/// results flow directly from the arguments. A third, result-less call
/// exercises the drop-entirely arm.
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

/// Boxes with set/get through `this` — the setter/getter litmus. Cutting
/// `set`'s value parameter and `get`'s return turns the transparent
/// method bodies into caller-side field accesses, separating the two
/// boxes without contexts.
fn boxes_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let item = b.class("Item", Some(obj));
    let special = b.class("SpecialItem", Some(item));
    let box_c = b.class("Box", Some(obj));
    let f = b.field(box_c, "val");
    let set_m = b.method(box_c, "set", &["v"], false);
    let st = b.this(set_m);
    let sv = b.param(set_m, 0);
    b.store(set_m, st, f, sv);
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
    b.vcall(main, None, b1, "set", &[i1]);
    b.vcall(main, None, b2, "set", &[i2]);
    b.vcall(main, Some(o1), b1, "get", &[]);
    b.vcall(main, Some(o2), b2, "get", &[]);
    b.entry(main);
    b.finish()
}

/// A method whose parameter escapes into a field of a fresh object: not
/// cuttable (the parameter has a non-copy use on a non-`this` base), so
/// the call edge must stay intact and keep the callee reachable.
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

fn fixtures() -> Vec<(&'static str, Program)> {
    vec![
        ("identity", identity_program()),
        ("boxes", boxes_program()),
        ("escape", escape_program()),
    ]
}

// ------------------------------------------------------------------ tests

#[test]
fn fixtures_pin_cutshortcut_to_model() {
    for (name, program) in fixtures() {
        check_base(name, &program);
    }
}

#[test]
fn cutshortcut_separates_boxes_without_contexts() {
    // Strict precision over insensitivity: on the setter/getter litmus
    // the cut-shortcut engine must shrink the context-erased points-to
    // set (o1 no longer sees box 2's item), matching 2objH's answer.
    let program = boxes_program();
    let hierarchy = ClassHierarchy::new(&program);
    let cut = projected_solver_pts(&program, &hierarchy, &CutShortcut);
    // `projected_solver_pts` runs a bare policy without cuts — go through
    // the flavor driver so the summary is attached.
    let cut_flavored = canonical_cut_solver(&program, &hierarchy).projected_pts();
    let insens = projected_solver_pts(&program, &hierarchy, &Insensitive);
    let obj = projected_solver_pts(&program, &hierarchy, &ObjectSensitive::new(2, 1));
    // Without cuts the CutShortcut policy is just insensitivity...
    assert_eq!(cut, insens, "bare CutShortcut policy should equal insens");
    // ...with cuts it is strictly smaller — and on this fixture at least
    // as small as 2objH: the cut call edges make the setter/getter bodies
    // fully transparent, so their formals carry no tuples at all, while
    // 2objH still populates them (once per receiver context).
    assert!(
        cut_flavored.len() < insens.len(),
        "cutshortcut ({}) should be strictly more precise than insens ({})",
        cut_flavored.len(),
        insens.len()
    );
    assert_subset(&cut_flavored, &obj, "boxes: pts(cutshortcut) ⊆ pts(2objH)");
}

#[test]
fn seeded_programs_pin_cutshortcut_to_model() {
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
fn dacapo_workloads_pin_cutshortcut_to_model() {
    for base in dacapo::all_nine() {
        let spec = shrink(base);
        let program = spec.build();
        let taint = spec.taint_spec(&program);
        check_base(&spec.name, &program);
        check_taint(&spec.name, &program, &taint);
    }
}

#[test]
fn dacapo_concurrency_workloads_pin_cutshortcut_races_to_model() {
    for base in dacapo::all_nine() {
        let mut spec = shrink(base);
        spec.taint_flows = 0;
        spec.concurrency = 2;
        let program = spec.build();
        check_races(&spec.name, &program);
    }
}
