//! Differential testing: the optimized worklist solver (`rudoop-core`) must
//! agree with the executable Datalog model of the paper's Figures 2–3 on
//! every context flavor, including introspective mixes.
//!
//! Agreement is checked on the full context-sensitive relations, with
//! contexts compared structurally (as element sequences) because the two
//! implementations may intern context ids in different orders.

use rudoop_core::context::ContextElem;
use rudoop_core::policy::{
    CallSiteSensitive, ContextPolicy, Insensitive, Introspective, ObjectSensitive, RefinementSet,
    TypeSensitive,
};
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_datalog::run_model;
use rudoop_ir::{AllocId, ClassHierarchy, InvokeId, MethodId, Program, ProgramBuilder};

/// Canonical, implementation-independent renderings of the relations.
#[derive(Debug, PartialEq, Eq)]
struct Canonical {
    var_points_to: Vec<(u32, Vec<ContextElem>, u32, Vec<ContextElem>)>,
    call_graph: Vec<(u32, Vec<ContextElem>, u32, Vec<ContextElem>)>,
    reachable: Vec<(u32, Vec<ContextElem>)>,
}

fn canonical_solver(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
) -> Canonical {
    let config = SolverConfig {
        record_contexts: true,
        ..SolverConfig::default()
    };
    let r = analyze(program, hierarchy, policy, &config);
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

fn canonical_model(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> Canonical {
    let m = run_model(program, hierarchy, default, refined, refinement).unwrap();
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

/// Checks solver ≡ model for a full (non-introspective) analysis.
fn check_flavor(program: &Program, policy: &dyn ContextPolicy) {
    let hierarchy = ClassHierarchy::new(program);
    let refine_all = RefinementSet::refine_all(program);
    let solver = canonical_solver(program, &hierarchy, policy);
    let model = canonical_model(program, &hierarchy, &Insensitive, policy, &refine_all);
    assert_eq!(
        solver,
        model,
        "solver and model disagree for policy {}",
        policy.name()
    );
}

/// Checks solver ≡ model for an introspective analysis with the given
/// exclusion sets.
fn check_introspective(
    program: &Program,
    refined: &dyn ContextPolicy,
    exclude_objects: &[AllocId],
    exclude_invokes: &[InvokeId],
    exclude_methods: &[MethodId],
) {
    let hierarchy = ClassHierarchy::new(program);
    let mut refinement = RefinementSet::refine_all(program);
    for &a in exclude_objects {
        refinement.no_refine_objects.insert(a);
    }
    for &i in exclude_invokes {
        refinement.no_refine_invokes.insert(i);
    }
    for &m in exclude_methods {
        refinement.no_refine_methods.insert(m);
    }
    let model = canonical_model(program, &hierarchy, &Insensitive, refined, &refinement);
    // The solver sees the same refinement via an Introspective policy; we
    // need a concrete type, so dispatch on the refined policy's name.
    let solver = match refined.name().as_str() {
        name if name.contains("call") => {
            let p = Introspective::new(Insensitive, CallSiteSensitive::new(2, 1), refinement, "T");
            canonical_solver(program, &hierarchy, &p)
        }
        name if name.contains("obj") => {
            let p = Introspective::new(Insensitive, ObjectSensitive::new(2, 1), refinement, "T");
            canonical_solver(program, &hierarchy, &p)
        }
        _ => {
            let p = Introspective::new(
                Insensitive,
                TypeSensitive::new(2, 1, program),
                refinement,
                "T",
            );
            canonical_solver(program, &hierarchy, &p)
        }
    };
    assert_eq!(
        solver,
        model,
        "introspective disagreement for {}",
        refined.name()
    );
}

// ---------------------------------------------------------------- fixtures

/// Identity functions, two call sites — the call-site-sensitivity litmus.
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
    b.entry(main);
    b.finish()
}

/// Boxes with set/get through `this` — the object-sensitivity litmus, plus
/// a class hierarchy with overriding and a cast.
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
    // Item.describe / SpecialItem.describe override pair.
    let d1 = b.method(item, "describe", &[], false);
    let d1r = b.var(d1, "r");
    b.alloc(d1, d1r, item);
    b.ret(d1, d1r);
    let d2 = b.method(special, "describe", &[], false);
    let d2r = b.var(d2, "r");
    b.alloc(d2, d2r, special);
    b.ret(d2, d2r);

    let main = b.method(obj, "main", &[], true);
    let b1 = b.var(main, "b1");
    let b2 = b.var(main, "b2");
    let i1 = b.var(main, "i1");
    let i2 = b.var(main, "i2");
    let o1 = b.var(main, "o1");
    let o2 = b.var(main, "o2");
    let desc = b.var(main, "desc");
    let casted = b.var(main, "casted");
    b.alloc(main, b1, box_c);
    b.alloc(main, b2, box_c);
    b.alloc(main, i1, item);
    b.alloc(main, i2, special);
    b.vcall(main, None, b1, "set", &[i1]);
    b.vcall(main, None, b2, "set", &[i2]);
    b.vcall(main, Some(o1), b1, "get", &[]);
    b.vcall(main, Some(o2), b2, "get", &[]);
    b.vcall(main, Some(desc), o1, "describe", &[]);
    b.cast(main, casted, o2, special);
    b.entry(main);
    b.finish()
}

/// Special calls (constructor-style) and a static helper chain.
fn constructors_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let node = b.class("Node", Some(obj));
    let next = b.field(node, "next");
    let init = b.method(node, "init", &["n"], false);
    let it = b.this(init);
    let ip = b.param(init, 0);
    b.store(init, it, next, ip);
    let helper = b.method(obj, "helper", &["x"], true);
    let hp = b.param(helper, 0);
    let hr = b.var(helper, "hr");
    b.mov(helper, hr, hp);
    b.ret(helper, hr);

    let main = b.method(obj, "main", &[], true);
    let n1 = b.var(main, "n1");
    let n2 = b.var(main, "n2");
    let got = b.var(main, "got");
    b.alloc(main, n1, node);
    b.alloc(main, n2, node);
    b.specialcall(main, None, n1, init, &[n2]);
    b.scall(main, Some(got), helper, &[n1]);
    let loaded = b.var(main, "loaded");
    b.load(main, loaded, got, next);
    b.entry(main);
    b.finish()
}

/// Mutual recursion through virtual calls.
fn recursion_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let ping = b.class("Ping", Some(obj));
    let pong = b.class("Pong", Some(obj));
    let pf = b.field(obj, "peer");
    let ping_go = b.method(ping, "go", &["depth"], false);
    let pong_go = b.method(pong, "go", &["depth"], false);
    {
        let this = b.this(ping_go);
        let peer = b.var(ping_go, "peer");
        let arg = b.param(ping_go, 0);
        b.load(ping_go, peer, this, pf);
        b.vcall(ping_go, None, peer, "go", &[arg]);
    }
    {
        let this = b.this(pong_go);
        let peer = b.var(pong_go, "peer");
        let arg = b.param(pong_go, 0);
        b.load(pong_go, peer, this, pf);
        b.vcall(pong_go, None, peer, "go", &[arg]);
    }
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let d = b.var(main, "d");
    b.alloc(main, a, ping);
    b.alloc(main, c, pong);
    b.alloc(main, d, obj);
    b.store(main, a, pf, c);
    b.store(main, c, pf, a);
    b.vcall(main, None, a, "go", &[d]);
    b.entry(main);
    b.finish()
}

/// Static fields crossing method and context boundaries.
fn globals_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let g1 = b.global(obj, "shared");
    let g2 = b.global(obj, "other");
    let writer = b.method(obj, "writer", &["x"], true);
    {
        let x = b.param(writer, 0);
        b.store_global(writer, g1, x);
        let t = b.var(writer, "t");
        b.load_global(writer, t, g2);
        b.store_global(writer, g2, t);
    }
    let reader = b.method(obj, "reader", &[], true);
    {
        let r = b.var(reader, "r");
        b.load_global(reader, r, g1);
        b.store_global(reader, g2, r);
        b.ret(reader, r);
    }
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let out = b.var(main, "out");
    b.alloc(main, a, obj);
    b.alloc(main, c, obj);
    b.scall(main, None, writer, &[a]);
    b.scall(main, None, writer, &[c]);
    b.scall(main, Some(out), reader, &[]);
    b.entry(main);
    b.finish()
}

fn fixtures() -> Vec<(&'static str, Program)> {
    vec![
        ("identity", identity_program()),
        ("boxes", boxes_program()),
        ("constructors", constructors_program()),
        ("recursion", recursion_program()),
        ("globals", globals_program()),
    ]
}

// ------------------------------------------------------------------- tests

#[test]
fn solver_matches_model_insensitive() {
    for (name, p) in fixtures() {
        eprintln!("fixture {name}");
        check_flavor(&p, &Insensitive);
    }
}

#[test]
fn solver_matches_model_call_site_depths() {
    for (name, p) in fixtures() {
        for (k, hk) in [(1, 0), (1, 1), (2, 1)] {
            eprintln!("fixture {name} {k}call+{hk}");
            check_flavor(&p, &CallSiteSensitive::new(k, hk));
        }
    }
}

#[test]
fn solver_matches_model_object_sensitive_depths() {
    for (name, p) in fixtures() {
        for (k, hk) in [(1, 0), (1, 1), (2, 1), (2, 2)] {
            eprintln!("fixture {name} {k}obj+{hk}");
            check_flavor(&p, &ObjectSensitive::new(k, hk));
        }
    }
}

#[test]
fn solver_matches_model_type_sensitive() {
    for (name, p) in fixtures() {
        for (k, hk) in [(1, 1), (2, 1)] {
            eprintln!("fixture {name} {k}type+{hk}");
            let policy = TypeSensitive::new(k, hk, &p);
            check_flavor(&p, &policy);
        }
    }
}

#[test]
fn solver_matches_model_introspective_object_exclusions() {
    for (name, p) in fixtures() {
        eprintln!("fixture {name}");
        // Exclude the first allocation site from refinement.
        let objs = [AllocId(0)];
        let o = ObjectSensitive::new(2, 1);
        check_introspective(&p, &o, &objs, &[], &[]);
    }
}

#[test]
fn solver_matches_model_introspective_site_exclusions() {
    for (name, p) in fixtures() {
        if p.invokes.is_empty() {
            continue;
        }
        eprintln!("fixture {name}");
        let invs = [InvokeId(0)];
        let c = CallSiteSensitive::new(2, 1);
        check_introspective(&p, &c, &[], &invs, &[]);
    }
}

#[test]
fn solver_matches_model_introspective_method_exclusions() {
    for (name, p) in fixtures() {
        eprintln!("fixture {name}");
        // Exclude method 1 (some callee in every fixture).
        let meths = [MethodId(1)];
        let t = TypeSensitive::new(2, 1, &p);
        check_introspective(&p, &t, &[], &[], &meths);
    }
}

#[test]
fn solver_matches_model_introspective_mixed_exclusions() {
    for (name, p) in fixtures() {
        eprintln!("fixture {name}");
        let objs: Vec<AllocId> = p.allocs.ids().step_by(2).collect();
        let invs: Vec<InvokeId> = p.invokes.ids().step_by(2).collect();
        let meths = [MethodId(0)];
        let o = ObjectSensitive::new(2, 1);
        check_introspective(&p, &o, &objs, &invs, &meths);
    }
}
