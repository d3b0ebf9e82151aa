//! Solver edge cases beyond the unit suite: special calls, dead dispatch,
//! argument-arity clamping, duration budgets, heap-context depth, and the
//! interaction of introspective policies with special/static calls.

use std::time::Duration;

use rudoop_core::policy::{
    CallSiteSensitive, ContextPolicy, Insensitive, Introspective, ObjectSensitive, RefinementSet,
};
use rudoop_core::solver::{analyze, Budget, SolverConfig};
use rudoop_core::{CtxTables, HCtxId};
use rudoop_ir::{ClassHierarchy, Program, ProgramBuilder};

fn run(p: &Program, policy: &dyn ContextPolicy) -> rudoop_core::PointsToResult {
    let h = ClassHierarchy::new(p);
    analyze(p, &h, policy, &SolverConfig::default())
}

/// Special (constructor-style) calls bind `this` and flow arguments.
#[test]
fn special_calls_bind_this_and_arguments() {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let node = b.class("Node", Some(obj));
    let f = b.field(node, "next");
    let init = b.method(node, "init", &["n"], false);
    {
        let this = b.this(init);
        let n = b.param(init, 0);
        b.store(init, this, f, n);
    }
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let out = b.var(main, "out");
    b.alloc(main, a, node);
    let hc = b.alloc(main, c, node);
    b.specialcall(main, None, a, init, &[c]);
    b.load(main, out, a, f);
    b.entry(main);
    let p = b.finish();
    let r = run(&p, &Insensitive);
    assert_eq!(r.points_to(out), &[hc]);
}

/// A virtual call whose receiver class has no matching method is dead
/// dispatch: no edge, no crash, no reachability.
#[test]
fn dead_dispatch_is_silently_dropped() {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let a = b.class("A", Some(obj));
    let other = b.class("Other", Some(obj));
    let m = b.method(other, "only_on_other", &[], false);
    let main = b.method(obj, "main", &[], true);
    let x = b.var(main, "x");
    b.alloc(main, x, a);
    b.vcall(main, None, x, "only_on_other", &[]);
    b.entry(main);
    let p = b.finish();
    let r = run(&p, &Insensitive);
    assert!(r.outcome.is_complete());
    assert!(!r.reachable_methods.contains(m));
}

/// Wall-clock budgets terminate runs (can't assert exhaustion on a fast
/// machine, but the configuration path must work and complete programs
/// must still complete).
#[test]
fn duration_budget_is_accepted() {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let main = b.method(obj, "main", &[], true);
    let x = b.var(main, "x");
    b.alloc(main, x, obj);
    b.entry(main);
    let p = b.finish();
    let h = ClassHierarchy::new(&p);
    let config = SolverConfig {
        budget: Budget::duration(Duration::from_secs(60)),
        ..SolverConfig::default()
    };
    let r = analyze(&p, &h, &Insensitive, &config);
    assert!(r.outcome.is_complete());
}

/// Heap-context depth beyond 1 separates objects allocated by the same
/// site under different allocator contexts.
#[test]
fn deep_heap_contexts_distinguish_allocator_chains() {
    // wrapper.make() allocates an Inner; wrappers come from two sites.
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let wrapper = b.class("Wrapper", Some(obj));
    let inner = b.class("Inner", Some(obj));
    let make = b.method(wrapper, "make", &[], false);
    {
        let r = b.var(make, "r");
        b.alloc(make, r, inner);
        b.ret(make, r);
    }
    let main = b.method(obj, "main", &[], true);
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    let i1 = b.var(main, "i1");
    let i2 = b.var(main, "i2");
    b.alloc(main, w1, wrapper);
    b.alloc(main, w2, wrapper);
    b.vcall(main, Some(i1), w1, "make", &[]);
    b.vcall(main, Some(i2), w2, "make", &[]);
    b.entry(main);
    let p = b.finish();
    let h = ClassHierarchy::new(&p);
    let config = SolverConfig {
        record_contexts: true,
        ..SolverConfig::default()
    };
    let r = analyze(&p, &h, &ObjectSensitive::new(1, 1), &config);
    // The Inner allocations should carry two distinct heap contexts (one
    // per wrapper), visible in the context-sensitive dump.
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    let dump = r.cs_dump.unwrap_or_default();
    let inner_hctxs: std::collections::BTreeSet<HCtxId> = dump
        .var_points_to()
        .filter(|&(v, _, _, _)| v == i1 || v == i2)
        .map(|(_, _, _, hc)| hc)
        .collect();
    assert_eq!(inner_hctxs.len(), 2, "one heap context per wrapper");
}

/// Introspective refinement decisions apply to special and static calls
/// exactly as to virtual ones.
#[test]
fn introspective_exclusion_covers_special_and_static_calls() {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let helper = b.method(obj, "helper", &["x"], true);
    {
        let x = b.param(helper, 0);
        b.ret(helper, x);
    }
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let c = b.var(main, "c");
    let r1 = b.var(main, "r1");
    let r2 = b.var(main, "r2");
    let h1 = b.alloc(main, a, obj);
    let h2 = b.alloc(main, c, obj);
    b.scall(main, Some(r1), helper, &[a]);
    b.scall(main, Some(r2), helper, &[c]);
    b.entry(main);
    let p = b.finish();

    // Excluding the helper method collapses both call sites even under a
    // call-site-sensitive refined policy.
    let mut refinement = RefinementSet::refine_all(&p);
    refinement.no_refine_methods.insert(helper);
    let policy = Introspective::new(Insensitive, CallSiteSensitive::new(2, 1), refinement, "t");
    let r = run(&p, &policy);
    assert_eq!(r.points_to(r1), &[h1, h2], "collapsed like insens");
    assert_eq!(r.points_to(r2), &[h1, h2]);

    // With everything refined, the two sites separate.
    let policy = Introspective::new(
        Insensitive,
        CallSiteSensitive::new(2, 1),
        RefinementSet::refine_all(&p),
        "t",
    );
    let r = run(&p, &policy);
    assert_eq!(r.points_to(r1), &[h1]);
    assert_eq!(r.points_to(r2), &[h2]);
}

/// Context tables deduplicate across policies sharing a run.
#[test]
fn context_tables_shared_between_default_and_refined() {
    let mut tables = CtxTables::new();
    let refined = CallSiteSensitive::new(2, 1);
    let c1 = refined.merge_static(
        &mut tables,
        rudoop_ir::InvokeId(3),
        rudoop_ir::MethodId(0),
        rudoop_core::CtxId::EMPTY,
    );
    let c2 = refined.merge_static(
        &mut tables,
        rudoop_ir::InvokeId(3),
        rudoop_ir::MethodId(0),
        rudoop_core::CtxId::EMPTY,
    );
    assert_eq!(c1, c2);
    assert_eq!(tables.ctx_count(), 2); // empty + one interned
}

/// Self-move and self-edges are harmless.
#[test]
fn self_moves_do_not_loop() {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let main = b.method(obj, "main", &[], true);
    let x = b.var(main, "x");
    b.mov(main, x, x);
    b.alloc(main, x, obj);
    b.mov(main, x, x);
    b.entry(main);
    let p = b.finish();
    let r = run(&p, &Insensitive);
    assert!(r.outcome.is_complete());
    assert_eq!(r.points_to(x).len(), 1);
}
