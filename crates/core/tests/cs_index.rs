//! The clients' canonical fact index, which reads the solver's node sets
//! in place, against a reference that rebuilds it from the dump's tuples
//! the way the clients used to: rank every tuple's contexts by content,
//! group the tuples by `(var, ctx)`, then sort and deduplicate each group.
//! Every reference key's sorted `points_to` must equal its group, and the
//! index must hold exactly as many keys.
//!
//! The reference lives here only. It runs on seeded arbitrary programs
//! under `insens`, `2objH`, `2objH-IntroB` and `cutshortcut`, and on the
//! nine DaCapo-shaped workloads under `insens` and `2objH`, whose points-to
//! sets cover both set forms (small sorted vectors and dense bitsets).

use std::collections::HashMap;

use rudoop_core::context::{CtxId, CtxTables, HCtxId};
use rudoop_core::driver::{analyze_flavor, analyze_introspective, Flavor};
use rudoop_core::heuristics::HeuristicB;
use rudoop_core::solver::{Budget, CsDump, PointsToResult, SolverConfig};
use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::{AllocId, ClassHierarchy, InvokeId, MethodId, Program, VarId};
use rudoop_workloads::dacapo;

/// The three relations of the index, rebuilt from the dump's tuples.
struct Reference {
    vpt: HashMap<(VarId, CtxId), Vec<(AllocId, HCtxId)>>,
    reachable: Vec<(MethodId, CtxId)>,
    call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)>,
}

/// Canonical ranks of the ids marked in `used`: the marked ids ordered by
/// `cmp`, a content order. Unmarked ids get no rank.
fn rank_by_content(used: &[bool], cmp: impl Fn(u32, u32) -> std::cmp::Ordering) -> Vec<u32> {
    let mut order: Vec<u32> = (0..used.len() as u32)
        .filter(|&id| used[id as usize])
        .collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut rank = vec![u32::MAX; used.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    rank
}

fn reference(dump: &CsDump, tables: &CtxTables) -> Reference {
    let mut ctx_used = vec![false; tables.ctx_count()];
    let mut hctx_used = vec![false; tables.hctx_count()];
    for (_, ctx, _, hctx) in dump.var_points_to() {
        ctx_used[ctx.0 as usize] = true;
        hctx_used[hctx.0 as usize] = true;
    }
    for (_, caller, _, callee) in dump.call_graph() {
        ctx_used[caller.0 as usize] = true;
        ctx_used[callee.0 as usize] = true;
    }
    for (_, ctx) in dump.reachable() {
        ctx_used[ctx.0 as usize] = true;
    }
    let ctx_rank = rank_by_content(&ctx_used, |a, b| {
        tables.ctx_elems(CtxId(a)).cmp(tables.ctx_elems(CtxId(b)))
    });
    let hctx_rank = rank_by_content(&hctx_used, |a, b| {
        tables
            .hctx_elems(HCtxId(a))
            .cmp(tables.hctx_elems(HCtxId(b)))
    });
    let ctx = |c: CtxId| CtxId(ctx_rank[c.0 as usize]);

    let mut vpt: HashMap<(VarId, CtxId), Vec<(AllocId, HCtxId)>> = HashMap::new();
    for (var, c, heap, hctx) in dump.var_points_to() {
        vpt.entry((var, ctx(c)))
            .or_default()
            .push((heap, HCtxId(hctx_rank[hctx.0 as usize])));
    }
    for objs in vpt.values_mut() {
        objs.sort_unstable();
        objs.dedup();
    }
    let mut reachable: Vec<_> = dump.reachable().map(|(m, c)| (m, ctx(c))).collect();
    reachable.sort_unstable();
    reachable.dedup();
    let mut call_graph: Vec<_> = dump
        .call_graph()
        .map(|(i, cc, m, ec)| (i, ctx(cc), m, ctx(ec)))
        .collect();
    call_graph.sort_unstable();
    call_graph.dedup();
    Reference {
        vpt,
        reachable,
        call_graph,
    }
}

/// Checks the index of `result` against the reference; returns the sizes
/// of the reference's points-to sets.
fn check(result: &PointsToResult, what: &str) -> Vec<usize> {
    let dump = result.cs_dump.as_ref().expect("contexts are recorded");
    let facts = dump.facts(&result.tables, &None);
    let want = reference(dump, &result.tables);
    assert_eq!(facts.reachable, want.reachable, "{what}: reachable");
    assert_eq!(facts.call_graph, want.call_graph, "{what}: call graph");
    assert_eq!(facts.key_count(), want.vpt.len(), "{what}: vpt keys");
    for (&(var, ctx), objs) in &want.vpt {
        assert_eq!(
            &facts.points_to(var, ctx),
            objs,
            "{what}: vpt at {:?}",
            (var, ctx)
        );
    }
    // A second call reuses the cached index.
    assert!(std::ptr::eq(
        dump.facts(&result.tables, &None).reachable,
        facts.reachable
    ));
    want.vpt.values().map(Vec::len).collect()
}

fn config() -> SolverConfig {
    SolverConfig {
        budget: Budget::derivations(30_000_000),
        record_contexts: true,
        ..SolverConfig::default()
    }
}

fn run(program: &Program, name: &str) -> PointsToResult {
    let hierarchy = ClassHierarchy::new(program);
    if name == "2objH-IntroB" {
        return analyze_introspective(
            program,
            &hierarchy,
            Flavor::OBJ2H,
            &HeuristicB::default(),
            &config(),
        )
        .result;
    }
    let flavor = Flavor::parse(name).expect("known flavor");
    analyze_flavor(program, &hierarchy, flavor, &config())
}

#[test]
fn index_matches_the_tuple_reference_on_arbitrary_programs() {
    for seed in 0..64 {
        let program = generate(&ProgramShape::default(), seed);
        for flavor in ["insens", "2objH", "2objH-IntroB", "cutshortcut"] {
            check(&run(&program, flavor), &format!("seed {seed} {flavor}"));
        }
    }
}

/// Checks every DaCapo-shaped workload under `flavor`, asserting that
/// both set forms occur: up to 32 objects a set is a sorted vector, past
/// that a bitset.
fn check_dacapo(flavor: &str) {
    let mut sizes = Vec::new();
    for spec in dacapo::all_nine() {
        let program = spec.build();
        let what = format!("{} {flavor}", spec.name);
        sizes.extend(check(&run(&program, flavor), &what));
    }
    assert!(sizes.iter().any(|&n| n <= 32), "{flavor}: no small set");
    assert!(sizes.iter().any(|&n| n > 32), "{flavor}: no dense set");
}

#[test]
fn index_matches_the_tuple_reference_on_the_dacapo_workloads_insens() {
    check_dacapo("insens");
}

#[test]
fn index_matches_the_tuple_reference_on_the_dacapo_workloads_2objh() {
    check_dacapo("2objH");
}
