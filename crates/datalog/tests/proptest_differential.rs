//! Property-style differential testing: on seeded randomly generated
//! programs the optimized solver and the executable Datalog model of the
//! paper's Figures 2–3 must agree exactly — for the insensitive analysis, a
//! deep object-sensitive analysis, and introspective mixes with random
//! exclusion sets.

use rudoop_core::context::ContextElem;
use rudoop_core::policy::{
    ContextPolicy, Insensitive, Introspective, ObjectSensitive, RefinementSet,
};
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_datalog::run_model;
use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::rng::SplitMix64;
use rudoop_ir::{ClassHierarchy, Idx, Program};

const CASES: u64 = 32;

type Tuples = Vec<(u32, Vec<ContextElem>, u32, Vec<ContextElem>)>;

fn small_shape() -> ProgramShape {
    // The Datalog model is a reference implementation, not a fast one;
    // keep the programs small so each case finishes in milliseconds.
    ProgramShape {
        max_classes: 4,
        max_fields: 2,
        max_globals: 2,
        max_methods: 4,
        max_body: 7,
    }
}

fn solver_tuples(p: &Program, policy: &dyn ContextPolicy) -> (Tuples, Tuples) {
    let h = ClassHierarchy::new(p);
    let config = SolverConfig {
        record_contexts: true,
        ..SolverConfig::default()
    };
    let r = analyze(p, &h, policy, &config);
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    let dump = r.cs_dump.unwrap_or_default();
    let t = &r.tables;
    let mut vpt: Tuples = dump
        .var_points_to()
        .map(|(v, c, hp, hc)| {
            (
                v.0,
                t.ctx_elems(c).to_vec(),
                hp.0,
                t.hctx_elems(hc).to_vec(),
            )
        })
        .collect();
    vpt.sort();
    vpt.dedup();
    let mut cg: Tuples = dump
        .call_graph()
        .map(|(i, c1, m, c2)| (i.0, t.ctx_elems(c1).to_vec(), m.0, t.ctx_elems(c2).to_vec()))
        .collect();
    cg.sort();
    cg.dedup();
    (vpt, cg)
}

fn model_tuples(
    p: &Program,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> (Tuples, Tuples) {
    let h = ClassHierarchy::new(p);
    let m = run_model(p, &h, &Insensitive, refined, refinement).unwrap();
    let t = &m.tables;
    let mut vpt: Tuples = m
        .var_points_to
        .iter()
        .map(|&(v, c, hp, hc)| {
            (
                v.0,
                t.ctx_elems(c).to_vec(),
                hp.0,
                t.hctx_elems(hc).to_vec(),
            )
        })
        .collect();
    vpt.sort();
    vpt.dedup();
    let mut cg: Tuples = m
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
    cg.sort();
    cg.dedup();
    (vpt, cg)
}

#[test]
fn solver_equals_model_insensitive() {
    for seed in 0..CASES {
        let p = generate(&small_shape(), seed);
        let refine_all = RefinementSet::refine_all(&p);
        let solver = solver_tuples(&p, &Insensitive);
        let model = model_tuples(&p, &Insensitive, &refine_all);
        assert_eq!(solver, model, "seed {seed}");
    }
}

#[test]
fn solver_equals_model_2objh() {
    for seed in 0..CASES {
        let p = generate(&small_shape(), seed);
        let refine_all = RefinementSet::refine_all(&p);
        let policy = ObjectSensitive::new(2, 1);
        let solver = solver_tuples(&p, &policy);
        let model = model_tuples(&p, &policy, &refine_all);
        assert_eq!(solver, model, "seed {seed}");
    }
}

#[test]
fn solver_equals_model_random_introspection() {
    for seed in 0..CASES {
        let p = generate(&small_shape(), seed);
        // Independent mask stream so program shape and exclusion choice
        // vary independently of each other.
        let mut masks = SplitMix64::new(seed ^ 0xdead_beef);
        let (obj_mask, meth_mask) = (masks.next_u64(), masks.next_u64());
        let mut refinement = RefinementSet::refine_all(&p);
        for a in p.allocs.ids() {
            if obj_mask & (1 << (a.index() % 64)) != 0 {
                refinement.no_refine_objects.insert(a);
            }
        }
        for m in p.methods.ids() {
            if meth_mask & (1 << (m.index() % 64)) != 0 {
                refinement.no_refine_methods.insert(m);
            }
        }
        let refined = ObjectSensitive::new(2, 1);
        let model = model_tuples(&p, &refined, &refinement);
        let policy = Introspective::new(Insensitive, refined, refinement, "prop");
        let solver = solver_tuples(&p, &policy);
        assert_eq!(solver, model, "seed {seed}");
    }
}
