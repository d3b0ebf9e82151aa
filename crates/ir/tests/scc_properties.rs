//! Seeded property tests for the call-graph condensation layer.
//!
//! Each property runs over generated programs (pure functions of their
//! seed, so failures reproduce from the seed alone): the condensation is a
//! DAG, component ids are a stable reverse-topological order, two builds
//! are identical, membership agrees with the naive quadratic reference
//! implementation, and the CHA call graph equals the per-class reference.

use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::{
    naive_call_graph, naive_components, ClassHierarchy, MethodId, SccDag, StaticCallGraph,
};

const SEEDS: u64 = 48;

fn shape() -> ProgramShape {
    ProgramShape {
        max_methods: 10,
        ..ProgramShape::default()
    }
}

#[test]
fn condensation_is_a_dag_in_reverse_topological_order() {
    for seed in 0..SEEDS {
        let p = generate(&shape(), seed);
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        let dag = SccDag::from_graph(&g);
        // Every cross-component call edge points at a smaller component id:
        // ascending ids are exactly the bottom-up schedule, and no id order
        // can exist for a cyclic condensation — DAG-ness and stable
        // reverse-topological order in one check.
        for (m, callees) in g.callees.iter() {
            for &callee in callees {
                if dag.component[m] != dag.component[callee] {
                    assert!(
                        dag.component[callee] < dag.component[m],
                        "seed {seed}: edge {:?} -> {:?} not bottom-up",
                        m,
                        callee
                    );
                }
            }
        }
        for (c, comps) in dag.callee_comps.iter().enumerate() {
            for &cc in comps {
                assert!((cc as usize) < c, "seed {seed}: condensed edge not topo");
            }
        }
    }
}

#[test]
fn condensation_is_deterministic() {
    for seed in 0..SEEDS {
        let p = generate(&shape(), seed);
        let h = ClassHierarchy::new(&p);
        let a = SccDag::build(&p, &h);
        let b = SccDag::build(&p, &h);
        assert_eq!(a.component, b.component, "seed {seed}");
        assert_eq!(a.members, b.members, "seed {seed}");
        assert_eq!(a.callee_comps, b.callee_comps, "seed {seed}");
        assert_eq!(a.cyclic, b.cyclic, "seed {seed}");
    }
}

#[test]
fn every_method_is_in_exactly_one_component() {
    for seed in 0..SEEDS {
        let p = generate(&shape(), seed);
        let h = ClassHierarchy::new(&p);
        let dag = SccDag::build(&p, &h);
        let mut seen = vec![0u32; p.methods.len()];
        for (c, comp) in dag.members.iter().enumerate() {
            assert!(!comp.is_empty(), "seed {seed}: empty component");
            let mut sorted = comp.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, comp, "seed {seed}: members not sorted");
            for &m in comp {
                assert_eq!(dag.component[m], c as u32, "seed {seed}");
                seen[m.0 as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "seed {seed}: not a partition");
    }
}

#[test]
fn membership_agrees_with_naive_reference() {
    for seed in 0..SEEDS {
        let p = generate(&shape(), seed);
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        let dag = SccDag::from_graph(&g);
        let mut tarjan: Vec<Vec<MethodId>> = dag.members.clone();
        tarjan.sort();
        let mut naive = naive_components(&g);
        for comp in &mut naive {
            comp.sort_unstable();
        }
        naive.sort();
        assert_eq!(tarjan, naive, "seed {seed}");
    }
}

#[test]
fn cyclic_flag_matches_reachability() {
    for seed in 0..SEEDS {
        let p = generate(&shape(), seed);
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        let dag = SccDag::from_graph(&g);
        for (c, comp) in dag.members.iter().enumerate() {
            let has_internal_edge = comp.iter().any(|&m| {
                g.callees[m]
                    .iter()
                    .any(|&callee| dag.component[callee] as usize == c)
            });
            assert_eq!(dag.cyclic[c], has_internal_edge, "seed {seed} comp {c}");
        }
    }
}

#[test]
fn call_graph_agrees_with_per_class_reference() {
    for seed in 0..64 {
        let p = generate(&ProgramShape::default(), seed);
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        let naive = naive_call_graph(&p, &h);
        assert_eq!(g.callees, naive.callees, "seed {seed}");
        assert_eq!(g.edge_count, naive.edge_count, "seed {seed}");
    }
}
