//! Call-graph condensation: the method SCC DAG of a program.
//!
//! The summary-based compositional engine (`rudoop-core`'s `summaries`
//! module) schedules its bottom-up pass over the strongly connected
//! components of a *static* call graph: a conservative CHA
//! over-approximation of every call graph any points-to analysis can
//! discover. Virtual sites contribute an edge to every implementation of
//! the called signature anywhere in the hierarchy; special and static
//! sites contribute their one resolved target. The implementations come
//! from a per-signature table built with one dispatch lookup per declared
//! method, so the graph costs in proportion to the methods and edges, not
//! to virtual sites × classes. Over-approximation is safe
//! here — an extra edge only merges schedule units, it never lets a callee
//! be summarized after a caller that needs it.
//!
//! Everything in this module is deterministic: callee lists are sorted and
//! deduplicated, Tarjan's algorithm runs iteratively over methods in table
//! order, and component ids are emitted callees-first — so component `0`
//! has no callees outside itself and iterating components in id order *is*
//! the reverse-topological (bottom-up) schedule.

use crate::hierarchy::ClassHierarchy;
use crate::ids::{IdxVec, MethodId, SigId};
use crate::program::{InvokeKind, Program};

/// The conservative (CHA) static call graph: per method, its possible
/// callees, sorted and deduplicated.
#[derive(Debug, Clone)]
pub struct StaticCallGraph {
    /// Callees of each method (sorted, deduplicated).
    pub callees: IdxVec<MethodId, Vec<MethodId>>,
    /// Total edges, for stats.
    pub edge_count: usize,
}

impl StaticCallGraph {
    /// Builds the CHA call graph of `program`: virtual sites resolve to
    /// every implementation of their signature in the hierarchy, special
    /// and static sites to their single target.
    ///
    /// Any class's dispatch answer for a signature is also the answer in
    /// the class that declares it, so the implementations of `sig` are
    /// exactly the non-static methods `m` declared in a class `K` with
    /// `hierarchy.lookup(K, sig) == Some(m)`. That table is built first,
    /// with one lookup per declared method; each virtual site then copies
    /// its signature's row. The result equals [`naive_call_graph`], which
    /// asks every class at every virtual site.
    pub fn build(program: &Program, hierarchy: &ClassHierarchy) -> StaticCallGraph {
        let mut targets: Vec<Vec<MethodId>> = vec![Vec::new(); program.sigs.len()];
        for (cid, class) in program.classes.iter() {
            for &m in &class.methods {
                let sig = program.methods[m].sig;
                if hierarchy.lookup(cid, sig) == Some(m) {
                    targets[sig.0 as usize].push(m);
                }
            }
        }
        // A caller's repeated sites of one signature add the same row: copy
        // it once per run of such sites (`last` holds the caller that took
        // the row last).
        let mut last = vec![u32::MAX; targets.len()];
        StaticCallGraph::from_sites(program, |caller, sig, out| {
            let i = sig.0 as usize;
            if i < targets.len() && last[i] != caller.0 {
                last[i] = caller.0;
                out.extend_from_slice(&targets[i]);
            }
        })
    }

    /// Collects every invoke's targets into its caller's list, virtual
    /// sites through `virtual_targets(caller, sig, list)`; then sorts and
    /// deduplicates.
    fn from_sites(
        program: &Program,
        mut virtual_targets: impl FnMut(MethodId, SigId, &mut Vec<MethodId>),
    ) -> StaticCallGraph {
        let mut callees: IdxVec<MethodId, Vec<MethodId>> =
            (0..program.methods.len()).map(|_| Vec::new()).collect();
        for inv in program.invokes.values() {
            let out = &mut callees[inv.method];
            match inv.kind {
                InvokeKind::Virtual { sig, .. } => virtual_targets(inv.method, sig, out),
                InvokeKind::Special { target, .. } | InvokeKind::Static { target } => {
                    out.push(target);
                }
            }
        }
        let mut edge_count = 0;
        for out in callees.values_mut() {
            out.sort_unstable();
            out.dedup();
            edge_count += out.len();
        }
        StaticCallGraph {
            callees,
            edge_count,
        }
    }
}

/// Naive reference CHA call graph: every virtual site asks every class for
/// its dispatch answer, one hash lookup per class. Exists only so tests can
/// check [`StaticCallGraph::build`] against the definition.
pub fn naive_call_graph(program: &Program, hierarchy: &ClassHierarchy) -> StaticCallGraph {
    StaticCallGraph::from_sites(program, |_, sig, out| {
        out.extend(
            program
                .classes
                .ids()
                .filter_map(|cid| hierarchy.lookup(cid, sig)),
        );
    })
}

/// The condensation of the static call graph: methods grouped into
/// strongly connected components, with component ids numbered in
/// reverse-topological (callees-first) order.
#[derive(Debug, Clone)]
pub struct SccDag {
    /// Component of each method.
    pub component: IdxVec<MethodId, u32>,
    /// Members of each component, sorted by method id. Indexing by
    /// component id in ascending order visits callees before callers.
    pub members: Vec<Vec<MethodId>>,
    /// Callee components of each component (sorted, deduplicated,
    /// self-edges removed). Acyclic by construction.
    pub callee_comps: Vec<Vec<u32>>,
    /// Whether each component contains a cycle: more than one member, or a
    /// single member that calls itself.
    pub cyclic: Vec<bool>,
}

impl SccDag {
    /// Condenses the CHA call graph of `program`.
    pub fn build(program: &Program, hierarchy: &ClassHierarchy) -> SccDag {
        SccDag::from_graph(&StaticCallGraph::build(program, hierarchy))
    }

    /// Condenses an explicit call graph (exposed for property tests that
    /// compare against the naive reference on arbitrary graphs).
    pub fn from_graph(graph: &StaticCallGraph) -> SccDag {
        let n = graph.callees.len();
        let mut component: IdxVec<MethodId, u32> = (0..n).map(|_| u32::MAX).collect();
        let mut members: Vec<Vec<MethodId>> = Vec::new();

        // Iterative Tarjan. Methods are visited in table order, so indices,
        // lowlinks, and the emission order of components are all pure
        // functions of the graph. With edges pointing caller → callee, a
        // component is emitted only after every component it reaches, so
        // emission order is exactly the bottom-up schedule.
        const UNVISITED: u32 = u32::MAX;
        let mut index: Vec<u32> = vec![UNVISITED; n];
        let mut lowlink: Vec<u32> = vec![0; n];
        let mut on_stack: Vec<bool> = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        // Call-stack frames: (node, cursor into its callee list).
        let mut frames: Vec<(u32, usize)> = Vec::new();

        for start in 0..n as u32 {
            if index[start as usize] != UNVISITED {
                continue;
            }
            frames.push((start, 0));
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                let out = &graph.callees[MethodId(v)];
                if *cursor < out.len() {
                    let w = out[*cursor].0;
                    *cursor += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        frames.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        // v is the root of a component: pop it off.
                        let comp_id = members.len() as u32;
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w as usize] = false;
                            component[MethodId(w)] = comp_id;
                            comp.push(MethodId(w));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        members.push(comp);
                    }
                }
            }
        }

        // Condensed edges and cyclicity.
        let ncomp = members.len();
        let mut callee_comps: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
        let mut cyclic: Vec<bool> = members.iter().map(|m| m.len() > 1).collect();
        for (comp_id, comp) in members.iter().enumerate() {
            for &m in comp {
                for &callee in &graph.callees[m] {
                    let cc = component[callee];
                    if cc as usize == comp_id {
                        cyclic[comp_id] = true;
                    } else {
                        callee_comps[comp_id].push(cc);
                    }
                }
            }
            callee_comps[comp_id].sort_unstable();
            callee_comps[comp_id].dedup();
        }

        SccDag {
            component,
            members,
            callee_comps,
            cyclic,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the program has no methods at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Component ids in bottom-up (reverse-topological) order — by
    /// construction simply `0..len()`.
    pub fn bottom_up(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.len() as u32
    }
}

/// Naive reference SCC computation: two methods share a component iff each
/// reaches the other through call edges (every method reaches itself).
/// Quadratic; exists only so property tests can check [`SccDag`]'s
/// membership against an implementation with no shared code.
pub fn naive_components(graph: &StaticCallGraph) -> Vec<Vec<MethodId>> {
    let n = graph.callees.len();
    let reach = |from: MethodId| -> Vec<bool> {
        let mut seen = vec![false; n];
        seen[from.0 as usize] = true;
        let mut work = vec![from];
        while let Some(v) = work.pop() {
            for &w in &graph.callees[v] {
                if !seen[w.0 as usize] {
                    seen[w.0 as usize] = true;
                    work.push(w);
                }
            }
        }
        seen
    };
    let reaches: Vec<Vec<bool>> = (0..n).map(|i| reach(MethodId(i as u32))).collect();
    let mut assigned = vec![false; n];
    let mut comps = Vec::new();
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let mut comp = Vec::new();
        for j in i..n {
            if !assigned[j] && reaches[i][j] && reaches[j][i] {
                assigned[j] = true;
                comp.push(MethodId(j as u32));
            }
        }
        comps.push(comp);
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// main → a ⇄ b → c, with c a leaf.
    fn cyclic_fixture() -> (Program, [MethodId; 4]) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.method(obj, "a", &[], true);
        let bm = b.method(obj, "b", &[], true);
        let c = b.method(obj, "c", &[], true);
        let main = b.method(obj, "main", &[], true);
        b.scall(main, None, a, &[]);
        b.scall(a, None, bm, &[]);
        b.scall(bm, None, a, &[]);
        b.scall(bm, None, c, &[]);
        b.entry(main);
        (b.finish(), [main, a, bm, c])
    }

    #[test]
    fn mutual_recursion_condenses_to_one_component() {
        let (p, [main, a, bm, c]) = cyclic_fixture();
        let h = ClassHierarchy::new(&p);
        let dag = SccDag::build(&p, &h);
        assert_eq!(dag.component[a], dag.component[bm]);
        assert_ne!(dag.component[a], dag.component[c]);
        assert_ne!(dag.component[a], dag.component[main]);
        assert!(dag.cyclic[dag.component[a] as usize]);
        assert!(!dag.cyclic[dag.component[c] as usize]);
        // Bottom-up: c before {a,b} before main.
        assert!(dag.component[c] < dag.component[a]);
        assert!(dag.component[a] < dag.component[main]);
    }

    #[test]
    fn self_call_is_cyclic_singleton() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let f = b.method(obj, "f", &[], true);
        b.scall(f, None, f, &[]);
        b.entry(f);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let dag = SccDag::build(&p, &h);
        assert_eq!(dag.len(), 1);
        assert!(dag.cyclic[0]);
    }

    #[test]
    fn virtual_sites_edge_to_every_override() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let bb = b.class("B", Some(a));
        let fa = b.method(a, "f", &[], false);
        let fb = b.method(bb, "f", &[], false);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, a);
        b.vcall(main, None, x, "f", &[]);
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        assert_eq!(g.callees[main], vec![fa, fb]);
    }

    /// Object ← A ← B, Object ← C, Object ← D, all with an `f/0`: `B.f`
    /// overrides `A.f`, `C.f` is static, and `D` declares `f` twice;
    /// `main` and `helper` call `f` at interleaved virtual sites.
    #[test]
    fn virtual_targets_are_the_dispatch_winners() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let bb = b.class("B", Some(a));
        let c = b.class("C", Some(obj));
        let d = b.class("D", Some(obj));
        let fa = b.method(a, "f", &[], false);
        let fb = b.method(bb, "f", &[], false);
        b.method(c, "f", &[], true);
        b.method(d, "f", &[], false);
        let fd = b.method(d, "f", &[], false);
        let main = b.method(obj, "main", &[], true);
        let helper = b.method(obj, "helper", &[], true);
        let x = b.var(main, "x");
        let y = b.var(helper, "y");
        b.alloc(main, x, a);
        b.alloc(helper, y, a);
        b.vcall(main, None, x, "f", &[]);
        b.vcall(helper, None, y, "f", &[]);
        b.vcall(main, None, x, "f", &[]);
        b.scall(main, None, helper, &[]);
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        // The static method is no target; of D's two, only the one its
        // dispatch table keeps is.
        assert_eq!(g.callees[main], vec![fa, fb, fd, helper]);
        assert_eq!(g.callees[helper], vec![fa, fb, fd]);
        let naive = naive_call_graph(&p, &h);
        assert_eq!(g.callees, naive.callees);
        assert_eq!(g.edge_count, naive.edge_count);
    }

    #[test]
    fn naive_reference_agrees_on_fixture() {
        let (p, _) = cyclic_fixture();
        let h = ClassHierarchy::new(&p);
        let g = StaticCallGraph::build(&p, &h);
        let dag = SccDag::from_graph(&g);
        let mut tarjan: Vec<Vec<MethodId>> = dag.members.clone();
        tarjan.sort();
        let mut naive = naive_components(&g);
        naive.sort();
        assert_eq!(tarjan, naive);
    }
}
