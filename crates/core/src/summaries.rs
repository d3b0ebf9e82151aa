//! The summary-based compositional engine: bottom-up SCC summaries.
//!
//! PAPERS.md's *Hybrid Inlining* computes, for each method, a distilled
//! transfer function once — bottom-up over the call-graph SCC DAG — and
//! instantiates it at every call site, instead of re-analyzing the body
//! under c cloned contexts the way 2objH does. This module is that
//! pre-analysis for the `summaries` [`crate::driver::Flavor`]: it distills
//! each method's *return behavior* into a small atom language and the
//! solver replaces the conflating `ret → result` interprocedural edge with
//! per-call-site instantiations of the atoms.
//!
//! The summary language ([`SummaryAtom`]) says where the values a method
//! returns come from:
//!
//! - `ParamToRet(m, i)` — from the `i`-th formal parameter of method `m`
//!   (instantiated against the *formal*, i.e. the union over call sites —
//!   see below; `m` is the summarized method itself or, for atoms
//!   inherited through composition, a transitive callee),
//! - `ThisFieldToRet(f)` — from field `f` of the call site's receiver,
//! - `AllocToRet(h)` — from allocation site `h` inside the callee (or a
//!   transitive callee),
//! - `GlobalToRet(g)` — from static field `g`.
//!
//! A method is **distilled** when *every* source of its formal return's
//! backward copy slice is atom-expressible — including results of calls to
//! other distilled methods, whose atoms compose transitively: an inner
//! `ParamToRet(m, j)` is inherited *verbatim*, still pointing at the inner
//! formal. Methods inside one SCC are iterated to a local fixpoint with
//! optimistic initial assumptions (distilled, no atoms): atoms only grow
//! and distilled only flips to fallback, so the iteration terminates at
//! the least fixpoint — exactly the flows realizable in the insensitive
//! closure. Everything else — cast edges, `this` escaping to the return,
//! virtual callees in the slice, non-distilled callees — falls back to the
//! ordinary shared-formal `ret → result` edge, the *hybrid* split of
//! Hybrid Inlining: summaries where they are exact, inlining-style
//! conflated expansion where they are not.
//!
//! Soundness and the chain position (pinned pointwise by the differential
//! suite): every instantiated atom flow is derivable in the insensitive
//! closure, so `pts(summaries) ⊆ pts(insens)`. For the other direction,
//! `pts(2objH) ⊆ pts(summaries)`, the atoms cover every source of the
//! return slice and each atom instantiates *no finer than* `2objH`:
//! `ParamToRet` reads the shared formal (a per-site actual-argument edge
//! would out-precision `2objH` exactly where it conflates call sites —
//! static calls, shared receiver objects). Composition inherits inner
//! `ParamToRet` atoms verbatim for the same reason transitively: `2objH`
//! can conflate the *inner* callee's contexts too, delivering other
//! callers' arguments through an intermediate call, so the composed atom
//! must read the inner formal's full union. `ThisFieldToRet` filters
//! the field read through this site's receiver objects, which `2objH`'s
//! receiver-keyed contexts also separate. The engine's precision over
//! insensitivity therefore comes from the receiver-filtered field atoms —
//! the getter-shortcut idea generalized to any distillable mix of
//! parameter, field, allocation and global sources, composed through
//! statically-bound callees and SCC fixpoints.

use std::collections::BTreeSet;

use rudoop_ir::{
    AllocId, ClassHierarchy, FieldId, FlowGraph, GlobalId, IdxVec, Instruction, InvokeKind,
    MethodId, Program, SccDag, VarId,
};

use crate::hash::FxHashSet;
use crate::telemetry::TelemetryHandle;

/// One distilled source of a method's return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SummaryAtom {
    /// The `i`-th formal parameter of `m` flows to the result
    /// (instantiated against the shared formal, the union over all call
    /// sites). `m` is the summarized method itself for a direct
    /// `return param` slice and a transitive callee for atoms inherited
    /// through composition — the composed atom keeps pointing at the
    /// *inner* formal because that is the conflation point every
    /// context-sensitive flavor can reach (see the module docs).
    ParamToRet(MethodId, usize),
    /// Field `f` of the call site's receiver objects flows to the result.
    ThisFieldToRet(FieldId),
    /// Objects of allocation site `h` flow to the result.
    AllocToRet(AllocId),
    /// The static field `g`'s objects flow to the result.
    GlobalToRet(GlobalId),
}

/// The distilled transfer behavior of one method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Whether the return slice was fully distilled. When `false`, call
    /// sites keep the ordinary `ret → result` edge (hybrid fallback).
    pub distilled: bool,
    /// The atoms, sorted and deduplicated. Empty for a distilled method
    /// means *nothing* flows to its return.
    pub atoms: Vec<SummaryAtom>,
}

/// Size counters of a [`SummaryTable`] — the pass's stats block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Methods in the program.
    pub methods: usize,
    /// Methods with a formal return variable.
    pub methods_with_ret: usize,
    /// Returning methods that were distilled.
    pub distilled: usize,
    /// Returning methods on the hybrid fallback path.
    pub fallback: usize,
    /// `ParamToRet` atoms across all distilled methods.
    pub param_atoms: usize,
    /// `ThisFieldToRet` atoms.
    pub field_atoms: usize,
    /// `AllocToRet` atoms.
    pub alloc_atoms: usize,
    /// `GlobalToRet` atoms.
    pub global_atoms: usize,
    /// Strongly connected components of the static call graph.
    pub sccs: usize,
    /// Components containing a call cycle.
    pub cyclic_sccs: usize,
    /// Largest number of fixpoint rounds any component needed.
    pub max_rounds: usize,
}

impl SummaryStats {
    /// Total atoms across all distilled methods.
    pub fn atoms(&self) -> usize {
        self.param_atoms + self.field_atoms + self.alloc_atoms + self.global_atoms
    }
}

/// The output of the summary pre-analysis: per-method distilled summaries
/// plus pass statistics. A pure function of the program, printed by
/// [`SummaryTable::render`].
#[derive(Debug, Clone, Default)]
pub struct SummaryTable {
    summaries: IdxVec<MethodId, MethodSummary>,
    /// Pass statistics.
    pub stats: SummaryStats,
}

impl SummaryTable {
    /// Runs the bottom-up pass over `program`, one SCC at a time in
    /// reverse-topological order.
    pub fn compute(program: &Program, hierarchy: &ClassHierarchy) -> SummaryTable {
        let flow = FlowGraph::build(program);
        let dag = SccDag::build(program, hierarchy);
        let mut stats = SummaryStats {
            methods: program.methods.len(),
            sccs: dag.len(),
            cyclic_sccs: dag.cyclic.iter().filter(|&&c| c).count(),
            ..SummaryStats::default()
        };
        let mut summaries: IdxVec<MethodId, MethodSummary> = (0..program.methods.len())
            .map(|_| MethodSummary::default())
            .collect();

        for comp in dag.bottom_up() {
            let (solved, rounds) = distill_component(program, &flow, &dag, comp, &summaries);
            stats.max_rounds = stats.max_rounds.max(rounds);
            for (m, s) in solved {
                summaries[m] = s;
            }
        }

        for (mid, s) in summaries.iter() {
            if program.methods[mid].ret.is_none() {
                continue;
            }
            stats.methods_with_ret += 1;
            if s.distilled {
                stats.distilled += 1;
                for atom in &s.atoms {
                    match atom {
                        SummaryAtom::ParamToRet(..) => stats.param_atoms += 1,
                        SummaryAtom::ThisFieldToRet(_) => stats.field_atoms += 1,
                        SummaryAtom::AllocToRet(_) => stats.alloc_atoms += 1,
                        SummaryAtom::GlobalToRet(_) => stats.global_atoms += 1,
                    }
                }
            } else {
                stats.fallback += 1;
            }
        }
        SummaryTable { summaries, stats }
    }

    /// Like [`SummaryTable::compute`], wrapped in a `summaries-pass`
    /// telemetry span with the pass's deterministic counters (all pure
    /// functions of the program).
    pub fn compute_traced(
        program: &Program,
        hierarchy: &ClassHierarchy,
        telemetry: &TelemetryHandle,
    ) -> SummaryTable {
        let span = crate::telemetry::span_opt(telemetry, "summaries-pass");
        let table = SummaryTable::compute(program, hierarchy);
        if let Some(span) = &span {
            span.arg("distilled", table.stats.distilled as u64);
            span.arg("atoms", table.stats.atoms() as u64);
        }
        if let Some(tele) = telemetry.as_deref() {
            let s = &table.stats;
            tele.counter("summaries.distilled", s.distilled as u64);
            tele.counter("summaries.fallback", s.fallback as u64);
            tele.counter("summaries.param_atoms", s.param_atoms as u64);
            tele.counter("summaries.field_atoms", s.field_atoms as u64);
            tele.counter("summaries.alloc_atoms", s.alloc_atoms as u64);
            tele.counter("summaries.global_atoms", s.global_atoms as u64);
            tele.counter("summaries.sccs", s.sccs as u64);
            tele.counter("summaries.cyclic_sccs", s.cyclic_sccs as u64);
        }
        table
    }

    /// The atoms of `method` when it is distilled; `None` means the call
    /// site must keep the ordinary `ret → result` edge.
    #[inline]
    pub fn distilled_atoms(&self, method: MethodId) -> Option<&[SummaryAtom]> {
        self.summaries
            .get(method)
            .filter(|s| s.distilled)
            .map(|s| s.atoms.as_slice())
    }

    /// The full summary of `method`.
    pub fn summary(&self, method: MethodId) -> Option<&MethodSummary> {
        self.summaries.get(method)
    }

    /// Whether no returning method was distilled.
    pub fn is_empty(&self) -> bool {
        self.stats.distilled == 0
    }

    /// A deterministic textual dump of every distilled summary — the
    /// golden-test and `--dump-summaries` format. One line per returning
    /// method, in method-table order, followed by a stats trailer.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        for (mid, s) in self.summaries.iter() {
            if program.methods[mid].ret.is_none() {
                continue;
            }
            if !s.distilled {
                out.push_str(&format!(
                    "fallback {}: ret -> result kept\n",
                    program.method_display(mid)
                ));
                continue;
            }
            let atoms: Vec<String> = s
                .atoms
                .iter()
                .map(|a| match a {
                    SummaryAtom::ParamToRet(m, i) if *m == mid => format!("arg{i}"),
                    SummaryAtom::ParamToRet(m, i) => {
                        format!("arg{i} of {}", program.method_display(*m))
                    }
                    SummaryAtom::ThisFieldToRet(f) => {
                        format!("this.{}", program.fields[*f].name)
                    }
                    SummaryAtom::AllocToRet(h) => {
                        format!("new {}", program.classes[program.allocs[*h].class].name)
                    }
                    SummaryAtom::GlobalToRet(g) => {
                        format!("global {}", program.globals[*g].name)
                    }
                })
                .collect();
            out.push_str(&format!(
                "summary {}: ret = {{{}}}\n",
                program.method_display(mid),
                atoms.join(", ")
            ));
        }
        let s = &self.stats;
        out.push_str(&format!(
            "stats: methods={} with_ret={} distilled={} fallback={} atoms={} \
             (param={} field={} alloc={} global={}) sccs={} cyclic={} max_rounds={}\n",
            s.methods,
            s.methods_with_ret,
            s.distilled,
            s.fallback,
            s.atoms(),
            s.param_atoms,
            s.field_atoms,
            s.alloc_atoms,
            s.global_atoms,
            s.sccs,
            s.cyclic_sccs,
            s.max_rounds,
        ));
        out
    }
}

/// Distills every member of component `comp` to a local fixpoint, reading
/// finalized summaries of earlier components from `table`. Returns the
/// solved members plus the number of fixpoint rounds used.
fn distill_component(
    program: &Program,
    flow: &FlowGraph,
    dag: &SccDag,
    comp: u32,
    table: &IdxVec<MethodId, MethodSummary>,
) -> (Vec<(MethodId, MethodSummary)>, usize) {
    let members = &dag.members[comp as usize];
    // Optimistic initial assumption: every member distilled, no atoms.
    // Atoms only grow and `distilled` only flips off, so this converges on
    // the least fixpoint (see the module docs).
    let mut assume: Vec<(MethodId, MethodSummary)> = members
        .iter()
        .map(|&m| {
            (
                m,
                MethodSummary {
                    distilled: true,
                    atoms: Vec::new(),
                },
            )
        })
        .collect();
    let lookup = |assume: &[(MethodId, MethodSummary)], m: MethodId| -> Option<Vec<SummaryAtom>> {
        if dag.component[m] == comp {
            let s = &assume.iter().find(|&&(am, _)| am == m).expect("member").1;
            s.distilled.then(|| s.atoms.clone())
        } else {
            let s = &table[m];
            s.distilled.then(|| s.atoms.clone())
        }
    };
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for i in 0..assume.len() {
            let (mid, ref current) = assume[i];
            if !current.distilled {
                continue;
            }
            let next = match distill_method(program, flow, mid, |m| lookup(&assume, m)) {
                Some(atoms) => MethodSummary {
                    distilled: true,
                    atoms,
                },
                None => MethodSummary::default(),
            };
            if next != assume[i].1 {
                assume[i].1 = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (assume, rounds)
}

/// Distills one method against the current summary assumptions: the
/// backward copy slice of the formal return, with every source mapped to
/// an atom. Returns `None` when any source is not atom-expressible.
fn distill_method(
    program: &Program,
    flow: &FlowGraph,
    mid: MethodId,
    lookup: impl Fn(MethodId) -> Option<Vec<SummaryAtom>>,
) -> Option<Vec<SummaryAtom>> {
    let method = &program.methods[mid];
    let Some(ret) = method.ret else {
        // Nothing ever flows to callers; trivially distilled.
        return Some(Vec::new());
    };
    let mut atoms: BTreeSet<SummaryAtom> = BTreeSet::new();
    let mut seen: FxHashSet<VarId> = FxHashSet::default();
    let mut work: Vec<VarId> = vec![ret];
    seen.insert(ret);
    while let Some(v) = work.pop() {
        // `this` escaping to the return is not atom-expressible (the atom
        // language has no receiver-identity flow).
        if method.this == Some(v) {
            return None;
        }
        if let Some(i) = method.params.iter().position(|&p| p == v) {
            atoms.insert(SummaryAtom::ParamToRet(mid, i));
            // Fall through: a reassigned parameter also has direct defs.
        }
        for instr in &method.body {
            match *instr {
                Instruction::Alloc { var, alloc } if var == v => {
                    atoms.insert(SummaryAtom::AllocToRet(alloc));
                }
                Instruction::Move { to, from } if to == v && seen.insert(from) => {
                    work.push(from);
                }
                // A cast in the slice is not distilled: under assign-cast
                // filtering the flow is type-dependent, which the atom
                // language cannot express.
                Instruction::Cast { to, .. } if to == v => return None,
                Instruction::Load { to, base, field } if to == v => {
                    if method.this == Some(base) && flow.defs[base] == 0 {
                        atoms.insert(SummaryAtom::ThisFieldToRet(field));
                    } else {
                        return None;
                    }
                }
                Instruction::LoadGlobal { to, global } if to == v => {
                    atoms.insert(SummaryAtom::GlobalToRet(global));
                }
                Instruction::Return { var } if ret == v && seen.insert(var) => {
                    work.push(var);
                }
                Instruction::Call { invoke } => {
                    let inv = &program.invokes[invoke];
                    if inv.result != Some(v) {
                        continue;
                    }
                    // Compose through the callee's atoms. Only exactly
                    // resolved targets compose: a CHA-approximated virtual
                    // target set could inject flows the insensitive
                    // closure never derives, breaking ⊆ insens.
                    let target = match inv.kind {
                        InvokeKind::Special { target, .. } | InvokeKind::Static { target } => {
                            target
                        }
                        InvokeKind::Virtual { .. } => return None,
                    };
                    let inner = lookup(target)?;
                    for atom in inner {
                        match atom {
                            SummaryAtom::ParamToRet(m, j) => {
                                // Inherit verbatim: the composed atom keeps
                                // reading the *inner* formal. Continuing the
                                // slice from this site's actual instead
                                // would out-precision 2objH, which can
                                // conflate the inner callee's contexts and
                                // funnel *other* callers' arguments through
                                // this call — flows a per-site slice never
                                // covers.
                                atoms.insert(SummaryAtom::ParamToRet(m, j));
                            }
                            SummaryAtom::ThisFieldToRet(f) => {
                                // Expressible only when the inner receiver
                                // is our own (never reassigned) `this`.
                                let base = match inv.kind {
                                    InvokeKind::Special { base, .. } => Some(base),
                                    _ => None,
                                }?;
                                if method.this == Some(base) && flow.defs[base] == 0 {
                                    atoms.insert(SummaryAtom::ThisFieldToRet(f));
                                } else {
                                    return None;
                                }
                            }
                            SummaryAtom::AllocToRet(h) => {
                                atoms.insert(SummaryAtom::AllocToRet(h));
                            }
                            SummaryAtom::GlobalToRet(g) => {
                                atoms.insert(SummaryAtom::GlobalToRet(g));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Some(atoms.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::{naive_call_graph, ProgramBuilder, StaticCallGraph};

    /// id(x) { return x }, mk() { return new Box }, get() { return this.val },
    /// gload() { return G }, chain(x) { return id(x) }.
    fn fixture() -> (Program, [MethodId; 5]) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let g = b.global(obj, "G");
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let mk_m = b.method(obj, "mk", &[], true);
        let mv = b.var(mk_m, "t");
        b.alloc(mk_m, mv, box_c);
        b.ret(mk_m, mv);
        let get_m = b.method(box_c, "get", &[], false);
        let get_this = b.this(get_m);
        let gr = b.var(get_m, "r");
        b.load(get_m, gr, get_this, f);
        b.ret(get_m, gr);
        let gl_m = b.method(obj, "gload", &[], true);
        let gv = b.var(gl_m, "t");
        b.load_global(gl_m, gv, g);
        b.ret(gl_m, gv);
        let chain_m = b.method(obj, "chain", &["x"], true);
        let cx = b.param(chain_m, 0);
        let cr = b.var(chain_m, "r");
        b.scall(chain_m, Some(cr), id_m, &[cx]);
        b.ret(chain_m, cr);
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        b.alloc(main, bx, box_c);
        b.scall(main, None, id_m, &[bx]);
        b.entry(main);
        (b.finish(), [id_m, mk_m, get_m, gl_m, chain_m])
    }

    fn table(p: &Program) -> SummaryTable {
        let h = ClassHierarchy::new(p);
        SummaryTable::compute(p, &h)
    }

    #[test]
    fn classic_shapes_are_distilled() {
        let (p, [id_m, mk_m, get_m, gl_m, chain_m]) = fixture();
        let t = table(&p);
        assert_eq!(
            t.distilled_atoms(id_m),
            Some(&[SummaryAtom::ParamToRet(id_m, 0)][..])
        );
        assert!(matches!(
            t.distilled_atoms(mk_m),
            Some(&[SummaryAtom::AllocToRet(_)])
        ));
        assert!(matches!(
            t.distilled_atoms(get_m),
            Some(&[SummaryAtom::ThisFieldToRet(_)])
        ));
        assert!(matches!(
            t.distilled_atoms(gl_m),
            Some(&[SummaryAtom::GlobalToRet(_)])
        ));
        // Composition: chain inherits id's ParamToRet verbatim — still
        // pointing at id's formal, the chain-safe conflation point.
        assert_eq!(
            t.distilled_atoms(chain_m),
            Some(&[SummaryAtom::ParamToRet(id_m, 0)][..])
        );
        assert_eq!(t.stats.distilled, 5);
    }

    #[test]
    fn this_escape_and_casts_fall_back() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let self_m = b.method(obj, "self", &[], false);
        let this = b.this(self_m);
        b.ret(self_m, this);
        let cast_m = b.method(obj, "c", &["x"], true);
        let xp = b.param(cast_m, 0);
        let t = b.var(cast_m, "t");
        b.cast(cast_m, t, xp, obj);
        b.ret(cast_m, t);
        b.entry(cast_m);
        let p = b.finish();
        let tbl = table(&p);
        assert_eq!(tbl.distilled_atoms(rudoop_ir::MethodId(0)), None);
        assert_eq!(tbl.distilled_atoms(rudoop_ir::MethodId(1)), None);
        assert_eq!(tbl.stats.fallback, 2);
    }

    #[test]
    fn recursive_pair_reaches_least_fixpoint() {
        // f(x) { return g(x) },
        // g(y) { t = new Box; return t; return y; return f(y) }
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
        b.entry(f_m);
        let p = b.finish();
        let t = table(&p);
        // Both are distilled: g returns its alloc plus its own parameter;
        // f inherits both verbatim (its atoms reference *g's* formal — the
        // conflation point f forwards its argument into).
        let fa = t.distilled_atoms(f_m).expect("f distilled");
        let ga = t.distilled_atoms(g_m).expect("g distilled");
        assert!(fa.iter().any(|a| matches!(a, SummaryAtom::AllocToRet(_))));
        assert!(fa.contains(&SummaryAtom::ParamToRet(g_m, 0)));
        assert!(ga.iter().any(|a| matches!(a, SummaryAtom::AllocToRet(_))));
        assert!(ga.contains(&SummaryAtom::ParamToRet(g_m, 0)));
        assert!(t.stats.max_rounds >= 2);
    }

    #[test]
    fn virtual_callee_in_slice_falls_back() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let fa = b.method(a, "f", &[], false);
        let far = b.var(fa, "t");
        b.alloc(fa, far, a);
        b.ret(fa, far);
        let m = b.method(obj, "viacall", &["x"], true);
        let xp = b.param(m, 0);
        let r = b.var(m, "r");
        b.vcall(m, Some(r), xp, "f", &[]);
        b.ret(m, r);
        b.entry(m);
        let p = b.finish();
        let t = table(&p);
        assert!(t.distilled_atoms(fa).is_some());
        assert_eq!(t.distilled_atoms(m), None);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let (p, _) = fixture();
        let a = table(&p).render(&p);
        let b2 = table(&p).render(&p);
        assert_eq!(a, b2);
        assert!(a.contains("summary Object.id/1: ret = {arg0}"));
        assert!(a.contains("summary Object.chain/1: ret = {arg0 of Object.id/1}"));
        assert!(a.contains("new Box"));
        assert!(a.contains("this.val"));
        assert!(a.contains("global G"));
        assert!(a.contains("stats: methods=6"));
    }

    /// The pre-pass's CHA call graph, built from per-signature target
    /// rows, equals the reference that asks every class at every virtual
    /// site.
    #[test]
    fn cha_call_graph_matches_the_per_class_reference_on_dacapo() {
        for spec in rudoop_workloads::dacapo::all_nine() {
            let p = spec.build();
            let h = ClassHierarchy::new(&p);
            let g = StaticCallGraph::build(&p, &h);
            let naive = naive_call_graph(&p, &h);
            assert_eq!(g.callees, naive.callees, "{}", spec.name);
            assert_eq!(g.edge_count, naive.edge_count, "{}", spec.name);
        }
    }
}
