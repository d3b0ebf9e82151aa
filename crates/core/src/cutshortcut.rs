//! The cut-shortcut pre-analysis: context-sensitivity *without* contexts.
//!
//! PAPERS.md's *Context Sensitivity without Contexts: A Cut-Shortcut
//! Approach* (arXiv 2304.12034) observes that most of what a
//! context-sensitive analysis buys can be had by editing the pointer flow
//! graph instead of cloning it: **cut** the interprocedural value-flow
//! edges through methods whose bodies are transparent, and **shortcut**
//! the flow directly from each call site's actuals to its uses. The
//! callee's conflation point (the shared formal parameter or return
//! variable under the `★` context) is simply bypassed, so every call site
//! keeps its own values — near-2objH precision on the cut patterns at
//! near-insensitive cost.
//!
//! This module is the deterministic pre-analysis: it builds the static
//! pointer flow graph ([`rudoop_ir::FlowGraph`]), classifies methods
//! against three syntactic patterns, and emits a [`CutSummary`] that the
//! solver consumes at call-edge time:
//!
//! - **identity parameter**: the parameter flows *only* into the method's
//!   return through copies — cut the `arg → param` edge and shortcut
//!   `arg → result` at each call site;
//! - **setter parameter**: the parameter's only use is
//!   `this.f = param` — cut the `arg → param` edge and store the actual
//!   into `f` of each call site's *own* receiver objects;
//! - **getter return**: the method returns exactly `this.f` — cut the
//!   `ret → result` edge and load `f` of each call site's own receiver
//!   objects straight into the result.
//!
//! Every pattern is checked conservatively (no opaque uses, no
//! reassignment of `this`, single-definition temporaries), which keeps the
//! transformed analysis sound and pointwise at least as precise as the
//! context-insensitive baseline: each shortcut edge reroutes a flow the
//! insensitive analysis merges through a shared callee variable. The
//! executable Datalog reference model mirrors the same cuts rule for rule
//! (`rudoop-datalog`), and differential tests pin the two byte-identical.

use rudoop_ir::{
    FieldId, FlowGraph, IdxVec, Instruction, Method, MethodId, Program, VarId, VarUse,
};

use crate::telemetry::TelemetryHandle;

/// How a formal parameter's incoming interprocedural edge is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamCut {
    /// The parameter flows only to the method's return: replace
    /// `arg → param` with a direct `arg → result` shortcut per call site.
    Identity,
    /// The parameter's only use is `this.field = param`: replace
    /// `arg → param` with a per-call-site store of the actual into
    /// `field` of the site's receiver objects.
    Setter(FieldId),
}

/// The cut decisions for one method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MethodCuts {
    /// Per formal parameter (by position), the cut applied to its incoming
    /// interprocedural edge, if any.
    pub params: Vec<Option<ParamCut>>,
    /// When the method is a getter of `this.field`, the field whose
    /// per-site load replaces the `ret → result` edge.
    pub getter_return: Option<FieldId>,
}

impl MethodCuts {
    fn is_empty(&self) -> bool {
        self.getter_return.is_none() && self.params.iter().all(Option::is_none)
    }
}

/// Size counters of a [`CutSummary`] — the pass's stats block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutStats {
    /// Methods in the program.
    pub methods: usize,
    /// Methods with at least one cut.
    pub methods_with_cuts: usize,
    /// Identity-parameter cut points.
    pub identity_params: usize,
    /// Setter-parameter cut points.
    pub setter_params: usize,
    /// Getter-return cut points.
    pub getter_returns: usize,
    /// Copy edges in the static pointer flow graph the pass classified.
    pub flow_copy_edges: usize,
    /// Non-copy uses in the static pointer flow graph.
    pub flow_uses: usize,
}

impl CutStats {
    /// Total cut points (identity + setter + getter).
    pub fn cut_points(&self) -> usize {
        self.identity_params + self.setter_params + self.getter_returns
    }
}

/// The output of the cut-shortcut pre-analysis: per-method cut decisions
/// plus pass statistics. Pure function of the program — two computations
/// are identical, which the pass determinism test pins byte-for-byte via
/// [`CutSummary::render`].
#[derive(Debug, Clone, Default)]
pub struct CutSummary {
    cuts: IdxVec<MethodId, MethodCuts>,
    /// Pass statistics.
    pub stats: CutStats,
}

impl CutSummary {
    /// Runs the pre-analysis over `program`.
    pub fn compute(program: &Program) -> CutSummary {
        let flow = FlowGraph::build(program);
        let mut stats = CutStats {
            methods: program.methods.len(),
            flow_copy_edges: flow.copy_edge_count,
            flow_uses: flow.use_count,
            ..CutStats::default()
        };
        let mut cuts: IdxVec<MethodId, MethodCuts> = (0..program.methods.len())
            .map(|_| MethodCuts::default())
            .collect();
        for (mid, method) in program.methods.iter() {
            let mc = &mut cuts[mid];
            mc.params = method
                .params
                .iter()
                .map(|&p| classify_param(&flow, method, p))
                .collect();
            mc.getter_return = classify_getter(&flow, method);
            for c in mc.params.iter().flatten() {
                match c {
                    ParamCut::Identity => stats.identity_params += 1,
                    ParamCut::Setter(_) => stats.setter_params += 1,
                }
            }
            if mc.getter_return.is_some() {
                stats.getter_returns += 1;
            }
            if !mc.is_empty() {
                stats.methods_with_cuts += 1;
            }
        }
        CutSummary { cuts, stats }
    }

    /// Like [`CutSummary::compute`], wrapped in a `cutshortcut-pass`
    /// telemetry span with the pass's deterministic counters (all pure
    /// functions of the program, so the counter stream stays reproducible).
    pub fn compute_traced(program: &Program, telemetry: &TelemetryHandle) -> CutSummary {
        let span = crate::telemetry::span_opt(telemetry, "cutshortcut-pass");
        let summary = CutSummary::compute(program);
        if let Some(span) = &span {
            span.arg("cut_points", summary.stats.cut_points() as u64);
        }
        if let Some(tele) = telemetry.as_deref() {
            let s = &summary.stats;
            tele.counter("cutshortcut.identity_params", s.identity_params as u64);
            tele.counter("cutshortcut.setter_params", s.setter_params as u64);
            tele.counter("cutshortcut.getter_returns", s.getter_returns as u64);
            tele.counter("cutshortcut.methods_with_cuts", s.methods_with_cuts as u64);
            tele.counter("cutshortcut.flow_copy_edges", s.flow_copy_edges as u64);
            tele.counter("cutshortcut.flow_uses", s.flow_uses as u64);
        }
        summary
    }

    /// The cut applied to parameter `index` of `method`, if any.
    #[inline]
    pub fn param_cut(&self, method: MethodId, index: usize) -> Option<ParamCut> {
        self.cuts
            .get(method)
            .and_then(|mc| mc.params.get(index).copied().flatten())
    }

    /// The getter field of `method`, if its `ret → result` edges are cut.
    #[inline]
    pub fn getter_return(&self, method: MethodId) -> Option<FieldId> {
        self.cuts.get(method).and_then(|mc| mc.getter_return)
    }

    /// Whether the pass found nothing to cut.
    pub fn is_empty(&self) -> bool {
        self.stats.cut_points() == 0
    }

    /// A deterministic textual dump of all cut points and shortcut edges —
    /// the golden-test and `--dump-cuts` format. One line per cut point,
    /// in method-table order, followed by a stats trailer.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        for (mid, mc) in self.cuts.iter() {
            for (i, cut) in mc.params.iter().enumerate() {
                let Some(cut) = cut else { continue };
                let param = program.methods[mid].params[i];
                match cut {
                    ParamCut::Identity => {
                        out.push_str(&format!(
                            "cut {}#arg{} ({}): identity; shortcut arg -> result\n",
                            program.method_display(mid),
                            i,
                            program.var_display(param),
                        ));
                    }
                    ParamCut::Setter(field) => {
                        out.push_str(&format!(
                            "cut {}#arg{} ({}): setter of .{}; shortcut arg -> receiver.{}\n",
                            program.method_display(mid),
                            i,
                            program.var_display(param),
                            program.fields[*field].name,
                            program.fields[*field].name,
                        ));
                    }
                }
            }
            if let Some(field) = mc.getter_return {
                out.push_str(&format!(
                    "cut {}#ret: getter of .{}; shortcut receiver.{} -> result\n",
                    program.method_display(mid),
                    program.fields[field].name,
                    program.fields[field].name,
                ));
            }
        }
        let s = &self.stats;
        out.push_str(&format!(
            "stats: methods={} with_cuts={} identity={} setter={} getter={} \
             flow_copy_edges={} flow_uses={}\n",
            s.methods,
            s.methods_with_cuts,
            s.identity_params,
            s.setter_params,
            s.getter_returns,
            s.flow_copy_edges,
            s.flow_uses,
        ));
        out
    }
}

/// Classifies one formal parameter against the identity and setter
/// patterns.
fn classify_param(flow: &FlowGraph, method: &Method, param: VarId) -> Option<ParamCut> {
    if let Some(field) = setter_param(flow, method, param) {
        return Some(ParamCut::Setter(field));
    }
    if identity_param(flow, method, param) {
        return Some(ParamCut::Identity);
    }
    None
}

/// Identity pattern: every flow out of `param` is a copy, and the copies
/// reach the formal return. Intermediate variables may receive other
/// values (those still flow through the kept `ret → result` edges); what
/// matters is that no reachable variable has an opaque use — a store,
/// load base, call argument/receiver, global write, or sync instruction —
/// that the cut would starve.
fn identity_param(flow: &FlowGraph, method: &Method, param: VarId) -> bool {
    let Some(ret) = method.ret else { return false };
    let closure = flow.copy_closure(param);
    if !closure.contains(&ret) {
        // The parameter never reaches the return: a shortcut edge would
        // *add* flow the insensitive analysis does not have.
        return false;
    }
    closure.iter().all(|&v| flow.uses[v].is_empty())
}

/// Setter pattern: the parameter's single use is `this.field = param`,
/// it is never copied onward, and `this` is never reassigned in the body
/// (so the per-site receiver capture covers every possible store base).
fn setter_param(flow: &FlowGraph, method: &Method, param: VarId) -> Option<FieldId> {
    let this = method.this?;
    if flow.defs[this] != 0 || !flow.copy_out[param].is_empty() {
        return None;
    }
    match flow.uses[param].as_slice() {
        [VarUse::StoreValue { base, field }] if *base == this => Some(*field),
        _ => None,
    }
}

/// Getter pattern: the method body returns exactly `this.field` through a
/// single-definition, otherwise-unused temporary, and neither `this` nor
/// the formal return variable is touched by anything else. Parameters are
/// excluded as temporaries: their interprocedural inputs would be lost by
/// the `ret → result` cut.
fn classify_getter(flow: &FlowGraph, method: &Method) -> Option<FieldId> {
    let this = method.this?;
    let ret = method.ret?;
    if flow.defs[this] != 0 || flow.defs[ret] != 0 {
        return None;
    }
    if !flow.uses[ret].is_empty() || !flow.copy_out[ret].is_empty() {
        return None;
    }
    // Exactly one return instruction, of a non-parameter temporary.
    let mut returns = method.body.iter().filter_map(|i| match *i {
        Instruction::Return { var } => Some(var),
        _ => None,
    });
    let g = returns.next()?;
    if returns.next().is_some() || g == this || g == ret || method.params.contains(&g) {
        return None;
    }
    // The temporary is defined once — by a load off `this` — and used
    // nowhere but the return.
    if flow.defs[g] != 1 || !flow.uses[g].is_empty() {
        return None;
    }
    if flow.copy_out[g].as_slice() != [(ret, rudoop_ir::CopyKind::Return)] {
        return None;
    }
    method.body.iter().find_map(|i| match *i {
        Instruction::Load { to, base, field } if to == g && base == this => Some(field),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::ProgramBuilder;

    /// id(x) { return x }, set(v) { this.val = v }, get() { return this.val }
    fn patterns_program() -> (Program, MethodId, MethodId, MethodId) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let set_m = b.method(box_c, "set", &["v"], false);
        let set_this = b.this(set_m);
        let set_v = b.param(set_m, 0);
        b.store(set_m, set_this, f, set_v);
        let get_m = b.method(box_c, "get", &[], false);
        let get_this = b.this(get_m);
        let gr = b.var(get_m, "r");
        b.load(get_m, gr, get_this, f);
        b.ret(get_m, gr);
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        let v = b.var(main, "v");
        let o = b.var(main, "o");
        let r = b.var(main, "r");
        b.alloc(main, bx, box_c);
        b.alloc(main, v, obj);
        b.vcall(main, None, bx, "set", &[v]);
        b.vcall(main, Some(o), bx, "get", &[]);
        b.scall(main, Some(r), id_m, &[v]);
        b.entry(main);
        (b.finish(), id_m, set_m, get_m)
    }

    #[test]
    fn classic_patterns_are_recognized() {
        let (p, id_m, set_m, get_m) = patterns_program();
        let s = CutSummary::compute(&p);
        assert_eq!(s.param_cut(id_m, 0), Some(ParamCut::Identity));
        assert!(matches!(s.param_cut(set_m, 0), Some(ParamCut::Setter(_))));
        assert!(s.getter_return(get_m).is_some());
        assert_eq!(s.stats.cut_points(), 3);
        assert_eq!(s.stats.methods_with_cuts, 3);
    }

    #[test]
    fn opaque_uses_disqualify_identity() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let g = b.global(obj, "leaked");
        let m = b.method(obj, "leak", &["x"], true);
        let xp = b.param(m, 0);
        b.store_global(m, g, xp);
        b.ret(m, xp);
        b.entry(m);
        let p = b.finish();
        let s = CutSummary::compute(&p);
        assert_eq!(s.param_cut(rudoop_ir::MethodId(0), 0), None);
        assert!(s.is_empty());
    }

    #[test]
    fn dead_end_param_is_not_identity() {
        // drop(x) { } — x never reaches a return, so a shortcut edge
        // would invent flow the insensitive analysis does not have.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "drop", &["x"], true);
        let _xp = b.param(m, 0);
        let other = b.var(m, "o");
        b.alloc(m, other, obj);
        b.ret(m, other);
        b.entry(m);
        let p = b.finish();
        let s = CutSummary::compute(&p);
        assert_eq!(s.param_cut(rudoop_ir::MethodId(0), 0), None);
    }

    #[test]
    fn identity_through_move_chain() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "id2", &["x"], true);
        let xp = b.param(m, 0);
        let t = b.var(m, "t");
        b.mov(m, t, xp);
        b.ret(m, t);
        b.entry(m);
        let p = b.finish();
        let s = CutSummary::compute(&p);
        assert_eq!(
            s.param_cut(rudoop_ir::MethodId(0), 0),
            Some(ParamCut::Identity)
        );
    }

    #[test]
    fn getter_with_extra_writer_is_rejected() {
        // get() { r = this.val; r = new ...; return r } — the temporary has
        // a second definition, so the per-site load would miss it.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let m = b.method(box_c, "get", &[], false);
        let this = b.this(m);
        let r = b.var(m, "r");
        b.load(m, r, this, f);
        b.alloc(m, r, obj);
        b.ret(m, r);
        b.entry(m);
        let p = b.finish();
        let s = CutSummary::compute(&p);
        assert_eq!(s.getter_return(rudoop_ir::MethodId(0)), None);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let (p, _, _, _) = patterns_program();
        let a = CutSummary::compute(&p).render(&p);
        let b2 = CutSummary::compute(&p).render(&p);
        assert_eq!(a, b2);
        assert!(a.contains("identity"));
        assert!(a.contains("setter of .val"));
        assert!(a.contains("getter of .val"));
        assert!(a.contains("stats: methods=4 with_cuts=3"));
    }
}
