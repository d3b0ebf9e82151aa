//! The paper's Figures 2–3, executable: the points-to analysis and
//! call-graph construction as Datalog rules over EDB relations extracted
//! from a [`Program`], with context constructors as external functions.
//!
//! This module is the *reference model*: it is evaluated with the generic
//! semi-naive engine, rule for rule as printed in the paper (plus the
//! static/special-call and entry-point rules that the paper's prose
//! delegates to "the full implementation"). The optimized solver in
//! `rudoop-core` is differential-tested against it.
//!
//! Deviation from the paper's letter, documented: our MERGE constructor
//! receives the resolved target method as an extra argument (the paper
//! keeps the `(invo, meth)` pair only in the SITETOREFINE guard). All three
//! classic flavors ignore the argument; it exists so the same
//! [`ContextPolicy`] objects drive both the model and the solver.

use std::cell::RefCell;
use std::rc::Rc;

use rudoop_core::context::{CtxId, CtxTables, HCtxId};
use rudoop_core::cutshortcut::{CutSummary, ParamCut};
use rudoop_core::policy::{ContextPolicy, RefinementSet};
use rudoop_core::summaries::{SummaryAtom, SummaryTable};
use rudoop_ir::{
    AllocId, ClassHierarchy, FieldId, Instruction, InvokeId, InvokeKind, MethodId, Program, VarId,
};

use crate::engine::Engine;
use crate::rule::{RelId, RuleBuilder, RuleError, Value};

/// The context-sensitive relations computed by the model.
#[derive(Debug, Clone, Default)]
pub struct ModelResult {
    /// VARPOINTSTO tuples.
    pub var_points_to: Vec<(VarId, CtxId, AllocId, HCtxId)>,
    /// FLDPOINTSTO tuples.
    pub field_points_to: Vec<(AllocId, HCtxId, FieldId, AllocId, HCtxId)>,
    /// CALLGRAPH tuples.
    pub call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)>,
    /// REACHABLE tuples.
    pub reachable: Vec<(MethodId, CtxId)>,
    /// The context tables used by the run (for rendering context strings).
    pub tables: CtxTables,
    /// Engine rounds (for curiosity/stats).
    pub rounds: u64,
}

impl ModelResult {
    /// Projected reachable methods, sorted and deduplicated.
    pub fn reachable_projected(&self) -> Vec<MethodId> {
        let mut v: Vec<MethodId> = self.reachable.iter().map(|&(m, _)| m).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Runs the Figure 2–3 model of `program` with `default`/`refined` context
/// constructors and the given refinement sets.
///
/// For a plain (non-introspective) analysis pass `RefinementSet::refine_all`
/// and make `refined` the analysis policy (the default is then never
/// consulted, because every element is refined) — or vice versa with the
/// complement. For a context-insensitive run pass two `Insensitive`
/// policies.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_model(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> Result<ModelResult, RuleError> {
    run_model_extended(program, hierarchy, default, refined, refinement, None, None)
}

/// [`run_model`] with an optional cut-shortcut summary: cut parameters and
/// returns are excluded from the interprocedural-assignment rules and
/// replaced by the three shortcut rules, mirroring the optimized solver's
/// `cutshortcut` flavor. Passing `None` (or a summary with no cuts) leaves
/// every rule's behavior unchanged.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_model_with_cuts(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    cuts: Option<&CutSummary>,
) -> Result<ModelResult, RuleError> {
    run_model_extended(program, hierarchy, default, refined, refinement, cuts, None)
}

/// [`run_model`] with an optional bottom-up summary table: return edges of
/// distilled methods are excluded from the interprocedural-assignment rules
/// and replaced by the four summary-instantiation rules, mirroring the
/// optimized solver's `summaries` flavor. Passing `None` (or a table with
/// no distilled methods) leaves every rule's behavior unchanged.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_model_with_summaries(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    summaries: Option<&SummaryTable>,
) -> Result<ModelResult, RuleError> {
    run_model_extended(
        program, hierarchy, default, refined, refinement, None, summaries,
    )
}

/// The common body of the `run_model*` entry points. Cuts and summaries
/// are mutually exclusive in practice (`Flavor::prepare_config` clears
/// whichever the flavor does not use), but the installer composes them
/// soundly either way: each mechanism cuts a disjoint rule premise.
#[allow(clippy::too_many_arguments)]
fn run_model_extended(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    cuts: Option<&CutSummary>,
    summaries: Option<&SummaryTable>,
) -> Result<ModelResult, RuleError> {
    let tables = Rc::new(RefCell::new(CtxTables::new()));
    let mut engine = Engine::new();
    let rels = install_base_model(
        &mut engine,
        &tables,
        program,
        hierarchy,
        default,
        refined,
        refinement,
        cuts,
        summaries,
    )?;
    let stats = engine.run()?;
    let mut result = extract_result(&engine, &rels, stats.rounds);
    drop(engine);
    result.tables = Rc::try_unwrap(tables).expect("engine dropped").into_inner();
    Ok(result)
}

/// The relation ids of the base (points-to) model that extension rule sets
/// — the taint client — join against.
pub(crate) struct BaseRels {
    pub(crate) mov: RelId,
    pub(crate) load: RelId,
    pub(crate) store: RelId,
    pub(crate) sload: RelId,
    pub(crate) sstore: RelId,
    pub(crate) vcall: RelId,
    pub(crate) specialcall: RelId,
    pub(crate) formalarg: RelId,
    pub(crate) actualarg: RelId,
    pub(crate) formalreturn: RelId,
    pub(crate) actualreturn: RelId,
    pub(crate) thisvar: RelId,
    pub(crate) entry: RelId,
    pub(crate) varpointsto: RelId,
    pub(crate) callgraph: RelId,
    pub(crate) fldpointsto: RelId,
    pub(crate) reachable: RelId,
}

/// Reads the computed relations out of a finished engine.
pub(crate) fn extract_result(engine: &Engine<'_>, rels: &BaseRels, rounds: u64) -> ModelResult {
    let mut result = ModelResult {
        rounds,
        ..ModelResult::default()
    };
    for t in engine.tuples(rels.varpointsto) {
        result
            .var_points_to
            .push((VarId(t[0]), CtxId(t[1]), AllocId(t[2]), HCtxId(t[3])));
    }
    for t in engine.tuples(rels.fldpointsto) {
        result.field_points_to.push((
            AllocId(t[0]),
            HCtxId(t[1]),
            FieldId(t[2]),
            AllocId(t[3]),
            HCtxId(t[4]),
        ));
    }
    for t in engine.tuples(rels.callgraph) {
        result
            .call_graph
            .push((InvokeId(t[0]), CtxId(t[1]), MethodId(t[2]), CtxId(t[3])));
    }
    for t in engine.tuples(rels.reachable) {
        result.reachable.push((MethodId(t[0]), CtxId(t[1])));
    }
    result
}

/// Declares the Figure 2–3 relations, context-constructor functions, rules
/// and program facts on `engine`, returning the relation handles extension
/// rule sets need.
#[allow(clippy::too_many_arguments)]
pub(crate) fn install_base_model<'a>(
    engine: &mut Engine<'a>,
    tables: &Rc<RefCell<CtxTables>>,
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &'a dyn ContextPolicy,
    refined: &'a dyn ContextPolicy,
    refinement: &RefinementSet,
    cuts: Option<&CutSummary>,
    summaries: Option<&SummaryTable>,
) -> Result<BaseRels, RuleError> {
    // ---- EDB relations (Figure 2's input relations) ----
    let alloc = engine.relation("ALLOC", 3); // var, heap, inMeth
    let mov = engine.relation("MOVE", 2); // to, from
    let load = engine.relation("LOAD", 3); // to, base, fld
    let store = engine.relation("STORE", 3); // base, fld, from
    let vcall = engine.relation("VCALL", 4); // base, sig, invo, inMeth
    let specialcall = engine.relation("SPECIALCALL", 4); // base, meth, invo, inMeth
    let staticcall = engine.relation("STATICCALL", 3); // meth, invo, inMeth
    let formalarg = engine.relation("FORMALARG", 3); // meth, i, arg
    let actualarg = engine.relation("ACTUALARG", 3); // invo, i, arg
    let formalreturn = engine.relation("FORMALRETURN", 2); // meth, ret
    let actualreturn = engine.relation("ACTUALRETURN", 2); // invo, var
    let thisvar = engine.relation("THISVAR", 2); // meth, this
    let heaptype = engine.relation("HEAPTYPE", 2); // heap, type
    let lookup = engine.relation("LOOKUP", 3); // type, sig, meth
    let sload = engine.relation("SLOAD", 3); // to, glob, inMeth
    let sstore = engine.relation("SSTORE", 2); // glob, from
    let sitetorefine = engine.relation("SITETOREFINE", 2); // invo, meth
    let objecttorefine = engine.relation("OBJECTTOREFINE", 1); // heap
    let entry = engine.relation("ENTRY", 1); // meth

    // ---- Cut-shortcut EDB (empty unless a `CutSummary` is supplied, in
    // which case the pre-analysis pass dictates every tuple) ----
    let callbase = engine.relation("CALLBASE", 2); // invo, base (receiver calls only)
    let cutparam = engine.relation("CUTPARAM", 2); // meth, i — arg edge cut
    let cutret = engine.relation("CUTRET", 2); // invo, meth — ret edge cut at this site
    let idparam = engine.relation("IDPARAM", 2); // meth, i — identity shortcut
    let setparam = engine.relation("SETPARAM", 3); // meth, i, fld — setter shortcut
    let getreturn = engine.relation("GETRETURN", 2); // meth, fld — getter shortcut

    // ---- Summary EDB (empty unless a `SummaryTable` is supplied, in
    // which case the bottom-up SCC pass dictates every tuple) ----
    let sumret = engine.relation("SUMRET", 2); // invo, meth — ret edge summarized
    let sumretparam = engine.relation("SUMRETPARAM", 3); // meth, srcMeth, i — ret = formal i of srcMeth
    let sumretfield = engine.relation("SUMRETFIELD", 2); // meth, fld — ret = this.fld
    let sumretalloc = engine.relation("SUMRETALLOC", 2); // meth, heap — ret = new heap
    let sumretglobal = engine.relation("SUMRETGLOBAL", 2); // meth, glob — ret = global

    // ---- IDB relations (Figure 2's computed relations) ----
    let varpointsto = engine.relation("VARPOINTSTO", 4); // var, ctx, heap, hctx
    let callgraph = engine.relation("CALLGRAPH", 4); // invo, callerCtx, meth, calleeCtx
    let fldpointsto = engine.relation("FLDPOINTSTO", 5); // baseH, baseHCtx, fld, heap, hctx
    let interprocassign = engine.relation("INTERPROCASSIGN", 4); // to, toCtx, from, fromCtx
    let reachable = engine.relation("REACHABLE", 2); // meth, ctx
    let globalpointsto = engine.relation("GLOBALPOINTSTO", 3); // glob, heap, hctx

    // ---- Context constructors (Figure 2's RECORD/MERGE and the refined
    // duplicates), closing over the shared context tables ----
    let t = tables.clone();
    let record = engine.function("RECORD", move |a: &[Value]| {
        default
            .record(&mut t.borrow_mut(), AllocId(a[0]), CtxId(a[1]))
            .0
    });
    let t = tables.clone();
    let record_refined = engine.function("RECORDREFINED", move |a: &[Value]| {
        refined
            .record(&mut t.borrow_mut(), AllocId(a[0]), CtxId(a[1]))
            .0
    });
    let t = tables.clone();
    let merge = engine.function("MERGE", move |a: &[Value]| {
        default
            .merge(
                &mut t.borrow_mut(),
                AllocId(a[0]),
                HCtxId(a[1]),
                InvokeId(a[2]),
                MethodId(a[3]),
                CtxId(a[4]),
            )
            .0
    });
    let t = tables.clone();
    let merge_refined = engine.function("MERGEREFINED", move |a: &[Value]| {
        refined
            .merge(
                &mut t.borrow_mut(),
                AllocId(a[0]),
                HCtxId(a[1]),
                InvokeId(a[2]),
                MethodId(a[3]),
                CtxId(a[4]),
            )
            .0
    });
    let t = tables.clone();
    let merge_static = engine.function("MERGESTATIC", move |a: &[Value]| {
        default
            .merge_static(
                &mut t.borrow_mut(),
                InvokeId(a[0]),
                MethodId(a[1]),
                CtxId(a[2]),
            )
            .0
    });
    let t = tables.clone();
    let merge_static_refined = engine.function("MERGESTATICREFINED", move |a: &[Value]| {
        refined
            .merge_static(
                &mut t.borrow_mut(),
                InvokeId(a[0]),
                MethodId(a[1]),
                CtxId(a[2]),
            )
            .0
    });

    // ---- Rules (Figure 3, in order) ----
    let add = |engine: &mut Engine<'_>,
               rule: Result<crate::rule::Rule, RuleError>|
     -> Result<(), RuleError> { engine.add_rule(rule?) };

    // INTERPROCASSIGN from arguments — except cut parameters, whose flow
    // is rerouted by the shortcut rules below.
    add(
        engine,
        RuleBuilder::new("interproc-args")
            .head(interprocassign, &["to", "calleeCtx", "from", "callerCtx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(formalarg, &["meth", "i", "to"])
            .pos(actualarg, &["invo", "i", "from"])
            .neg(cutparam, &["meth", "i"])
            .build(),
    )?;
    // INTERPROCASSIGN from returns — except getter returns at receiver
    // call sites (CUTRET is per (invo, meth): a baseless static call to a
    // getter keeps its return edge, exactly as the solver does) and
    // except distilled returns (SUMRET), which the four summary rules
    // below replace with caller-context-local instantiations.
    add(
        engine,
        RuleBuilder::new("interproc-ret")
            .head(interprocassign, &["to", "callerCtx", "from", "calleeCtx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(formalreturn, &["meth", "from"])
            .pos(actualreturn, &["invo", "to"])
            .neg(cutret, &["invo", "meth"])
            .neg(sumret, &["invo", "meth"])
            .build(),
    )?;
    // Cut-shortcut rules: each cut interprocedural flow is replaced by a
    // caller-context-local shortcut (the paper-adjacent "context
    // sensitivity without contexts" trick). Identity params jump the
    // actual straight to the call result; setter params store it into the
    // receiver's field; getter returns load the receiver's field into the
    // result. All three stay entirely in `callerCtx`.
    add(
        engine,
        RuleBuilder::new("shortcut-identity")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(idparam, &["meth", "i"])
            .pos(actualarg, &["invo", "i", "from"])
            .pos(actualreturn, &["invo", "to"])
            .pos(varpointsto, &["from", "callerCtx", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("shortcut-setter")
            .head(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(setparam, &["meth", "i", "fld"])
            .pos(actualarg, &["invo", "i", "from"])
            .pos(callbase, &["invo", "base"])
            .pos(varpointsto, &["base", "callerCtx", "baseH", "baseHCtx"])
            .pos(varpointsto, &["from", "callerCtx", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("shortcut-getter")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(getreturn, &["meth", "fld"])
            .pos(actualreturn, &["invo", "to"])
            .pos(callbase, &["invo", "base"])
            .pos(varpointsto, &["base", "callerCtx", "baseH", "baseHCtx"])
            .pos(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .build(),
    )?;
    // Summary-instantiation rules: a distilled callee's return edge is
    // replaced by one rule per summary-atom kind, each expanding the atom
    // at the call site. `ret = param i` reads the *formal* parameter of
    // the method the atom names (the summarized callee or, for atoms
    // inherited through composition, a transitive callee) — the union over
    // all call sites, never this site's actual alone, so summaries stay no
    // more precise than `2objH` where that flavor conflates sites — outer
    // or inner; `ret = this.fld` loads the field through
    // *this site's* receiver objects only (receiver calls — CALLBASE is
    // empty for static sites, exactly as the solver skips baseless field
    // atoms), which is where the precision over insensitivity comes from;
    // `ret = new h` materializes the allocation under the empty heap
    // context, matching what the all-empty `summaries` policy records;
    // `ret = global g` reads the context-insensitive global slot.
    add(
        engine,
        RuleBuilder::new("sum-ret-param")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(sumretparam, &["meth", "srcMeth", "i"])
            .pos(formalarg, &["srcMeth", "i", "from"])
            .pos(actualreturn, &["invo", "to"])
            // `calleeCtx` is sound for the source formal even when
            // `srcMeth != meth`: the summaries policy is context-free, so
            // every method runs under the single empty context.
            .pos(varpointsto, &["from", "calleeCtx", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("sum-ret-field")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(sumretfield, &["meth", "fld"])
            .pos(actualreturn, &["invo", "to"])
            .pos(callbase, &["invo", "base"])
            .pos(varpointsto, &["base", "callerCtx", "baseH", "baseHCtx"])
            .pos(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("sum-ret-alloc")
            .head(varpointsto, &["to", "callerCtx", "heap", "#0"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(sumretalloc, &["meth", "heap"])
            .pos(actualreturn, &["invo", "to"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("sum-ret-global")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(sumretglobal, &["meth", "glob"])
            .pos(actualreturn, &["invo", "to"])
            .pos(globalpointsto, &["glob", "heap", "hctx"])
            .build(),
    )?;
    // ALLOC, default context.
    add(
        engine,
        RuleBuilder::new("alloc")
            .head(varpointsto, &["var", "ctx", "heap", "hctx"])
            .pos(reachable, &["meth", "ctx"])
            .pos(alloc, &["var", "heap", "meth"])
            .neg(objecttorefine, &["heap"])
            .func(record, &["heap", "ctx"], "hctx")
            .build(),
    )?;
    // ALLOC, refined duplicate.
    add(
        engine,
        RuleBuilder::new("alloc-refined")
            .head(varpointsto, &["var", "ctx", "heap", "hctx"])
            .pos(reachable, &["meth", "ctx"])
            .pos(alloc, &["var", "heap", "meth"])
            .pos(objecttorefine, &["heap"])
            .func(record_refined, &["heap", "ctx"], "hctx")
            .build(),
    )?;
    // MOVE.
    add(
        engine,
        RuleBuilder::new("move")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(mov, &["to", "from"])
            .pos(varpointsto, &["from", "ctx", "heap", "hctx"])
            .build(),
    )?;
    // INTERPROCASSIGN propagation.
    add(
        engine,
        RuleBuilder::new("interproc-flow")
            .head(varpointsto, &["to", "toCtx", "heap", "hctx"])
            .pos(interprocassign, &["to", "toCtx", "from", "fromCtx"])
            .pos(varpointsto, &["from", "fromCtx", "heap", "hctx"])
            .build(),
    )?;
    // LOAD.
    add(
        engine,
        RuleBuilder::new("load")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(load, &["to", "base", "fld"])
            .pos(varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .pos(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .build(),
    )?;
    // STORE.
    add(
        engine,
        RuleBuilder::new("store")
            .head(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .pos(store, &["base", "fld", "from"])
            .pos(varpointsto, &["from", "ctx", "heap", "hctx"])
            .pos(varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .build(),
    )?;
    // VCALL, default and refined.
    add(
        engine,
        RuleBuilder::new("vcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(vcall, &["base", "sig", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(heaptype, &["heap", "heapT"])
            .pos(lookup, &["heapT", "sig", "toMeth"])
            .pos(thisvar, &["toMeth", "this"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(
                merge,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("vcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(vcall, &["base", "sig", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(heaptype, &["heap", "heapT"])
            .pos(lookup, &["heapT", "sig", "toMeth"])
            .pos(thisvar, &["toMeth", "this"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_refined,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // SPECIALCALL (statically bound receiver call), default and refined.
    add(
        engine,
        RuleBuilder::new("specialcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(specialcall, &["base", "toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(thisvar, &["toMeth", "this"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(
                merge,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("specialcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(specialcall, &["base", "toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(thisvar, &["toMeth", "this"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_refined,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // STATICCALL, default and refined.
    add(
        engine,
        RuleBuilder::new("staticcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(staticcall, &["toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(merge_static, &["invo", "toMeth", "callerCtx"], "calleeCtx")
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("staticcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(staticcall, &["toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_static_refined,
                &["invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // Static-field rules (part of Doop's "full implementation" rule set):
    // globals are single context-insensitive slots; a load materializes the
    // slot's contents in every reachable context of the loading method.
    add(
        engine,
        RuleBuilder::new("global-store")
            .head(globalpointsto, &["glob", "heap", "hctx"])
            .pos(sstore, &["glob", "from"])
            .pos(varpointsto, &["from", "_", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("global-load")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(sload, &["to", "glob", "inMeth"])
            .pos(reachable, &["inMeth", "ctx"])
            .pos(globalpointsto, &["glob", "heap", "hctx"])
            .build(),
    )?;
    // Entry points: reachable under the empty context (the paper's
    // REACHABLE seeding technicality).
    add(
        engine,
        RuleBuilder::new("entry")
            .head(reachable, &["meth", "#0"])
            .pos(entry, &["meth"])
            .build(),
    )?;

    // ---- Facts from the program ----
    load_facts(
        engine,
        program,
        hierarchy,
        refinement,
        Facts {
            alloc,
            sload,
            sstore,
            mov,
            load,
            store,
            vcall,
            specialcall,
            staticcall,
            formalarg,
            actualarg,
            formalreturn,
            actualreturn,
            thisvar,
            heaptype,
            lookup,
            sitetorefine,
            objecttorefine,
            entry,
        },
    );

    // ---- Cut-shortcut facts from the pre-analysis pass ----
    if let Some(cuts) = cuts {
        for (iid, inv) in program.invokes.iter() {
            match inv.kind {
                InvokeKind::Virtual { base, sig } => {
                    engine.fact(callbase, &[iid.0, base.0]);
                    // CUTRET pairs a call site with each plausible getter
                    // target (same-signature methods are exactly the
                    // dispatch range, mirroring SITETOREFINE's filter).
                    for (mid, method) in program.methods.iter() {
                        if method.sig == sig && cuts.getter_return(mid).is_some() {
                            engine.fact(cutret, &[iid.0, mid.0]);
                        }
                    }
                }
                InvokeKind::Special { base, target } => {
                    engine.fact(callbase, &[iid.0, base.0]);
                    if cuts.getter_return(target).is_some() {
                        engine.fact(cutret, &[iid.0, target.0]);
                    }
                }
                InvokeKind::Static { .. } => {}
            }
        }
        for (mid, method) in program.methods.iter() {
            for i in 0..method.params.len() {
                match cuts.param_cut(mid, i) {
                    Some(ParamCut::Identity) => {
                        engine.fact(cutparam, &[mid.0, i as Value]);
                        engine.fact(idparam, &[mid.0, i as Value]);
                    }
                    Some(ParamCut::Setter(field)) => {
                        engine.fact(cutparam, &[mid.0, i as Value]);
                        engine.fact(setparam, &[mid.0, i as Value, field.0]);
                    }
                    None => {}
                }
            }
            if let Some(field) = cuts.getter_return(mid) {
                engine.fact(getreturn, &[mid.0, field.0]);
            }
        }
    }

    // ---- Summary facts from the bottom-up SCC pass ----
    if let Some(table) = summaries {
        for (iid, inv) in program.invokes.iter() {
            match inv.kind {
                InvokeKind::Virtual { base, sig } => {
                    engine.fact(callbase, &[iid.0, base.0]);
                    // SUMRET pairs a call site with each plausible
                    // distilled target (same-signature methods are exactly
                    // the dispatch range, mirroring SITETOREFINE's filter);
                    // pairs outside CALLGRAPH never meet a rule.
                    for (mid, method) in program.methods.iter() {
                        if method.sig == sig && table.distilled_atoms(mid).is_some() {
                            engine.fact(sumret, &[iid.0, mid.0]);
                        }
                    }
                }
                InvokeKind::Special { base, target } => {
                    engine.fact(callbase, &[iid.0, base.0]);
                    if table.distilled_atoms(target).is_some() {
                        engine.fact(sumret, &[iid.0, target.0]);
                    }
                }
                // Unlike CUTRET, static sites do get SUMRET tuples: the
                // solver instantiates summaries at every call edge, with
                // only the receiver-field atoms skipped for baseless
                // sites (CALLBASE stays empty for them).
                InvokeKind::Static { target } => {
                    if table.distilled_atoms(target).is_some() {
                        engine.fact(sumret, &[iid.0, target.0]);
                    }
                }
            }
        }
        for mid in program.methods.ids() {
            let Some(atoms) = table.distilled_atoms(mid) else {
                continue;
            };
            for atom in atoms {
                match *atom {
                    SummaryAtom::ParamToRet(src, i) => {
                        engine.fact(sumretparam, &[mid.0, src.0, i as Value]);
                    }
                    SummaryAtom::ThisFieldToRet(field) => {
                        engine.fact(sumretfield, &[mid.0, field.0]);
                    }
                    SummaryAtom::AllocToRet(heap) => {
                        engine.fact(sumretalloc, &[mid.0, heap.0]);
                    }
                    SummaryAtom::GlobalToRet(glob) => {
                        engine.fact(sumretglobal, &[mid.0, glob.0]);
                    }
                }
            }
        }
    }

    Ok(BaseRels {
        mov,
        load,
        store,
        sload,
        sstore,
        vcall,
        specialcall,
        formalarg,
        actualarg,
        formalreturn,
        actualreturn,
        thisvar,
        entry,
        varpointsto,
        callgraph,
        fldpointsto,
        reachable,
    })
}

struct Facts {
    alloc: RelId,
    sload: RelId,
    sstore: RelId,
    mov: RelId,
    load: RelId,
    store: RelId,
    vcall: RelId,
    specialcall: RelId,
    staticcall: RelId,
    formalarg: RelId,
    actualarg: RelId,
    formalreturn: RelId,
    actualreturn: RelId,
    thisvar: RelId,
    heaptype: RelId,
    lookup: RelId,
    sitetorefine: RelId,
    objecttorefine: RelId,
    entry: RelId,
}

fn load_facts(
    engine: &mut Engine<'_>,
    program: &Program,
    hierarchy: &ClassHierarchy,
    refinement: &RefinementSet,
    f: Facts,
) {
    for (mid, method) in program.methods.iter() {
        if let Some(this) = method.this {
            engine.fact(f.thisvar, &[mid.0, this.0]);
        }
        for (i, &param) in method.params.iter().enumerate() {
            engine.fact(f.formalarg, &[mid.0, i as Value, param.0]);
        }
        if let Some(ret) = method.ret {
            engine.fact(f.formalreturn, &[mid.0, ret.0]);
        }
        for instr in &method.body {
            match *instr {
                Instruction::Alloc { var, alloc } => {
                    engine.fact(f.alloc, &[var.0, alloc.0, mid.0]);
                }
                Instruction::Move { to, from } | Instruction::Cast { to, from, .. } => {
                    engine.fact(f.mov, &[to.0, from.0]);
                }
                Instruction::Load { to, base, field } => {
                    engine.fact(f.load, &[to.0, base.0, field.0]);
                }
                Instruction::Store { base, field, from } => {
                    engine.fact(f.store, &[base.0, field.0, from.0]);
                }
                Instruction::LoadGlobal { to, global } => {
                    engine.fact(f.sload, &[to.0, global.0, mid.0]);
                }
                Instruction::StoreGlobal { global, from } => {
                    engine.fact(f.sstore, &[global.0, from.0]);
                }
                Instruction::Return { var } => {
                    if let Some(ret) = method.ret {
                        engine.fact(f.mov, &[ret.0, var.0]);
                    }
                }
                // Spawn emits the same call facts as Call: its call-graph
                // edges double as the thread-creation graph.
                Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                    let inv = &program.invokes[invoke];
                    for (i, &arg) in inv.args.iter().enumerate() {
                        engine.fact(f.actualarg, &[invoke.0, i as Value, arg.0]);
                    }
                    if let Some(result) = inv.result {
                        engine.fact(f.actualreturn, &[invoke.0, result.0]);
                    }
                    match inv.kind {
                        InvokeKind::Virtual { base, sig } => {
                            engine.fact(f.vcall, &[base.0, sig.0, invoke.0, mid.0]);
                        }
                        InvokeKind::Special { base, target } => {
                            engine.fact(f.specialcall, &[base.0, target.0, invoke.0, mid.0]);
                        }
                        InvokeKind::Static { target } => {
                            engine.fact(f.staticcall, &[target.0, invoke.0, mid.0]);
                        }
                    }
                }
                // Concurrency ordering/locking instructions carry no
                // points-to facts.
                Instruction::Join { .. }
                | Instruction::MonitorEnter { .. }
                | Instruction::MonitorExit { .. } => {}
            }
        }
    }
    for (aid, site) in program.allocs.iter() {
        engine.fact(f.heaptype, &[aid.0, site.class.0]);
    }
    for (cid, _) in program.classes.iter() {
        for (&sig, &meth) in hierarchy.dispatch_table(cid) {
            engine.fact(f.lookup, &[cid.0, sig.0, meth.0]);
        }
    }
    for &m in &program.entry_points {
        engine.fact(f.entry, &[m.0]);
    }
    // Refinement sets, converted from complement form to the model's
    // positive SITETOREFINE/OBJECTTOREFINE relations.
    for aid in program.allocs.ids() {
        if refinement.object_refined(aid) {
            engine.fact(f.objecttorefine, &[aid.0]);
        }
    }
    for iid in program.invokes.ids() {
        for mid in program.methods.ids() {
            // SITETOREFINE is conceptually over (invo, meth) pairs; only
            // pairs that can meet in a rule matter, but enumerating all is
            // simplest and correct for model-sized programs... except it is
            // quadratic. Restrict to plausible targets: any method is a
            // plausible target of a special/static call it names, and any
            // method in the dispatch range for virtual calls. Cheaper and
            // still sound: emit pairs only for methods that share a
            // signature with the call or are the static target.
            let plausible = match program.invokes[iid].kind {
                InvokeKind::Virtual { sig, .. } => program.methods[mid].sig == sig,
                InvokeKind::Special { target, .. } | InvokeKind::Static { target } => target == mid,
            };
            if plausible && refinement.site_refined(iid, mid) {
                engine.fact(f.sitetorefine, &[iid.0, mid.0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_core::policy::{CallSiteSensitive, Insensitive, ObjectSensitive};
    use rudoop_ir::ProgramBuilder;

    fn identity_program() -> (Program, VarId, VarId, AllocId, AllocId) {
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
        let h1 = b.alloc(main, a, obj);
        let h2 = b.alloc(main, c, obj);
        b.scall(main, Some(r1), id_m, &[a]);
        b.scall(main, Some(r2), id_m, &[c]);
        b.entry(main);
        (b.finish(), r1, r2, h1, h2)
    }

    fn pts_of(result: &ModelResult, var: VarId) -> Vec<AllocId> {
        let mut v: Vec<AllocId> = result
            .var_points_to
            .iter()
            .filter(|&&(w, _, _, _)| w == var)
            .map(|&(_, _, h, _)| h)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn insensitive_model_conflates_identity() {
        let (p, r1, r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(&p, &hier, &Insensitive, &Insensitive, &refine).unwrap();
        assert_eq!(pts_of(&m, r1), vec![h1, h2]);
        assert_eq!(pts_of(&m, r2), vec![h1, h2]);
    }

    #[test]
    fn call_site_model_separates_identity() {
        let (p, r1, r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(
            &p,
            &hier,
            &Insensitive,
            &CallSiteSensitive::new(1, 0),
            &refine,
        )
        .unwrap();
        assert_eq!(pts_of(&m, r1), vec![h1]);
        assert_eq!(pts_of(&m, r2), vec![h2]);
    }

    #[test]
    fn virtual_dispatch_in_model() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let c = b.class("C", Some(obj));
        let m_a = b.method(a, "f", &[], false);
        let m_c = b.method(c, "f", &[], false);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, a);
        b.vcall(main, None, x, "f", &[]);
        b.entry(main);
        let p = b.finish();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(&p, &hier, &Insensitive, &Insensitive, &refine).unwrap();
        let reach = m.reachable_projected();
        assert!(reach.contains(&m_a));
        assert!(!reach.contains(&m_c));
    }

    #[test]
    fn refinement_guard_switches_constructors() {
        // With everything excluded from refinement, an "introspective"
        // model run with a precise refined policy behaves insensitively.
        let (p, r1, _r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let mut refine = RefinementSet::refine_all(&p);
        for m in p.methods.ids() {
            refine.no_refine_methods.insert(m);
        }
        for a in p.allocs.ids() {
            refine.no_refine_objects.insert(a);
        }
        let m = run_model(
            &p,
            &hier,
            &Insensitive,
            &ObjectSensitive::new(2, 1),
            &refine,
        )
        .unwrap();
        assert_eq!(
            pts_of(&m, r1),
            vec![h1, h2],
            "default (insensitive) constructors used"
        );
    }
}
