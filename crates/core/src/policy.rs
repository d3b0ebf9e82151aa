//! Context policies: the paper's constructor functions RECORD and MERGE.
//!
//! A [`ContextPolicy`] decides, at each allocation and each call, what
//! context the new object or callee gets. The base rules of the analysis
//! (in [`crate::solver`]) are policy-agnostic, exactly as in §2 of the
//! paper: "the base rules are not concerned with what kind of
//! context-sensitivity is used".
//!
//! The provided policies are the three classic flavors the paper evaluates
//! — call-site-sensitivity ([`CallSiteSensitive`]), object-sensitivity
//! ([`ObjectSensitive`]), type-sensitivity ([`TypeSensitive`]) — plus the
//! context-insensitive baseline and [`Introspective`], which dispatches
//! between a *default* and a *refined* policy per program element. That
//! per-element dispatch is the paper's duplicated-rule mechanism
//! (RECORDREFINED / MERGEREFINED guarded by OBJECTTOREFINE /
//! SITETOREFINE), folded into one constructor call.

use std::fmt;
use std::sync::Arc;

use rudoop_ir::{AllocId, ClassId, IdxVec, InvokeId, MethodId, Program};

use crate::bitset::IdBitSet;
use crate::context::{ContextElem, CtxId, CtxTables, HCtxId};
use crate::driver::Flavor;

/// A context-abstraction: how calling and heap contexts are constructed.
///
/// Mirrors Figure 2's constructor functions:
///
/// - [`record`](ContextPolicy::record) is `RECORD(heap, ctx) = hctx`,
/// - [`merge`](ContextPolicy::merge) is
///   `MERGE(heap, hctx, invo, ctx) = calleeCtx` (with the resolved target
///   also available, which the introspective policy needs for its
///   SITETOREFINE `(invo, meth)` pairs),
/// - [`merge_static`](ContextPolicy::merge_static) handles static calls,
///   which have no receiver object.
pub trait ContextPolicy: fmt::Debug + Send + Sync {
    /// Short name used in reports, e.g. `"2objH"`.
    fn name(&self) -> String;

    /// Heap context for an object allocated at `heap` by a method running
    /// in `ctx`. Context-free policies keep the default, `★`.
    fn record(&self, _tables: &mut CtxTables, _heap: AllocId, _ctx: CtxId) -> HCtxId {
        HCtxId::EMPTY
    }

    /// Calling context for `target` invoked at `invoke` on receiver
    /// `(heap, hctx)` from a caller running in `caller`. Context-free
    /// policies keep the default, `★`.
    fn merge(
        &self,
        _tables: &mut CtxTables,
        _heap: AllocId,
        _hctx: HCtxId,
        _invoke: InvokeId,
        _target: MethodId,
        _caller: CtxId,
    ) -> CtxId {
        CtxId::EMPTY
    }

    /// Calling context for a static call (no receiver). Context-free
    /// policies keep the default, `★`.
    fn merge_static(
        &self,
        _tables: &mut CtxTables,
        _invoke: InvokeId,
        _target: MethodId,
        _caller: CtxId,
    ) -> CtxId {
        CtxId::EMPTY
    }
}

/// Truncates `elems` to the first `k` entries.
fn truncate(elems: Vec<ContextElem>, k: usize) -> Vec<ContextElem> {
    let mut elems = elems;
    elems.truncate(k);
    elems
}

/// The context-insensitive policy: every context is the constant `★`.
///
/// This is the paper's first-pass configuration:
/// `RECORD(heap, ctx) = ★`, `MERGE(heap, hctx, invo, ctx) = ★`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Insensitive;

impl ContextPolicy for Insensitive {
    fn name(&self) -> String {
        Flavor::Insensitive.spec_name()
    }
}

/// The cut-shortcut policy: context-free like [`Insensitive`] — every
/// context is `★` — but under a distinct analysis name, because its
/// precision does not come from contexts at all. The solver applies the
/// flow-graph cuts and shortcut edges of a precomputed
/// [`crate::cutshortcut::CutSummary`] (carried in
/// [`crate::solver::SolverConfig::cuts`]) at every call edge, rerouting
/// per-site value flow that the plain insensitive analysis would merge
/// through shared formals. The distinct name keeps reports, telemetry
/// counters and the differential reference model apart from `insens`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CutShortcut;

impl ContextPolicy for CutShortcut {
    fn name(&self) -> String {
        Flavor::CutShortcut.spec_name()
    }
}

/// The summary-based compositional policy: context-free like
/// [`Insensitive`] — every context is `★` — but under a distinct analysis
/// name, because its precision comes from bottom-up method summaries, not
/// contexts. The solver replaces the conflating `ret → result` edge of
/// every call to a distilled method with per-site instantiations of the
/// method's [`crate::summaries::SummaryAtom`]s (carried in
/// [`crate::solver::SolverConfig::summaries`]); non-distilled methods keep
/// the ordinary edge — the hybrid split. The distinct name keeps reports,
/// telemetry counters and the differential reference model apart from
/// `insens` and `cutshortcut`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summaries;

impl ContextPolicy for Summaries {
    fn name(&self) -> String {
        Flavor::Summaries.spec_name()
    }
}

/// k-call-site-sensitivity with a heap-context depth (`2callH` is
/// `CallSiteSensitive::new(2, 1)`).
///
/// The callee context is the call site prepended to the caller's context,
/// truncated to `k`; the heap context of an allocation is the allocating
/// method's context truncated to `heap_k`.
#[derive(Debug, Clone, Copy)]
pub struct CallSiteSensitive {
    k: usize,
    heap_k: usize,
}

impl CallSiteSensitive {
    /// A `k`-call-site-sensitive policy with `heap_k` heap-context depth.
    pub fn new(k: usize, heap_k: usize) -> Self {
        CallSiteSensitive { k, heap_k }
    }
}

impl ContextPolicy for CallSiteSensitive {
    fn name(&self) -> String {
        let (k, heap_k) = (self.k, self.heap_k);
        Flavor::CallSite { k, heap_k }.spec_name()
    }

    fn record(&self, tables: &mut CtxTables, _heap: AllocId, ctx: CtxId) -> HCtxId {
        let elems = truncate(tables.ctx_elems(ctx).to_vec(), self.heap_k);
        tables.intern_hctx(&elems)
    }

    fn merge(
        &self,
        tables: &mut CtxTables,
        _heap: AllocId,
        _hctx: HCtxId,
        invoke: InvokeId,
        _target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        let mut elems = Vec::with_capacity(self.k);
        elems.push(ContextElem::Site(invoke));
        elems.extend_from_slice(tables.ctx_elems(caller));
        let elems = truncate(elems, self.k);
        tables.intern_ctx(&elems)
    }

    fn merge_static(
        &self,
        tables: &mut CtxTables,
        invoke: InvokeId,
        target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        // Call-site-sensitivity treats static calls like any other call.
        self.merge(tables, AllocId(0), HCtxId::EMPTY, invoke, target, caller)
    }
}

/// k-full-object-sensitivity with a heap-context depth (`2objH` is
/// `ObjectSensitive::new(2, 1)`).
///
/// The callee context is the receiver's allocation site prepended to the
/// receiver's heap context, truncated to `k` (Milanova et al.'s
/// full-object-sensitivity, as configured in the paper's baseline). Static
/// calls propagate the caller's context unchanged.
#[derive(Debug, Clone, Copy)]
pub struct ObjectSensitive {
    k: usize,
    heap_k: usize,
}

impl ObjectSensitive {
    /// A `k`-object-sensitive policy with `heap_k` heap-context depth.
    pub fn new(k: usize, heap_k: usize) -> Self {
        ObjectSensitive { k, heap_k }
    }
}

impl ContextPolicy for ObjectSensitive {
    fn name(&self) -> String {
        let (k, heap_k) = (self.k, self.heap_k);
        Flavor::Object { k, heap_k }.spec_name()
    }

    fn record(&self, tables: &mut CtxTables, _heap: AllocId, ctx: CtxId) -> HCtxId {
        let elems = truncate(tables.ctx_elems(ctx).to_vec(), self.heap_k);
        tables.intern_hctx(&elems)
    }

    fn merge(
        &self,
        tables: &mut CtxTables,
        heap: AllocId,
        hctx: HCtxId,
        _invoke: InvokeId,
        _target: MethodId,
        _caller: CtxId,
    ) -> CtxId {
        let mut elems = Vec::with_capacity(self.k);
        elems.push(ContextElem::Heap(heap));
        elems.extend_from_slice(tables.hctx_elems(hctx));
        let elems = truncate(elems, self.k);
        tables.intern_ctx(&elems)
    }

    fn merge_static(
        &self,
        _tables: &mut CtxTables,
        _invoke: InvokeId,
        _target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        caller
    }
}

/// k-type-sensitivity with a heap-context depth (`2typeH` is
/// `TypeSensitive::new(2, 1, &program)`).
///
/// Like object-sensitivity, but each context element is coarsened to the
/// class *declaring the method that contains* the receiver's allocation
/// site (Smaragdakis et al., POPL 2011 — the upcast that keeps
/// type-sensitivity comparable to object-sensitivity).
#[derive(Debug, Clone)]
pub struct TypeSensitive {
    k: usize,
    heap_k: usize,
    /// Precomputed `H → T` coarsening.
    alloc_type: Arc<IdxVec<AllocId, ClassId>>,
}

impl TypeSensitive {
    /// A `k`-type-sensitive policy with `heap_k` heap-context depth for
    /// `program`.
    pub fn new(k: usize, heap_k: usize, program: &Program) -> Self {
        let alloc_type = program
            .allocs
            .values()
            .map(|a| program.methods[a.method].class)
            .collect();
        TypeSensitive {
            k,
            heap_k,
            alloc_type: Arc::new(alloc_type),
        }
    }
}

impl ContextPolicy for TypeSensitive {
    fn name(&self) -> String {
        let (k, heap_k) = (self.k, self.heap_k);
        Flavor::Type { k, heap_k }.spec_name()
    }

    fn record(&self, tables: &mut CtxTables, _heap: AllocId, ctx: CtxId) -> HCtxId {
        let elems = truncate(tables.ctx_elems(ctx).to_vec(), self.heap_k);
        tables.intern_hctx(&elems)
    }

    fn merge(
        &self,
        tables: &mut CtxTables,
        heap: AllocId,
        hctx: HCtxId,
        _invoke: InvokeId,
        _target: MethodId,
        _caller: CtxId,
    ) -> CtxId {
        let mut elems = Vec::with_capacity(self.k);
        elems.push(ContextElem::Type(self.alloc_type[heap]));
        elems.extend_from_slice(tables.hctx_elems(hctx));
        let elems = truncate(elems, self.k);
        tables.intern_ctx(&elems)
    }

    fn merge_static(
        &self,
        _tables: &mut CtxTables,
        _invoke: InvokeId,
        _target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        caller
    }
}

/// Hybrid context-sensitivity (Kastrinis & Smaragdakis, PLDI 2013 — the
/// paper's related work \[12\]): object-sensitivity for virtual calls,
/// call-site-sensitivity for static calls, merged in one context string.
///
/// A static call pushes its call site onto the caller's context; a virtual
/// call rebuilds the context from the receiver as plain object-sensitivity
/// does. As the paper notes, for heavyweight benchmarks hybrid analyses
/// scale like their object-sensitive component — which our evaluation
/// harness can confirm empirically.
#[derive(Debug, Clone, Copy)]
pub struct HybridObjectSensitive {
    k: usize,
    heap_k: usize,
}

impl HybridObjectSensitive {
    /// A `k`-hybrid-object-sensitive policy with `heap_k` heap depth
    /// (`S2objH` is `HybridObjectSensitive::new(2, 1)`).
    pub fn new(k: usize, heap_k: usize) -> Self {
        HybridObjectSensitive { k, heap_k }
    }
}

impl ContextPolicy for HybridObjectSensitive {
    fn name(&self) -> String {
        let (k, heap_k) = (self.k, self.heap_k);
        Flavor::Hybrid { k, heap_k }.spec_name()
    }

    fn record(&self, tables: &mut CtxTables, _heap: AllocId, ctx: CtxId) -> HCtxId {
        let elems = truncate(tables.ctx_elems(ctx).to_vec(), self.heap_k);
        tables.intern_hctx(&elems)
    }

    fn merge(
        &self,
        tables: &mut CtxTables,
        heap: AllocId,
        hctx: HCtxId,
        _invoke: InvokeId,
        _target: MethodId,
        _caller: CtxId,
    ) -> CtxId {
        // Virtual dispatch: rebuild from the receiver, dropping any call
        // sites the receiver's heap context may carry beyond depth k-1.
        let mut elems = Vec::with_capacity(self.k);
        elems.push(ContextElem::Heap(heap));
        elems.extend_from_slice(tables.hctx_elems(hctx));
        let elems = truncate(elems, self.k);
        tables.intern_ctx(&elems)
    }

    fn merge_static(
        &self,
        tables: &mut CtxTables,
        invoke: InvokeId,
        _target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        // Static dispatch: remember the call site on top of the caller's
        // context (the hybrid twist).
        let mut elems = Vec::with_capacity(self.k + 1);
        elems.push(ContextElem::Site(invoke));
        elems.extend_from_slice(tables.ctx_elems(caller));
        let elems = truncate(elems, self.k + 1);
        tables.intern_ctx(&elems)
    }
}

/// The program elements selected for refinement, stored in complement form
/// (footnote 4 of the paper): the sets hold the elements that should *not*
/// be refined, because they are small.
///
/// A call site/target pair `(invo, meth)` is refined unless the invocation
/// or the target method is excluded; an object is refined unless its
/// allocation site is excluded.
#[derive(Debug, Clone)]
pub struct RefinementSet {
    /// Allocation sites that must keep the default (cheap) context.
    pub no_refine_objects: IdBitSet<AllocId>,
    /// Invocation sites whose calls keep the default context.
    pub no_refine_invokes: IdBitSet<InvokeId>,
    /// Methods whose invocations keep the default context (any call site).
    pub no_refine_methods: IdBitSet<MethodId>,
}

impl RefinementSet {
    /// A refinement set that refines everything (both exclusion sets empty):
    /// equivalent to running the refined policy unconditionally.
    pub fn refine_all(program: &Program) -> Self {
        RefinementSet {
            no_refine_objects: IdBitSet::new(program.allocs.len()),
            no_refine_invokes: IdBitSet::new(program.invokes.len()),
            no_refine_methods: IdBitSet::new(program.methods.len()),
        }
    }

    /// The model's `OBJECTTOREFINE(heap)`: should this object be analyzed
    /// with the refined (precise) context?
    #[inline]
    pub fn object_refined(&self, heap: AllocId) -> bool {
        !self.no_refine_objects.contains(heap)
    }

    /// The model's `SITETOREFINE(invo, meth)`: should this call be analyzed
    /// with the refined (precise) context?
    #[inline]
    pub fn site_refined(&self, invoke: InvokeId, target: MethodId) -> bool {
        !self.no_refine_invokes.contains(invoke) && !self.no_refine_methods.contains(target)
    }
}

/// Introspective context-sensitivity: per-element choice between a
/// *default* (cheap) and a *refined* (precise) policy.
///
/// This is the paper's §2 model collapsed into a policy: the duplicated
/// rules with `RECORD`/`RECORDREFINED` and `MERGE`/`MERGEREFINED` guarded
/// by the (complement-form) refinement sets.
#[derive(Debug)]
pub struct Introspective<D, R> {
    default: D,
    refined: R,
    refinement: RefinementSet,
    label: String,
}

impl<D: ContextPolicy, R: ContextPolicy> Introspective<D, R> {
    /// A policy applying `refined` to refined elements and `default`
    /// elsewhere, per `refinement`. `label` names the heuristic for
    /// reports, e.g. `"IntroA"`.
    pub fn new(default: D, refined: R, refinement: RefinementSet, label: &str) -> Self {
        let label = format!("{}-{}", refined.name(), label);
        Introspective {
            default,
            refined,
            refinement,
            label,
        }
    }

    /// The refinement decisions this policy applies.
    pub fn refinement(&self) -> &RefinementSet {
        &self.refinement
    }
}

impl<D: ContextPolicy, R: ContextPolicy> ContextPolicy for Introspective<D, R> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn record(&self, tables: &mut CtxTables, heap: AllocId, ctx: CtxId) -> HCtxId {
        if self.refinement.object_refined(heap) {
            self.refined.record(tables, heap, ctx)
        } else {
            self.default.record(tables, heap, ctx)
        }
    }

    fn merge(
        &self,
        tables: &mut CtxTables,
        heap: AllocId,
        hctx: HCtxId,
        invoke: InvokeId,
        target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        if self.refinement.site_refined(invoke, target) {
            self.refined
                .merge(tables, heap, hctx, invoke, target, caller)
        } else {
            self.default
                .merge(tables, heap, hctx, invoke, target, caller)
        }
    }

    fn merge_static(
        &self,
        tables: &mut CtxTables,
        invoke: InvokeId,
        target: MethodId,
        caller: CtxId,
    ) -> CtxId {
        if self.refinement.site_refined(invoke, target) {
            self.refined.merge_static(tables, invoke, target, caller)
        } else {
            self.default.merge_static(tables, invoke, target, caller)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        let mut b = rudoop_ir::ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn insensitive_always_returns_empty() {
        let mut t = CtxTables::new();
        let p = Insensitive;
        assert_eq!(p.record(&mut t, AllocId(3), CtxId::EMPTY), HCtxId::EMPTY);
        assert_eq!(
            p.merge(
                &mut t,
                AllocId(3),
                HCtxId::EMPTY,
                InvokeId(1),
                MethodId(0),
                CtxId::EMPTY
            ),
            CtxId::EMPTY
        );
        assert_eq!(t.ctx_count(), 1);
    }

    #[test]
    fn call_site_pushes_and_truncates() {
        let mut t = CtxTables::new();
        let p = CallSiteSensitive::new(2, 1);
        let c1 = p.merge_static(&mut t, InvokeId(1), MethodId(0), CtxId::EMPTY);
        let c2 = p.merge_static(&mut t, InvokeId(2), MethodId(0), c1);
        let c3 = p.merge_static(&mut t, InvokeId(3), MethodId(0), c2);
        assert_eq!(
            t.ctx_elems(c2),
            &[
                ContextElem::Site(InvokeId(2)),
                ContextElem::Site(InvokeId(1))
            ]
        );
        assert_eq!(
            t.ctx_elems(c3),
            &[
                ContextElem::Site(InvokeId(3)),
                ContextElem::Site(InvokeId(2))
            ]
        );
    }

    #[test]
    fn call_site_heap_context_takes_allocating_context_prefix() {
        let mut t = CtxTables::new();
        let p = CallSiteSensitive::new(2, 1);
        let c = p.merge_static(&mut t, InvokeId(9), MethodId(0), CtxId::EMPTY);
        let h = p.record(&mut t, AllocId(0), c);
        assert_eq!(t.hctx_elems(h), &[ContextElem::Site(InvokeId(9))]);
    }

    #[test]
    fn object_sensitive_context_is_receiver_chain() {
        let mut t = CtxTables::new();
        let p = ObjectSensitive::new(2, 1);
        // Receiver o1 with empty heap ctx: callee ctx = [o1].
        let c1 = p.merge(
            &mut t,
            AllocId(1),
            HCtxId::EMPTY,
            InvokeId(0),
            MethodId(0),
            CtxId::EMPTY,
        );
        assert_eq!(t.ctx_elems(c1), &[ContextElem::Heap(AllocId(1))]);
        // Object o2 allocated under c1: heap ctx = [o1].
        let h2 = p.record(&mut t, AllocId(2), c1);
        assert_eq!(t.hctx_elems(h2), &[ContextElem::Heap(AllocId(1))]);
        // Call on (o2, [o1]): callee ctx = [o2, o1].
        let c2 = p.merge(
            &mut t,
            AllocId(2),
            h2,
            InvokeId(0),
            MethodId(0),
            CtxId::EMPTY,
        );
        assert_eq!(
            t.ctx_elems(c2),
            &[ContextElem::Heap(AllocId(2)), ContextElem::Heap(AllocId(1))]
        );
        // Static calls pass the caller context through.
        assert_eq!(p.merge_static(&mut t, InvokeId(5), MethodId(0), c2), c2);
    }

    #[test]
    fn type_sensitive_coarsens_to_allocator_class() {
        let program = tiny_program();
        let mut t = CtxTables::new();
        let p = TypeSensitive::new(2, 1, &program);
        let c = p.merge(
            &mut t,
            AllocId(0),
            HCtxId::EMPTY,
            InvokeId(0),
            MethodId(0),
            CtxId::EMPTY,
        );
        assert_eq!(t.ctx_elems(c), &[ContextElem::Type(ClassId(0))]);
    }

    #[test]
    fn introspective_dispatches_per_element() {
        let program = tiny_program();
        let mut refinement = RefinementSet::refine_all(&program);
        refinement.no_refine_objects.insert(AllocId(0));
        let p = Introspective::new(
            Insensitive,
            ObjectSensitive::new(2, 1),
            refinement,
            "IntroT",
        );
        let mut t = CtxTables::new();
        // AllocId(0) excluded: default (insensitive) record.
        let deep = t.intern_ctx(&[ContextElem::Heap(AllocId(0))]);
        assert_eq!(p.record(&mut t, AllocId(0), deep), HCtxId::EMPTY);
        // Sites are all refined: merge builds an object-sensitive context.
        let c = p.merge(
            &mut t,
            AllocId(0),
            HCtxId::EMPTY,
            InvokeId(0),
            MethodId(0),
            CtxId::EMPTY,
        );
        assert_eq!(t.ctx_elems(c), &[ContextElem::Heap(AllocId(0))]);
        assert!(p.name().contains("IntroT"));
    }

    #[test]
    fn refinement_set_semantics_match_complement_form() {
        let program = tiny_program();
        let mut r = RefinementSet::refine_all(&program);
        assert!(r.object_refined(AllocId(0)));
        assert!(r.site_refined(InvokeId(0), MethodId(0)));
        r.no_refine_methods.insert(MethodId(0));
        assert!(!r.site_refined(InvokeId(0), MethodId(0)));
    }

    #[test]
    fn policy_names_are_doop_style() {
        let program = tiny_program();
        assert_eq!(Insensitive.name(), "insens");
        assert_eq!(CutShortcut.name(), "cutshortcut");
        assert_eq!(Summaries.name(), "summaries");
        assert_eq!(CallSiteSensitive::new(2, 1).name(), "2callH");
        assert_eq!(ObjectSensitive::new(2, 1).name(), "2objH");
        assert_eq!(TypeSensitive::new(2, 1, &program).name(), "2typeH");
        assert_eq!(HybridObjectSensitive::new(2, 1).name(), "S2objH");
    }

    #[test]
    fn hybrid_pushes_sites_for_static_and_objects_for_virtual() {
        let mut t = CtxTables::new();
        let p = HybridObjectSensitive::new(2, 1);
        // Static call from the empty context: remembers the site.
        let c1 = p.merge_static(&mut t, InvokeId(5), MethodId(0), CtxId::EMPTY);
        assert_eq!(t.ctx_elems(c1), &[ContextElem::Site(InvokeId(5))]);
        // Virtual call inside it: rebuilds from the receiver.
        let c2 = p.merge(
            &mut t,
            AllocId(3),
            HCtxId::EMPTY,
            InvokeId(9),
            MethodId(0),
            c1,
        );
        assert_eq!(t.ctx_elems(c2), &[ContextElem::Heap(AllocId(3))]);
        // Static call inside a virtual context keeps the object below.
        let c3 = p.merge_static(&mut t, InvokeId(7), MethodId(0), c2);
        assert_eq!(
            t.ctx_elems(c3),
            &[
                ContextElem::Site(InvokeId(7)),
                ContextElem::Heap(AllocId(3))
            ]
        );
    }
}
