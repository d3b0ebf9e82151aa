//! The Figure-3 rules and every flavor hook, over one propagation graph.
//!
//! [`Core`] holds the solver state — a [`NodeTable`] whose nodes are
//! named by their `u32` index, plus the interning tables and the derived
//! relations — and the rules that grow it. A rule's points-to insertion
//! takes effect at once and queues the node for the worklist drain in
//! [`crate::solver`]. The rules are:
//!
//! - node interning for context-qualified variables, field slots and
//!   static fields, under the node-capacity cap,
//! - the REACHABLE-guarded instruction rules ([`Core::instantiate`]),
//! - CALLGRAPH plus INTERPROCASSIGN, with the cut-shortcut identity,
//!   setter and getter rerouting and the summaries engine's per-site atom
//!   instantiation ([`Core::add_call_edge`]),
//! - the VCALL rule ([`Core::process_receiver_call`]),
//! - the per-object load/store handlers the drains call when an object
//!   reaches a registered base ([`Core::load_obj`], [`Core::store_obj`]),
//! - the deterministic stopping check and the result projection
//!   ([`Core::finish`]).
//!
//! The propagation schedule, the semi-naive drain of one node's delta at
//! a time, lives in [`crate::solver`].

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use rudoop_ir::{
    AllocId, ClassHierarchy, ClassId, FieldId, GlobalId, IdxVec, Instruction, InvokeId, InvokeKind,
    MethodId, Program, VarId,
};

use crate::bitset::{IdBitSet, ObjSet};
use crate::context::{CObj, CtxId, CtxTables, HCtxId};
use crate::cutshortcut::ParamCut;
use crate::hash::{FxHashMap, FxHashSet};
use crate::policy::ContextPolicy;
use crate::solver::{
    model_bytes, CsDump, ExhaustionCause, Outcome, PointsToResult, SolverConfig, SolverError,
    SolverStats,
};
use crate::summaries::SummaryAtom;

/// What a propagation-graph node denotes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeKind {
    /// A context-qualified variable.
    Var(VarId, CtxId),
    /// A field of a context-qualified object.
    Field(CObj, FieldId),
    /// A static field: one context-insensitive slot program-wide.
    Global(GlobalId),
}

/// The per-node tables of the propagation graph, with its semi-naive
/// worklist. A node is named by its `u32` index, which successor lists
/// hold. Points-to sets and deltas hold interned object ids (see
/// [`Core::intern_obj`]).
#[derive(Debug, Default)]
pub(crate) struct NodeTable {
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) pts: Vec<ObjSet>,
    pub(crate) delta: Vec<Vec<u32>>,
    pub(crate) succ: Vec<Vec<u32>>,
    /// Cast-filtered copy edges: only objects conforming to the class pass.
    pub(crate) filter_succ: Vec<Vec<(ClassId, u32)>>,
    pub(crate) loads: Vec<Vec<(FieldId, u32)>>,
    pub(crate) stores: Vec<Vec<(FieldId, u32)>>,
    pub(crate) calls: Vec<Vec<InvokeId>>,
    pub(crate) node_ctx: Vec<CtxId>,
    in_worklist: Vec<bool>,
    worklist: VecDeque<u32>,
    /// Points-to tuple insertions into this table (the points-to share of
    /// the budget currency).
    pub(crate) derivations: u64,
}

impl NodeTable {
    /// Appends a node; returns its index.
    pub(crate) fn push(&mut self, kind: NodeKind, ctx: CtxId) -> u32 {
        let idx = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.pts.push(ObjSet::default());
        self.delta.push(Vec::new());
        self.succ.push(Vec::new());
        self.filter_succ.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.calls.push(Vec::new());
        self.node_ctx.push(ctx);
        self.in_worklist.push(false);
        idx
    }

    /// Inserts `obj` into node `idx`'s points-to set; on a new tuple,
    /// counts it and schedules semi-naive follow-up.
    pub(crate) fn add_local(&mut self, idx: usize, obj: u32) {
        if self.pts[idx].insert(obj) {
            self.delta[idx].push(obj);
            self.schedule(idx, 1);
        }
    }

    /// Inserts every object of node `from` into node `to` (`from != to`):
    /// the same tuples, delta order, count and worklist push as
    /// [`Self::add_local`] per object in increasing id order, but merged a
    /// word at a time where both sets are dense.
    pub(crate) fn add_sorted(&mut self, from: usize, to: usize) {
        let src = std::mem::take(&mut self.pts[from]);
        let added = self.pts[to].union_sorted(&src, &mut self.delta[to]);
        self.pts[from] = src;
        if added > 0 {
            self.schedule(to, added);
        }
    }

    /// Counts `added` new tuples at node `idx` and queues it for its
    /// semi-naive follow-up.
    fn schedule(&mut self, idx: usize, added: usize) {
        self.derivations += added as u64;
        if !self.in_worklist[idx] {
            self.in_worklist[idx] = true;
            self.worklist.push_back(idx as u32);
        }
    }

    /// Pops the next node with pending work.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let idx = self.worklist.pop_front()? as usize;
        self.in_worklist[idx] = false;
        Some(idx)
    }
}

/// Whether object `obj` (an id into `objs`) passes a cast to `class`
/// (Doop's assign-cast filtering).
pub(crate) fn cast_admits(
    program: &Program,
    hierarchy: &ClassHierarchy,
    objs: &[CObj],
    obj: u32,
    class: ClassId,
) -> bool {
    hierarchy.is_subtype(program.allocs[objs[obj as usize].heap()].class, class)
}

/// The solver state and the rules over it.
pub(crate) struct Core<'p> {
    pub(crate) program: &'p Program,
    pub(crate) hierarchy: &'p ClassHierarchy,
    pub(crate) policy: &'p dyn ContextPolicy,
    pub(crate) config: SolverConfig,
    pub(crate) tables: CtxTables,
    pub(crate) graph: NodeTable,
    /// Every context-qualified object, indexed by its interned id: points-to
    /// sets and deltas carry the id.
    pub(crate) objs: Vec<CObj>,
    obj_ids: FxHashMap<u64, u32>,
    var_nodes: FxHashMap<u64, u32>,
    /// Keyed by `obj_id << 32 | field`.
    field_nodes: FxHashMap<u64, u32>,
    global_nodes: FxHashMap<u32, u32>,
    edge_set: FxHashSet<(u32, u32)>,
    reachable: FxHashSet<u64>,
    cg_edges: FxHashSet<(u64, u64)>,
    /// Reachable `(method, ctx)` pairs whose bodies are not yet
    /// instantiated.
    pub(crate) inst_queue: VecDeque<(MethodId, CtxId)>,
    node_cap: usize,
    start: Instant,
    pub(crate) exhausted: Option<ExhaustionCause>,
}

impl<'p> Core<'p> {
    pub(crate) fn new(
        program: &'p Program,
        hierarchy: &'p ClassHierarchy,
        policy: &'p dyn ContextPolicy,
        config: SolverConfig,
    ) -> Self {
        let node_cap = config
            .max_nodes
            .unwrap_or(u32::MAX as usize)
            .min(u32::MAX as usize);
        let mut tables = CtxTables::new();
        if let Some(limit) = config.max_contexts {
            tables.set_capacity(limit);
        }
        Core {
            program,
            hierarchy,
            policy,
            config,
            tables,
            graph: NodeTable::default(),
            objs: Vec::new(),
            obj_ids: FxHashMap::default(),
            var_nodes: FxHashMap::default(),
            field_nodes: FxHashMap::default(),
            global_nodes: FxHashMap::default(),
            edge_set: FxHashSet::default(),
            reachable: FxHashSet::default(),
            cg_edges: FxHashSet::default(),
            inst_queue: VecDeque::new(),
            node_cap,
            start: Instant::now(),
            exhausted: None,
        }
    }

    /// Allocates a propagation-graph node. Fails (instead of panicking)
    /// when the node table is at capacity; the solver stops the run with
    /// [`Outcome::CapacityExceeded`].
    fn new_node(&mut self, kind: NodeKind, ctx: CtxId) -> Result<u32, SolverError> {
        if self.graph.kinds.len() >= self.node_cap {
            return Err(SolverError::NodeCapacity {
                limit: self.node_cap,
            });
        }
        Ok(self.graph.push(kind, ctx))
    }

    fn var_node(&mut self, var: VarId, ctx: CtxId) -> Result<u32, SolverError> {
        let key = (u64::from(var.0) << 32) | u64::from(ctx.0);
        if let Some(&n) = self.var_nodes.get(&key) {
            return Ok(n);
        }
        let n = self.new_node(NodeKind::Var(var, ctx), ctx)?;
        self.var_nodes.insert(key, n);
        Ok(n)
    }

    /// The id of `obj`, interned on first sight. Objects are created only
    /// by the `Alloc` instruction and the `AllocToRet` summary atom; every
    /// other rule moves ids.
    fn intern_obj(&mut self, obj: CObj) -> u32 {
        let next = self.objs.len() as u32;
        let id = *self.obj_ids.entry(obj.0).or_insert(next);
        if id == next {
            self.objs.push(obj);
        }
        id
    }

    fn field_node(&mut self, obj: u32, field: FieldId) -> Result<u32, SolverError> {
        let key = (u64::from(obj) << 32) | u64::from(field.0);
        if let Some(&n) = self.field_nodes.get(&key) {
            return Ok(n);
        }
        let kind = NodeKind::Field(self.objs[obj as usize], field);
        let n = self.new_node(kind, CtxId::EMPTY)?;
        self.field_nodes.insert(key, n);
        Ok(n)
    }

    fn global_node(&mut self, global: GlobalId) -> Result<u32, SolverError> {
        if let Some(&n) = self.global_nodes.get(&global.0) {
            return Ok(n);
        }
        let n = self.new_node(NodeKind::Global(global), CtxId::EMPTY)?;
        self.global_nodes.insert(global.0, n);
        Ok(n)
    }

    /// Adds a copy edge; objects already at `from` traverse it at once,
    /// and later arrivals follow it when the drain walks `from`'s
    /// successors.
    fn add_edge(&mut self, from: u32, to: u32) {
        if from == to || !self.edge_set.insert((from, to)) {
            return;
        }
        let i = from as usize;
        self.graph.succ[i].push(to);
        if !self.graph.pts[i].is_empty() {
            self.graph.add_sorted(i, to as usize);
        }
    }

    /// A copy edge that only lets objects whose class conforms to `class`
    /// through (Doop's assign-cast filtering).
    fn add_filtered_edge(&mut self, from: u32, to: u32, class: ClassId) {
        let i = from as usize;
        self.graph.filter_succ[i].push((class, to));
        for o in self.graph.pts[i].iter().collect::<Vec<_>>() {
            if cast_admits(self.program, self.hierarchy, &self.objs, o, class) {
                self.graph.add_local(to as usize, o);
            }
        }
    }

    /// `obj` reached the base of a registered load: `obj.field → to`.
    pub(crate) fn load_obj(
        &mut self,
        field: FieldId,
        to: u32,
        obj: u32,
    ) -> Result<(), SolverError> {
        let fnode = self.field_node(obj, field)?;
        self.add_edge(fnode, to);
        Ok(())
    }

    /// `obj` reached the base of a registered store: `from → obj.field`.
    pub(crate) fn store_obj(
        &mut self,
        from: u32,
        field: FieldId,
        obj: u32,
    ) -> Result<(), SolverError> {
        let fnode = self.field_node(obj, field)?;
        self.add_edge(from, fnode);
        Ok(())
    }

    /// Registers the load `to = base.field` and applies it to the objects
    /// already at `base` (copied out first, since applying it derives
    /// more); later arrivals are the drain's job.
    fn register_load(&mut self, base: u32, field: FieldId, to: u32) -> Result<(), SolverError> {
        self.graph.loads[base as usize].push((field, to));
        for o in self.graph.pts[base as usize].iter().collect::<Vec<_>>() {
            self.load_obj(field, to, o)?;
        }
        Ok(())
    }

    /// Registers the store `base.field = from`, like [`Self::register_load`].
    fn register_store(&mut self, base: u32, field: FieldId, from: u32) -> Result<(), SolverError> {
        self.graph.stores[base as usize].push((field, from));
        for o in self.graph.pts[base as usize].iter().collect::<Vec<_>>() {
            self.store_obj(from, field, o)?;
        }
        Ok(())
    }

    fn ensure_reachable(&mut self, method: MethodId, ctx: CtxId) {
        let key = (u64::from(method.0) << 32) | u64::from(ctx.0);
        if self.reachable.insert(key) {
            self.inst_queue.push_back((method, ctx));
        }
    }

    /// Marks every entry point reachable under the empty context.
    pub(crate) fn seed_entries(&mut self) {
        for &entry in &self.program.entry_points {
            self.ensure_reachable(entry, CtxId::EMPTY);
        }
    }

    /// Receiver variable of `invoke`, when it has one (virtual/special
    /// calls and spawns; `None` for static calls).
    fn invoke_base(&self, invoke: InvokeId) -> Option<VarId> {
        match self.program.invokes[invoke].kind {
            InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => Some(base),
            InvokeKind::Static { .. } => None,
        }
    }

    /// The CALLGRAPH head plus INTERPROCASSIGN rules: adds a call edge and,
    /// if new, the argument/return copy edges and callee reachability.
    fn add_call_edge(
        &mut self,
        invoke: InvokeId,
        caller: CtxId,
        target: MethodId,
        callee: CtxId,
    ) -> Result<(), SolverError> {
        let key = (
            (u64::from(invoke.0) << 32) | u64::from(caller.0),
            (u64::from(target.0) << 32) | u64::from(callee.0),
        );
        if !self.cg_edges.insert(key) {
            return Ok(());
        }
        self.ensure_reachable(target, callee);
        let program = self.program;
        let inv = &program.invokes[invoke];
        let callee_m = &program.methods[target];
        let n_args = inv.args.len().min(callee_m.params.len());
        let cuts = self.config.cuts.clone();
        let cuts = cuts.as_deref();
        for (i, &arg) in inv.args[..n_args].iter().enumerate() {
            match cuts.and_then(|c| c.param_cut(target, i)) {
                // Identity cut: the actual flows straight to the call's
                // result, never through the shared formal. A result-less
                // call site drops the value entirely (the callee provably
                // only returned it).
                Some(ParamCut::Identity) => {
                    if let Some(result) = inv.result {
                        let from = self.var_node(arg, caller)?;
                        let to = self.var_node(result, caller)?;
                        self.add_edge(from, to);
                    }
                }
                // Setter cut: store the actual into the field of *this
                // site's* receiver objects — registered on the base
                // variable exactly like a `Store` instruction, so later
                // receivers are handled by the drain.
                Some(ParamCut::Setter(field)) => {
                    if let Some(base) = self.invoke_base(invoke) {
                        let b = self.var_node(base, caller)?;
                        let f = self.var_node(arg, caller)?;
                        self.register_store(b, field, f)?;
                    }
                }
                None => {
                    let from = self.var_node(arg, caller)?;
                    let to = self.var_node(callee_m.params[i], callee)?;
                    self.add_edge(from, to);
                }
            }
        }
        if let (Some(result), Some(ret)) = (inv.result, callee_m.ret) {
            // Distilled summary: instantiate the callee's atoms at this
            // site instead of the conflating `ret → result` edge — the
            // summary-based compositional engine.
            let summaries = self.config.summaries.clone();
            if let Some(atoms) = summaries.as_deref().and_then(|t| t.distilled_atoms(target)) {
                return self.instantiate_summary(invoke, caller, callee, result, atoms);
            }
            // Getter cut: load the field off *this site's* receiver objects
            // straight into the result, skipping the shared formal return.
            let getter = cuts
                .and_then(|c| c.getter_return(target))
                .and_then(|field| self.invoke_base(invoke).map(|base| (field, base)));
            if let Some((field, base)) = getter {
                let b = self.var_node(base, caller)?;
                let to = self.var_node(result, caller)?;
                self.register_load(b, field, to)?;
            } else {
                let from = self.var_node(ret, callee)?;
                let to = self.var_node(result, caller)?;
                self.add_edge(from, to);
            }
        }
        Ok(())
    }

    /// Instantiates a distilled method summary at one call site: each atom
    /// becomes a shortcut edge from the callee's formal parameter
    /// (`ParamToRet`) or the global slot (`GlobalToRet`), a
    /// receiver-registered load (`ThisFieldToRet`, handled exactly like a
    /// getter cut), or a direct object insertion (`AllocToRet`, under the
    /// empty heap context the summaries policy records).
    ///
    /// `ParamToRet` deliberately reads the *formal* parameter (the union
    /// over all call sites) of the method the atom names — the summarized
    /// callee itself, or a transitive callee for atoms inherited through
    /// composition — not this site's actual argument: a per-site argument
    /// edge would make summaries strictly more precise than `2objH`
    /// wherever that flavor conflates call sites (static calls, shared
    /// receiver objects, conflated inner callees), breaking the pinned
    /// soundness chain `pts(2objH) ⊆ pts(summaries)`. The per-site
    /// precision win comes from `ThisFieldToRet`, which filters the field
    /// read through this site's receiver objects only. The formal is read
    /// under `callee` — the summaries policy is context-free, so this is
    /// the single context every method runs under.
    fn instantiate_summary(
        &mut self,
        invoke: InvokeId,
        caller: CtxId,
        callee: CtxId,
        result: VarId,
        atoms: &[SummaryAtom],
    ) -> Result<(), SolverError> {
        let to = self.var_node(result, caller)?;
        for &atom in atoms {
            match atom {
                SummaryAtom::ParamToRet(m, i) => {
                    let param = self.program.methods[m].params[i];
                    let from = self.var_node(param, callee)?;
                    self.add_edge(from, to);
                }
                SummaryAtom::ThisFieldToRet(field) => {
                    if let Some(base) = self.invoke_base(invoke) {
                        let b = self.var_node(base, caller)?;
                        self.register_load(b, field, to)?;
                    }
                }
                SummaryAtom::AllocToRet(h) => {
                    let obj = self.intern_obj(CObj::new(h, HCtxId::EMPTY));
                    self.graph.add_local(to as usize, obj);
                }
                SummaryAtom::GlobalToRet(g) => {
                    let from = self.global_node(g)?;
                    self.add_edge(from, to);
                }
            }
        }
        Ok(())
    }

    /// The VCALL rule: one receiver object (an interned id) arriving at the
    /// base variable of a virtual or special call.
    pub(crate) fn process_receiver_call(
        &mut self,
        invoke: InvokeId,
        caller: CtxId,
        id: u32,
    ) -> Result<(), SolverError> {
        let obj = self.objs[id as usize];
        let target = match self.program.invokes[invoke].kind {
            InvokeKind::Virtual { sig, .. } => {
                let class = self.program.allocs[obj.heap()].class;
                match self.hierarchy.lookup(class, sig) {
                    Some(t) => t,
                    None => return Ok(()), // no method of this signature: dead dispatch
                }
            }
            InvokeKind::Special { target, .. } => target,
            // Static calls are never registered as receiver calls; keep the
            // release hot path panic-free regardless.
            InvokeKind::Static { .. } => {
                debug_assert!(false, "static calls are not receiver calls");
                return Ok(());
            }
        };
        let callee = self.policy.merge(
            &mut self.tables,
            obj.heap(),
            obj.hctx(),
            invoke,
            target,
            caller,
        );
        if let Some(this) = self.program.methods[target].this {
            let tnode = self.var_node(this, callee)?;
            self.graph.add_local(tnode as usize, id);
        }
        self.add_call_edge(invoke, caller, target, callee)
    }

    /// Instantiates the body of `method` under `ctx`: the REACHABLE-guarded
    /// premises of every rule in Figure 3.
    pub(crate) fn instantiate(&mut self, method: MethodId, ctx: CtxId) -> Result<(), SolverError> {
        let program = self.program;
        for instr in &program.methods[method].body {
            match *instr {
                Instruction::Alloc { var, alloc } => {
                    let hctx = self.policy.record(&mut self.tables, alloc, ctx);
                    let node = self.var_node(var, ctx)?;
                    let obj = self.intern_obj(CObj::new(alloc, hctx));
                    self.graph.add_local(node as usize, obj);
                }
                Instruction::Move { to, from } => {
                    let f = self.var_node(from, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    self.add_edge(f, t);
                }
                Instruction::Cast { to, from, class } => {
                    let f = self.var_node(from, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    if self.config.filter_casts {
                        self.add_filtered_edge(f, t, class);
                    } else {
                        self.add_edge(f, t);
                    }
                }
                Instruction::Load { to, base, field } => {
                    let b = self.var_node(base, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    self.register_load(b, field, t)?;
                }
                Instruction::Store { base, field, from } => {
                    let b = self.var_node(base, ctx)?;
                    let f = self.var_node(from, ctx)?;
                    self.register_store(b, field, f)?;
                }
                Instruction::LoadGlobal { to, global } => {
                    let g = self.global_node(global)?;
                    let t = self.var_node(to, ctx)?;
                    self.add_edge(g, t);
                }
                Instruction::StoreGlobal { global, from } => {
                    let f = self.var_node(from, ctx)?;
                    let g = self.global_node(global)?;
                    self.add_edge(f, g);
                }
                Instruction::Return { var } => {
                    if let Some(ret) = program.methods[method].ret {
                        let f = self.var_node(var, ctx)?;
                        let t = self.var_node(ret, ctx)?;
                        self.add_edge(f, t);
                    }
                }
                // A spawn's implied `var.run()` call resolves like any other
                // call: its call-graph edges *are* the thread-creation
                // graph the race client consumes.
                Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                    match program.invokes[invoke].kind {
                        InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => {
                            let b = self.var_node(base, ctx)?;
                            self.graph.calls[b as usize].push(invoke);
                            for o in self.graph.pts[b as usize].iter().collect::<Vec<_>>() {
                                self.process_receiver_call(invoke, ctx, o)?;
                            }
                        }
                        InvokeKind::Static { target } => {
                            let callee =
                                self.policy
                                    .merge_static(&mut self.tables, invoke, target, ctx);
                            self.add_call_edge(invoke, ctx, target, callee)?;
                        }
                    }
                }
                // Join and monitor instructions constrain the race client's
                // happens-before/lock-set reasoning only; they neither
                // create nor move references.
                Instruction::Join { .. }
                | Instruction::MonitorEnter { .. }
                | Instruction::MonitorExit { .. } => {}
            }
        }
        Ok(())
    }

    /// Tuple insertions so far: the points-to share plus one per call-graph
    /// edge — the budget currency.
    pub(crate) fn derivations(&self) -> u64 {
        self.graph.derivations + self.cg_edges.len() as u64
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.config
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
    }

    pub(crate) fn over_deadline(&self) -> bool {
        self.config
            .budget
            .max_duration
            .is_some_and(|max| self.start.elapsed() > max)
    }

    /// The stopping check, evaluated between units of work. The first
    /// matching cause wins, in deterministic order: cancellation,
    /// context-table overflow, derivation budget, memory budget, wall
    /// clock.
    pub(crate) fn stop_cause(&self) -> Option<ExhaustionCause> {
        if self.is_cancelled() {
            return Some(ExhaustionCause::Cancelled);
        }
        if self.tables.overflowed() {
            return Some(ExhaustionCause::ContextTable);
        }
        if let Some(max) = self.config.budget.max_derivations {
            if self.derivations() > max {
                return Some(ExhaustionCause::Derivations);
            }
        }
        if let Some(max) = self.config.budget.max_bytes {
            let bytes = model_bytes(
                self.graph.kinds.len() as u64,
                self.edge_set.len() as u64,
                self.derivations(),
                self.tables.ctx_count() as u64,
                self.tables.hctx_count() as u64,
                self.reachable.len() as u64,
            );
            if bytes > max {
                return Some(ExhaustionCause::Memory);
            }
        }
        // An Instant read is ~20ns per check: cheap enough not to amortize.
        if self.over_deadline() {
            return Some(ExhaustionCause::WallClock);
        }
        None
    }

    /// Projects the context-sensitive relations onto the client-facing
    /// [`PointsToResult`] (plus, when recording, the final node table as
    /// its [`CsDump`]). What the result takes is moved out; the rest of
    /// the working tables stay behind for the caller to drop.
    pub(crate) fn finish(&mut self) -> PointsToResult {
        let duration = self.start.elapsed();

        // Every node's set, keyed by the projected relation it feeds.
        let mut var_sets: Vec<(VarId, &ObjSet)> = Vec::new();
        let mut field_sets: Vec<((AllocId, FieldId), &ObjSet)> = Vec::new();
        let mut global_sets: Vec<(GlobalId, &ObjSet)> = Vec::new();
        let mut cs_var = 0u64;
        let mut cs_field = 0u64;
        for (kind, pts) in self.graph.kinds.iter().zip(&self.graph.pts) {
            match *kind {
                NodeKind::Var(v, _) => {
                    cs_var += pts.len() as u64;
                    var_sets.push((v, pts));
                }
                NodeKind::Field(base, field) => {
                    cs_field += pts.len() as u64;
                    field_sets.push(((base.heap(), field), pts));
                }
                NodeKind::Global(global) => global_sets.push((global, pts)),
            }
        }
        let mut projection = Projection::new(
            self.objs.iter().map(|o| o.heap()).collect(),
            self.program.allocs.len(),
        );
        let mut var_pts: IdxVec<VarId, Vec<AllocId>> =
            (0..self.program.vars.len()).map(|_| Vec::new()).collect();
        projection.union_by_key(var_sets, |v, set| var_pts[v] = set);
        let mut field_pts: FxHashMap<(AllocId, FieldId), Vec<AllocId>> = FxHashMap::default();
        projection.union_by_key(field_sets, |key, set| {
            field_pts.insert(key, set);
        });
        let mut global_pts: FxHashMap<GlobalId, Vec<AllocId>> = FxHashMap::default();
        projection.union_by_key(global_sets, |global, set| {
            global_pts.insert(global, set);
        });

        let mut call_targets: FxHashMap<InvokeId, Vec<MethodId>> = FxHashMap::default();
        for &(ic, mc) in &self.cg_edges {
            let invoke = InvokeId((ic >> 32) as u32);
            let target = MethodId((mc >> 32) as u32);
            call_targets.entry(invoke).or_default().push(target);
        }
        for set in call_targets.values_mut() {
            set.sort_unstable();
            set.dedup();
        }

        let mut reachable_methods = IdBitSet::new(self.program.methods.len());
        for &key in &self.reachable {
            let m = MethodId((key >> 32) as u32);
            reachable_methods.insert(m);
        }

        let stats = SolverStats {
            derivations: self.derivations(),
            cs_var_points_to: cs_var,
            cs_field_points_to: cs_field,
            call_graph_edges: self.cg_edges.len() as u64,
            reachable_contexts: self.reachable.len() as u64,
            contexts: self.tables.ctx_count() as u64,
            heap_contexts: self.tables.hctx_count() as u64,
            nodes: self.graph.kinds.len() as u64,
            edges: self.edge_set.len() as u64,
            duration,
        };
        // The clients read the final node table itself: move it out
        // rather than drop it.
        let cs_dump = self.config.record_contexts.then(|| CsDump {
            kinds: std::mem::take(&mut self.graph.kinds),
            pts: std::mem::take(&mut self.graph.pts),
            objs: std::mem::take(&mut self.objs),
            cg_edges: std::mem::take(&mut self.cg_edges),
            reachable: std::mem::take(&mut self.reachable),
            index: OnceLock::new(),
        });

        PointsToResult {
            analysis: self.policy.name(),
            outcome: match self.exhausted {
                None => Outcome::Complete,
                Some(cause) if cause.is_capacity() => Outcome::CapacityExceeded,
                Some(_) => Outcome::BudgetExhausted,
            },
            exhaustion: self.exhausted,
            stats,
            var_pts,
            field_pts,
            global_pts,
            call_targets,
            reachable_methods,
            tables: std::mem::take(&mut self.tables),
            cs_dump,
        }
    }
}

/// The context-collapsing projection of points-to sets onto allocation
/// sites. A key with one small set maps its at most 32 ids to sites, then
/// sorts and deduplicates them. Any other key marks each object's site in
/// the `sites` bitset and reads it out in increasing order, clearing only
/// the touched words, so its output needs no dedup and no sort. When such
/// a key has several dense sets (one per context), they are first ORed
/// into `acc`, so an object the contexts share is looked up once.
struct Projection {
    /// Allocation site of each interned object.
    heap_of: Vec<AllocId>,
    /// The union of the current key's dense sets, as object-id bitset
    /// words; all zero between keys.
    acc: Vec<u64>,
    /// The current key's allocation sites, one bit each; all zero between
    /// keys.
    sites: Vec<u64>,
    /// The words of `sites` the current key touched: `lo..hi`, empty when
    /// `lo >= hi`.
    lo: usize,
    hi: usize,
}

impl Projection {
    fn new(heap_of: Vec<AllocId>, allocs: usize) -> Projection {
        Projection {
            heap_of,
            acc: Vec::new(),
            sites: vec![0; allocs.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Unions the sets of each distinct key in `sets`, handing every key
    /// its sorted allocation sites once.
    fn union_by_key<K: Copy + Ord>(
        &mut self,
        mut sets: Vec<(K, &ObjSet)>,
        mut emit: impl FnMut(K, Vec<AllocId>),
    ) {
        sets.sort_unstable_by_key(|&(key, _)| key);
        for run in sets.chunk_by(|a, b| a.0 == b.0) {
            if let [(key, ObjSet::Small(ids))] = run {
                // `2objH` can hold one site under two heap contexts.
                let mut out: Vec<AllocId> = ids.iter().map(|&o| self.heap_of[o as usize]).collect();
                out.sort_unstable();
                out.dedup();
                emit(*key, out);
                continue;
            }
            let mut top = 0;
            for (_, pts) in run {
                match pts {
                    ObjSet::Dense { words, .. } if run.len() > 1 => {
                        if self.acc.len() < words.len() {
                            self.acc.resize(words.len(), 0);
                        }
                        for (a, &w) in self.acc.iter_mut().zip(words) {
                            *a |= w;
                        }
                        top = top.max(words.len());
                    }
                    _ => pts.iter().for_each(|o| self.mark(o)),
                }
            }
            for wi in 0..top {
                let mut bits = std::mem::take(&mut self.acc[wi]);
                while bits != 0 {
                    self.mark((wi * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            emit(run[0].0, self.drain());
        }
    }

    /// Marks the allocation site of object `o`.
    fn mark(&mut self, o: u32) {
        let site = self.heap_of[o as usize].0 as usize;
        let w = site / 64;
        self.sites[w] |= 1 << (site % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// The marked sites in increasing order, at their exact count; leaves
    /// `sites` all zero.
    fn drain(&mut self) -> Vec<AllocId> {
        let touched = self.lo.min(self.hi)..self.hi;
        let words = &mut self.sites[touched.clone()];
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        for (wi, word) in touched.zip(words) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(AllocId((wi * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        self.lo = usize::MAX;
        self.hi = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    //! The projection against the tuples it collapses: every projected set
    //! must equal the sorted, deduplicated heap column of the recorded
    //! context-sensitive tuples of its key.

    use std::collections::BTreeMap;

    use rudoop_ir::arbitrary::{generate, ProgramShape};
    use rudoop_workloads::dacapo;

    use super::*;
    use crate::driver::{analyze_flavor, Flavor};
    use crate::solver::Budget;

    /// Which set forms the projection met, by how many sets a key had.
    #[derive(Default)]
    struct Shapes {
        one_small: bool,
        one_dense: bool,
        several_mixed: bool,
        /// One small set holding two objects of one allocation site.
        small_site_twice: bool,
    }

    impl Shapes {
        fn note<K: Ord>(&mut self, groups: BTreeMap<K, Vec<&ObjSet>>, objs: &[CObj]) {
            for sets in groups.values() {
                match sets.as_slice() {
                    [ObjSet::Small(ids)] => {
                        self.one_small = true;
                        let mut heaps: Vec<AllocId> =
                            ids.iter().map(|&o| objs[o as usize].heap()).collect();
                        heaps.sort_unstable();
                        self.small_site_twice |= heaps.windows(2).any(|w| w[0] == w[1]);
                    }
                    [ObjSet::Dense { .. }] => self.one_dense = true,
                    _ => {
                        self.several_mixed |= sets.iter().any(|s| matches!(s, ObjSet::Small(_)))
                            && sets.iter().any(|s| matches!(s, ObjSet::Dense { .. }));
                    }
                }
            }
        }
    }

    /// The heap column of `tuples` per key, sorted and deduplicated. A run
    /// of tuples with one key (one node's set) is deduplicated on the fly.
    fn heap_column<K: Ord + Copy>(
        tuples: impl Iterator<Item = (K, AllocId)>,
        allocs: usize,
    ) -> BTreeMap<K, Vec<AllocId>> {
        let mut sets: BTreeMap<K, Vec<AllocId>> = BTreeMap::new();
        let mut seen = vec![0u32; allocs];
        let mut runs = 0u32;
        let mut last = None;
        let mut run = Vec::new();
        for (key, heap) in tuples {
            if last != Some(key) {
                if let Some(last) = last {
                    sets.entry(last).or_default().append(&mut run);
                }
                last = Some(key);
                runs += 1;
            }
            if std::mem::replace(&mut seen[heap.0 as usize], runs) != runs {
                run.push(heap);
            }
        }
        if let Some(last) = last {
            sets.entry(last).or_default().append(&mut run);
        }
        for set in sets.values_mut() {
            set.sort_unstable();
            set.dedup();
        }
        sets
    }

    /// The projected relations of `result` without their empty sets.
    fn non_empty<K: Ord + Copy>(
        sets: impl Iterator<Item = (K, Vec<AllocId>)>,
    ) -> BTreeMap<K, Vec<AllocId>> {
        sets.filter(|(_, set)| !set.is_empty()).collect()
    }

    fn check(program: &Program, flavor: Flavor, what: &str, shapes: &mut Shapes) {
        let hierarchy = ClassHierarchy::new(program);
        let config = SolverConfig {
            budget: Budget::derivations(30_000_000),
            record_contexts: true,
            ..SolverConfig::default()
        };
        let result = analyze_flavor(program, &hierarchy, flavor, &config);
        let dump = result.cs_dump.as_ref().expect("contexts recorded");

        let mut var_groups: BTreeMap<VarId, Vec<&ObjSet>> = BTreeMap::new();
        let mut field_groups: BTreeMap<(AllocId, FieldId), Vec<&ObjSet>> = BTreeMap::new();
        let mut global_groups: BTreeMap<GlobalId, Vec<&ObjSet>> = BTreeMap::new();
        for (kind, pts) in dump.kinds.iter().zip(&dump.pts) {
            match *kind {
                NodeKind::Var(v, _) => var_groups.entry(v).or_default().push(pts),
                NodeKind::Field(base, f) => {
                    field_groups.entry((base.heap(), f)).or_default().push(pts)
                }
                NodeKind::Global(g) => global_groups.entry(g).or_default().push(pts),
            }
        }
        let allocs = program.allocs.len();
        let var = heap_column(dump.var_points_to().map(|(v, _, h, _)| (v, h)), allocs);
        let field = heap_column(
            dump.field_points_to()
                .map(|(base, _, f, h, _)| ((base, f), h)),
            allocs,
        );
        // The dump has no iterator for static fields: read their nodes.
        let global = heap_column(
            global_groups.iter().flat_map(|(&g, sets)| {
                let heaps = sets.iter().flat_map(|pts| pts.iter());
                heaps.map(move |o| (g, dump.objs[o as usize].heap()))
            }),
            allocs,
        );

        let var_pts = non_empty(result.var_pts.iter().map(|(v, set)| (v, set.clone())));
        assert_eq!(var_pts, var, "{what}: var_pts");
        let field_pts = non_empty(result.field_pts.iter().map(|(&k, set)| (k, set.clone())));
        assert_eq!(field_pts, field, "{what}: field_pts");
        let global_pts = non_empty(result.global_pts.iter().map(|(&k, set)| (k, set.clone())));
        assert_eq!(global_pts, global, "{what}: global_pts");

        shapes.note(var_groups, &dump.objs);
        shapes.note(field_groups, &dump.objs);
        shapes.note(global_groups, &dump.objs);
    }

    #[test]
    fn projection_matches_the_tuples_on_arbitrary_programs() {
        let flavors = [
            "insens",
            "cutshortcut",
            "summaries",
            "1call",
            "2callH",
            "1objH",
            "2objH",
            "2typeH",
            "S2objH",
        ];
        for seed in 0..64 {
            let program = generate(&ProgramShape::default(), seed);
            for name in flavors {
                let flavor = Flavor::parse(name).expect("known flavor");
                check(
                    &program,
                    flavor,
                    &format!("seed {seed} {name}"),
                    &mut Shapes::default(),
                );
            }
        }
    }

    #[test]
    fn projection_matches_the_tuples_on_the_dacapo_workloads() {
        let mut shapes = Shapes::default();
        for spec in dacapo::all_nine() {
            let program = spec.build();
            for flavor in [Flavor::Insensitive, Flavor::OBJ2H] {
                let what = format!("{} {}", spec.name, flavor.spec_name());
                check(&program, flavor, &what, &mut shapes);
            }
        }
        assert!(shapes.one_small, "no key with one small set");
        assert!(shapes.one_dense, "no key with one dense set");
        assert!(shapes.several_mixed, "no key with small and dense sets");
        assert!(
            shapes.small_site_twice,
            "no small set holding one site twice"
        );
    }
}
