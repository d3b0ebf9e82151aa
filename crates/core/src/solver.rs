//! The context-sensitive points-to solver: an explicit worklist
//! implementation of the Datalog rules in the paper's Figure 3.
//!
//! The solver computes, for a [`Program`] and a [`ContextPolicy`], the four
//! output relations of the model — VARPOINTSTO, FLDPOINTSTO, CALLGRAPH,
//! REACHABLE — with on-the-fly call-graph construction. Rule-for-rule
//! correspondence (tested against the executable Datalog model in
//! `rudoop-datalog`):
//!
//! - the ALLOC rules are the solver's `Alloc` instantiation arm (RECORD is
//!   `policy.record`; the OBJECTTOREFINE guard lives inside an
//!   [`crate::policy::Introspective`] policy),
//! - the MOVE rule is a graph edge between context-qualified variables,
//! - INTERPROCASSIGN is the argument/return edges added per call-graph edge,
//! - the LOAD/STORE rules are edges through *field nodes* — one node per
//!   (context-qualified object, field) pair,
//! - the VCALL rule (and its MERGEREFINED duplicate, again folded into the
//!   policy) is the solver's receiver-call processing step.
//!
//! The rules and every flavor hook (cut-shortcut rerouting, summary
//! instantiation) live in the crate-private `rules` module, over one node
//! table; this module owns the public result types and the worklist drain
//! that schedules them.
//!
//! A [`Budget`] models the paper's 90-minute/24 GB wall: when exceeded the
//! solver stops and reports [`Outcome::BudgetExhausted`], which the
//! evaluation harness renders the way the paper renders timed-out bars.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rudoop_ir::{
    AllocId, ClassHierarchy, FieldId, GlobalId, IdxVec, InvokeId, MethodId, Program, VarId,
};

use crate::bitset::{IdBitSet, ObjSet};
use crate::context::{CObj, CtxId, CtxTables, HCtxId};
use crate::cs_facts::CsIndex;
use crate::hash::{FxHashMap, FxHashSet};
use crate::policy::ContextPolicy;
use crate::rules::{cast_admits, Core, NodeKind};

/// Resource limits for one solver run.
///
/// `max_derivations` bounds the number of tuple insertions (context-
/// sensitive var-points-to facts plus call-graph edges); it is the
/// deterministic analogue of the paper's timeout and the preferred limit
/// for reproducible experiments. `max_bytes` bounds the solver's modeled
/// memory footprint ([`SolverStats::bytes_estimate`]) — the deterministic
/// analogue of the paper's 24 GB wall. `max_duration` is a wall-clock
/// backstop.
///
/// Limits compose with the `and_*` combinators:
///
/// ```
/// use std::time::Duration;
/// use rudoop_core::solver::Budget;
///
/// let b = Budget::derivations(1_000_000)
///     .and_bytes(24 * 1024 * 1024 * 1024)
///     .and_duration(Duration::from_secs(90 * 60));
/// assert_eq!(b.max_derivations, Some(1_000_000));
/// assert!(b.max_bytes.is_some() && b.max_duration.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Maximum tuple insertions; `None` = unlimited.
    pub max_derivations: Option<u64>,
    /// Maximum wall-clock time; `None` = unlimited.
    pub max_duration: Option<Duration>,
    /// Maximum modeled memory in bytes; `None` = unlimited.
    pub max_bytes: Option<u64>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Budget of `n` tuple insertions.
    pub fn derivations(n: u64) -> Self {
        Budget {
            max_derivations: Some(n),
            ..Budget::default()
        }
    }

    /// Budget of `d` wall-clock time.
    pub fn duration(d: Duration) -> Self {
        Budget {
            max_duration: Some(d),
            ..Budget::default()
        }
    }

    /// Budget of `n` modeled bytes (see [`SolverStats::bytes_estimate`]).
    pub fn bytes(n: u64) -> Self {
        Budget {
            max_bytes: Some(n),
            ..Budget::default()
        }
    }

    /// Adds a derivation limit to this budget.
    pub fn and_derivations(mut self, n: u64) -> Self {
        self.max_derivations = Some(n);
        self
    }

    /// Adds a wall-clock limit to this budget.
    pub fn and_duration(mut self, d: Duration) -> Self {
        self.max_duration = Some(d);
        self
    }

    /// Adds a modeled-memory limit to this budget.
    pub fn and_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }
}

/// A cooperative cancellation token, checked by the solver's worklist loop.
///
/// Clones share one flag. The supervisor's watchdog thread uses it to
/// enforce wall-clock deadlines from outside the solver; clients (CLIs,
/// servers) can use it to abort an analysis from a signal handler or a
/// request-timeout path.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before reaching the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExhaustionCause {
    /// [`Budget::max_derivations`] was reached.
    Derivations,
    /// [`Budget::max_bytes`] was reached (the modeled 24 GB wall).
    Memory,
    /// [`Budget::max_duration`] elapsed.
    WallClock,
    /// The run's [`CancelToken`] was cancelled (e.g. by a watchdog).
    Cancelled,
    /// The propagation-graph node table hit its capacity limit.
    NodeTable,
    /// A context table hit its capacity limit (contexts saturated to `★`).
    ContextTable,
}

impl ExhaustionCause {
    /// Whether the cause is an internal capacity limit rather than a
    /// user-supplied budget.
    pub fn is_capacity(self) -> bool {
        matches!(
            self,
            ExhaustionCause::NodeTable | ExhaustionCause::ContextTable
        )
    }

    /// A short human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            ExhaustionCause::Derivations => "derivation budget exhausted",
            ExhaustionCause::Memory => "memory budget exhausted",
            ExhaustionCause::WallClock => "wall-clock budget exhausted",
            ExhaustionCause::Cancelled => "cancelled",
            ExhaustionCause::NodeTable => "node table capacity exceeded",
            ExhaustionCause::ContextTable => "context table capacity exceeded",
        }
    }
}

impl fmt::Display for ExhaustionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// A structured solver-internal failure: a capacity table filled up.
///
/// These used to be `expect` panics on the hot path; they now surface as
/// [`Outcome::CapacityExceeded`] so callers (most importantly the
/// [`crate::supervisor`]) can degrade instead of crashing the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// The propagation graph needed more than `limit` nodes.
    NodeCapacity {
        /// The configured (or `u32`-intrinsic) node limit.
        limit: usize,
    },
    /// A context interner needed more than `limit` distinct contexts.
    ContextCapacity {
        /// The configured (or `u32`-intrinsic) context limit.
        limit: usize,
    },
}

impl SolverError {
    /// The exhaustion cause this error maps to.
    pub fn cause(self) -> ExhaustionCause {
        match self {
            SolverError::NodeCapacity { .. } => ExhaustionCause::NodeTable,
            SolverError::ContextCapacity { .. } => ExhaustionCause::ContextTable,
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NodeCapacity { limit } => {
                write!(f, "propagation graph exceeded {limit} nodes")
            }
            SolverError::ContextCapacity { limit } => {
                write!(f, "context table exceeded {limit} entries")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// How a solver run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fixpoint reached; the result is sound and complete for the abstraction.
    Complete,
    /// The budget ran out; the result is partial (an under-approximation of
    /// the fixpoint). The paper reports this as a timed-out analysis.
    BudgetExhausted,
    /// An internal capacity table (nodes, contexts) filled up; the result is
    /// partial, exactly as for budget exhaustion.
    CapacityExceeded,
}

impl Outcome {
    /// Whether the run completed.
    pub fn is_complete(self) -> bool {
        matches!(self, Outcome::Complete)
    }

    /// Whether the run stopped early (budget or capacity).
    pub fn is_partial(self) -> bool {
        !self.is_complete()
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Resource limits (default: unlimited).
    pub budget: Budget,
    /// Keep the final context-sensitive relations in
    /// [`PointsToResult::cs_dump`]: the solver's final node table outlives
    /// the run instead of being dropped. The taint and race clients need
    /// it, and the differential tests read it; off by default, since it
    /// keeps every points-to set alive as long as the result.
    pub record_contexts: bool,
    /// Filter object flow at `cast` instructions by the cast's target type
    /// (Doop's assign-cast filtering). Off by default to match the paper's
    /// model, where casts are plain moves; turning it on makes every
    /// analysis more precise at a small cost.
    pub filter_casts: bool,
    /// Cooperative cancellation: when the token is cancelled the solver
    /// stops at the next worklist step with [`ExhaustionCause::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Capacity cap on propagation-graph nodes (default: the `u32`
    /// intrinsic limit). Exceeding it yields [`Outcome::CapacityExceeded`].
    pub max_nodes: Option<usize>,
    /// Capacity cap on each context table (default: the `u32` intrinsic
    /// limit). Exceeding it yields [`Outcome::CapacityExceeded`].
    pub max_contexts: Option<usize>,
    /// Cut-shortcut pre-analysis output. When present, the solver cuts the
    /// interprocedural `arg → param` / `ret → result` edges the summary
    /// marks and reroutes them per call site (identity shortcuts,
    /// caller-side stores and loads) — the [`crate::cutshortcut`] engine.
    /// `None` (the default) analyzes every call edge as written.
    pub cuts: Option<Arc<crate::cutshortcut::CutSummary>>,
    /// Summary-table output of the bottom-up compositional pre-analysis.
    /// When present, the solver replaces the `ret → result` edge of every
    /// call to a distilled method with per-site instantiations of its
    /// summary atoms — the [`crate::summaries`] engine. `None` (the
    /// default) analyzes every return edge as written.
    pub summaries: Option<Arc<crate::summaries::SummaryTable>>,
    /// Optional telemetry recorder. Instrumentation never feeds back into
    /// the analysis: results are byte-identical with and without it.
    pub telemetry: crate::telemetry::TelemetryHandle,
}

/// Counters describing the work and output size of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Tuple insertions performed (the budget currency).
    pub derivations: u64,
    /// Context-sensitive var-points-to tuples `(var, ctx, heap, hctx)`.
    pub cs_var_points_to: u64,
    /// Context-sensitive field-points-to tuples.
    pub cs_field_points_to: u64,
    /// Context-sensitive call-graph edges.
    pub call_graph_edges: u64,
    /// Context-qualified reachable methods `(meth, ctx)`.
    pub reachable_contexts: u64,
    /// Distinct calling contexts created.
    pub contexts: u64,
    /// Distinct heap contexts created.
    pub heap_contexts: u64,
    /// Graph nodes (context-qualified variables + field slots).
    pub nodes: u64,
    /// Copy edges in the propagation graph.
    pub edges: u64,
    /// Wall-clock time of the run.
    pub duration: Duration,
}

/// Deterministic per-entity cost constants of the solver's memory model.
/// A node owns slots in nine parallel arrays plus hash-table entries; a
/// tuple is its share of a points-to set (`ObjSet`: a sorted-vector slot
/// or a bitset bit) plus its delta slot; an edge is a successor slot plus
/// an `edge_set` entry; a context is an interned boxed sequence plus its
/// table entry. They overstate measured peak memory several times over;
/// refitting them moves every `--max-bytes` stop point, so it is a change
/// of its own.
const BYTES_PER_NODE: u64 = 168;
const BYTES_PER_TUPLE: u64 = 48;
const BYTES_PER_EDGE: u64 = 72;
const BYTES_PER_CTX: u64 = 96;
const BYTES_PER_REACHABLE: u64 = 16;

/// The modeled memory footprint given the live counters of a run. Shared
/// between [`SolverStats::bytes_estimate`] and the solver's in-loop budget
/// check so the two always agree.
pub(crate) fn model_bytes(
    nodes: u64,
    edges: u64,
    derivations: u64,
    contexts: u64,
    heap_contexts: u64,
    reachable: u64,
) -> u64 {
    nodes * BYTES_PER_NODE
        + edges * BYTES_PER_EDGE
        + derivations * BYTES_PER_TUPLE
        + (contexts + heap_contexts) * BYTES_PER_CTX
        + reachable * BYTES_PER_REACHABLE
}

impl SolverStats {
    /// A deterministic estimate of the run's peak memory footprint, derived
    /// from relation and graph sizes (not from the allocator). This is the
    /// quantity [`Budget::max_bytes`] limits — the reproducible analogue of
    /// the paper's 24 GB memory wall.
    pub fn bytes_estimate(&self) -> u64 {
        model_bytes(
            self.nodes,
            self.edges,
            self.derivations,
            self.contexts,
            self.heap_contexts,
            self.reachable_contexts,
        )
    }

    /// A copy with the wall-clock duration zeroed: two runs of the same
    /// program under the same derivation/byte budget produce *identical*
    /// canonical stats, which is what reproducibility tests compare.
    pub fn canonical(&self) -> SolverStats {
        SolverStats {
            duration: Duration::ZERO,
            ..self.clone()
        }
    }
}

/// The final context-sensitive relations of a run, kept when
/// [`SolverConfig::record_contexts`] is set.
///
/// The dump is the solver's own final node table, moved out of the solver
/// rather than copied: every node's kind and points-to set, the interned
/// context-qualified objects the sets name, and the call-graph and
/// reachability sets. The iterators below read it as the model's four
/// relations, each tuple in the order the solver recorded it: node order,
/// then object id order within a node; the call graph and reachability in
/// the order of their hash sets.
///
/// The context-sensitive clients read it through the canonical fact index
/// ([`crate::cs_facts::CsFacts`]), which is built from the node sets on
/// first use and then lives as long as the dump.
#[derive(Debug, Clone, Default)]
pub struct CsDump {
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) pts: Vec<ObjSet>,
    /// Every context-qualified object, indexed by the ids `pts` holds.
    pub(crate) objs: Vec<CObj>,
    /// Call edges, packed `(invoke << 32 | caller ctx, method << 32 |
    /// callee ctx)`.
    pub(crate) cg_edges: FxHashSet<(u64, u64)>,
    /// Reachable methods, packed `method << 32 | ctx`.
    pub(crate) reachable: FxHashSet<u64>,
    /// The clients' canonical fact index, built on first use.
    pub(crate) index: OnceLock<CsIndex>,
}

impl CsDump {
    /// Each variable node's index, `(var, ctx)` and points-to set, in node
    /// order.
    pub(crate) fn var_sets(&self) -> impl Iterator<Item = (u32, VarId, CtxId, &ObjSet)> + '_ {
        self.kinds
            .iter()
            .zip(&self.pts)
            .enumerate()
            .filter_map(|(node, (kind, pts))| match *kind {
                NodeKind::Var(var, ctx) => Some((node as u32, var, ctx, pts)),
                NodeKind::Field(..) | NodeKind::Global(_) => None,
            })
    }

    /// VARPOINTSTO tuples `(var, ctx, heap, hctx)`.
    pub fn var_points_to(&self) -> impl Iterator<Item = (VarId, CtxId, AllocId, HCtxId)> + '_ {
        self.var_sets().flat_map(move |(_, var, ctx, pts)| {
            pts.iter().map(move |o| {
                let obj = self.objs[o as usize];
                (var, ctx, obj.heap(), obj.hctx())
            })
        })
    }

    /// FLDPOINTSTO tuples `(base heap, base hctx, field, heap, hctx)`.
    pub fn field_points_to(
        &self,
    ) -> impl Iterator<Item = (AllocId, HCtxId, FieldId, AllocId, HCtxId)> + '_ {
        self.kinds
            .iter()
            .zip(&self.pts)
            .filter_map(|(kind, pts)| match *kind {
                NodeKind::Field(base, field) => Some((base, field, pts)),
                NodeKind::Var(..) | NodeKind::Global(_) => None,
            })
            .flat_map(move |(base, field, pts)| {
                pts.iter().map(move |o| {
                    let obj = self.objs[o as usize];
                    (base.heap(), base.hctx(), field, obj.heap(), obj.hctx())
                })
            })
    }

    /// CALLGRAPH tuples `(site, caller ctx, callee, callee ctx)`.
    pub fn call_graph(&self) -> impl Iterator<Item = (InvokeId, CtxId, MethodId, CtxId)> + '_ {
        self.cg_edges.iter().map(|&(ic, mc)| {
            let ((invoke, caller), (method, callee)) = (unpack(ic), unpack(mc));
            (InvokeId(invoke), caller, MethodId(method), callee)
        })
    }

    /// REACHABLE tuples `(method, ctx)`.
    pub fn reachable(&self) -> impl Iterator<Item = (MethodId, CtxId)> + '_ {
        self.reachable.iter().map(|&key| {
            let (method, ctx) = unpack(key);
            (MethodId(method), ctx)
        })
    }
}

/// Splits a packed `id << 32 | ctx` key.
fn unpack(key: u64) -> (u32, CtxId) {
    ((key >> 32) as u32, CtxId(key as u32))
}

/// The output of one analysis run: projected (context-insensitive)
/// relations for clients, statistics, and optionally the final
/// context-sensitive relations ([`CsDump`]).
///
/// Projections are what the paper's precision metrics consume — e.g. "calls
/// that cannot be devirtualized" needs per-invocation target sets with
/// contexts collapsed.
#[derive(Debug, Clone)]
pub struct PointsToResult {
    /// `policy.name()` of the run.
    pub analysis: String,
    /// Completion status.
    pub outcome: Outcome,
    /// Why the run stopped early; `None` when it completed.
    pub exhaustion: Option<ExhaustionCause>,
    /// Work and size counters.
    pub stats: SolverStats,
    /// Projected var-points-to: per variable, the sorted set of allocation
    /// sites it may point to (over all contexts).
    pub var_pts: IdxVec<VarId, Vec<AllocId>>,
    /// Projected field-points-to: per (base allocation, field), the sorted
    /// set of pointed-to allocation sites.
    pub field_pts: FxHashMap<(AllocId, FieldId), Vec<AllocId>>,
    /// Projected static-field points-to: per global, the sorted set of
    /// pointed-to allocation sites.
    pub global_pts: FxHashMap<GlobalId, Vec<AllocId>>,
    /// Projected call graph: per invocation, the sorted set of target
    /// methods.
    pub call_targets: FxHashMap<InvokeId, Vec<MethodId>>,
    /// Methods reachable in at least one context.
    pub reachable_methods: IdBitSet<MethodId>,
    /// Context tables of the run (for inspecting context strings).
    pub tables: CtxTables,
    /// The final context-sensitive relations, when
    /// [`SolverConfig::record_contexts`] is set.
    pub cs_dump: Option<CsDump>,
}

impl PointsToResult {
    /// Number of reachable methods (one of the paper's precision metrics).
    pub fn reachable_method_count(&self) -> usize {
        self.reachable_methods.count()
    }

    /// Projected points-to set of `var`.
    pub fn points_to(&self, var: VarId) -> &[AllocId] {
        &self.var_pts[var]
    }
}

/// Runs the analysis of `program` under `policy`.
///
/// This is the crate's main entry point for a single pass; the two-pass
/// introspective flow lives in [`crate::driver`].
pub fn analyze(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
    config: &SolverConfig,
) -> PointsToResult {
    let result = Solver {
        core: Core::new(program, hierarchy, policy, config.clone()),
        drains: 0,
        mask: Vec::new(),
        succ_skipped: 0,
        succ_visited: 0,
    }
    .run();
    record_run_counters(&config.telemetry, &result);
    result
}

/// Records the deterministic post-run counter block for a finished
/// analysis, once per [`analyze`]: every value is derived from the final
/// result, so the counter stream is a pure function of the program and
/// the configuration.
fn record_run_counters(tele: &crate::telemetry::TelemetryHandle, result: &PointsToResult) {
    let Some(tele) = tele.as_deref() else { return };
    let name = &result.analysis;
    let s = &result.stats;
    tele.counter(&format!("{name}.derivations"), s.derivations);
    tele.counter(&format!("{name}.cs_var_points_to"), s.cs_var_points_to);
    tele.counter(&format!("{name}.cs_field_points_to"), s.cs_field_points_to);
    tele.counter(&format!("{name}.call_graph_edges"), s.call_graph_edges);
    tele.counter(&format!("{name}.reachable_contexts"), s.reachable_contexts);
    tele.counter(&format!("{name}.contexts"), s.contexts);
    tele.counter(&format!("{name}.heap_contexts"), s.heap_contexts);
    tele.counter(&format!("{name}.nodes"), s.nodes);
    tele.counter(&format!("{name}.edges"), s.edges);
    tele.counter(&format!("{name}.bytes_estimate"), s.bytes_estimate());
    let outcome = match result.outcome {
        Outcome::Complete => 0,
        Outcome::BudgetExhausted => 1,
        Outcome::CapacityExceeded => 2,
    };
    tele.counter(&format!("{name}.outcome"), outcome);
}

/// The worklist solver: the rules over one node table, drained by a
/// single FIFO worklist.
struct Solver<'p> {
    core: Core<'p>,
    /// Worklist pops (an engine metric, not a counter).
    drains: u64,
    /// The drained delta as bitset words, reused across drains.
    mask: Vec<u64>,
    /// Copy successors a drain skipped because they already held the
    /// whole delta, and those it walked id by id (engine metrics).
    succ_skipped: u64,
    succ_visited: u64,
}

impl Solver<'_> {
    fn run(mut self) -> PointsToResult {
        let tele = self.core.config.telemetry.clone();
        let span = crate::telemetry::span_opt(&tele, "solve");
        if let Some(span) = &span {
            span.arg("analysis", self.core.policy.name());
        }
        self.core.seed_entries();
        if let Err(err) = self.solve() {
            self.core.exhausted = Some(err.cause());
        }
        if let Some(tele) = tele.as_deref() {
            // Engine metrics: worklist drains and successor visits. They
            // describe how the drain scheduled the work, not the result, so
            // they stay out of the counter stream.
            tele.metric("seq.worklist_drains", self.drains);
            tele.metric("seq.succ_skipped", self.succ_skipped);
            tele.metric("seq.succ_visited", self.succ_visited);
        }
        let result = {
            let _project = crate::telemetry::span_opt(&tele, "project");
            self.core.finish()
        };
        // Freeing the working tables (adjacency lists, intern maps, and
        // the sets unless recorded) is timed apart from the projection.
        {
            let _teardown = crate::telemetry::span_opt(&tele, "teardown");
            drop(self);
        }
        if let Some(span) = &span {
            span.arg("derivations", result.stats.derivations);
            span.arg("outcome", format!("{:?}", result.outcome));
        }
        result
    }

    /// Alternates instantiating newly reachable bodies with semi-naive
    /// drains of one node's delta, until both queues are empty or a stop
    /// condition fires.
    fn solve(&mut self) -> Result<(), SolverError> {
        let core = &mut self.core;
        'outer: loop {
            while let Some((m, c)) = core.inst_queue.pop_front() {
                if let Some(cause) = core.stop_cause() {
                    core.exhausted = Some(cause);
                    break 'outer;
                }
                core.instantiate(m, c)?;
            }
            let Some(i) = core.graph.pop() else {
                break;
            };
            self.drains += 1;
            if let Some(cause) = core.stop_cause() {
                core.exhausted = Some(cause);
                break;
            }
            let d = std::mem::take(&mut core.graph.delta[i]);
            if d.is_empty() {
                continue;
            }
            // Each rule list is walked by index up to its length before its
            // loop: entries a setter/getter cut appends mid-loop already
            // applied themselves to the node's current objects.
            //
            // A copy successor that already holds the whole delta would
            // gain nothing from it, so it is skipped on a word-wise subset
            // test against the delta's bitmask. Every other successor takes
            // the delta id by id in delta order, which fixes the order of
            // every later derivation (see DESIGN §3).
            let lo = if core.graph.succ[i].is_empty() {
                None
            } else {
                delta_mask(&d, &mut self.mask)
            };
            for k in 0..core.graph.succ[i].len() {
                let s = core.graph.succ[i][k] as usize;
                if lo.is_some_and(|lo| core.graph.pts[s].covers_mask(lo, &self.mask)) {
                    self.succ_skipped += 1;
                    continue;
                }
                self.succ_visited += 1;
                for &o in &d {
                    core.graph.add_local(s, o);
                }
            }
            for k in 0..core.graph.filter_succ[i].len() {
                let (class, s) = core.graph.filter_succ[i][k];
                for &o in &d {
                    if cast_admits(core.program, core.hierarchy, &core.objs, o, class) {
                        core.graph.add_local(s as usize, o);
                    }
                }
            }
            for k in 0..core.graph.loads[i].len() {
                let (field, to) = core.graph.loads[i][k];
                for &o in &d {
                    core.load_obj(field, to, o)?;
                }
            }
            for k in 0..core.graph.stores[i].len() {
                let (field, from) = core.graph.stores[i][k];
                for &o in &d {
                    core.store_obj(from, field, o)?;
                }
            }
            let caller = core.graph.node_ctx[i];
            for k in 0..core.graph.calls[i].len() {
                let invoke = core.graph.calls[i][k];
                for &o in &d {
                    core.process_receiver_call(invoke, caller, o)?;
                }
            }
        }
        Ok(())
    }
}

/// Writes the ids of `delta` into `mask` as bitset words starting at word
/// `lo`, and returns `lo`; returns `None`, leaving `mask` stale, when the
/// mask would take as many words as `delta` has ids.
fn delta_mask(delta: &[u32], mask: &mut Vec<u64>) -> Option<usize> {
    let (min, max) = delta
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &o| (lo.min(o), hi.max(o)));
    let lo = min as usize / 64;
    let words = max as usize / 64 + 1 - lo;
    if words >= delta.len() {
        return None;
    }
    mask.clear();
    mask.resize(words, 0);
    for &o in delta {
        mask[o as usize / 64 - lo] |= 1 << (o % 64);
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CallSiteSensitive, Insensitive, ObjectSensitive};
    use rudoop_ir::ProgramBuilder;

    fn run(program: &Program, policy: &dyn ContextPolicy) -> PointsToResult {
        let hierarchy = ClassHierarchy::new(program);
        analyze(program, &hierarchy, policy, &SolverConfig::default())
    }

    /// main: x = new A; y = x
    #[test]
    fn alloc_and_move_propagate() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        let h = b.alloc(main, x, a);
        b.mov(main, y, x);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(x), &[h]);
        assert_eq!(r.points_to(y), &[h]);
        assert!(r.outcome.is_complete());
    }

    /// Store then load through the same object reaches the loaded var.
    #[test]
    fn field_store_load_flow() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        let v = b.var(main, "v");
        let out = b.var(main, "out");
        let _hb = b.alloc(main, bx, box_c);
        let hv = b.alloc(main, v, obj);
        b.store(main, bx, f, v);
        b.load(main, out, bx, f);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[hv]);
    }

    /// Load registered before the store still sees the value (fixpoint).
    #[test]
    fn load_before_store_is_order_insensitive() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        let v = b.var(main, "v");
        let out = b.var(main, "out");
        b.load(main, out, bx, f); // before bx even points anywhere
        b.alloc(main, bx, box_c);
        let hv = b.alloc(main, v, obj);
        b.store(main, bx, f, v);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[hv]);
    }

    /// Virtual dispatch selects the override matching the receiver's class.
    #[test]
    fn virtual_dispatch_resolves_by_receiver_type() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let animal = b.class("Animal", Some(obj));
        let dog = b.class("Dog", Some(animal));
        let cat = b.class("Cat", Some(animal));
        // Animal.sound returns a Generic marker; Dog/Cat override.
        let m_dog = b.method(dog, "sound", &[], false);
        let dog_ret = b.var(m_dog, "r");
        let h_dog_sound = b.alloc(m_dog, dog_ret, dog);
        b.ret(m_dog, dog_ret);
        let m_cat = b.method(cat, "sound", &[], false);
        let cat_ret = b.var(m_cat, "r");
        let _h_cat_sound = b.alloc(m_cat, cat_ret, cat);
        b.ret(m_cat, cat_ret);

        let main = b.method(obj, "main", &[], true);
        let d = b.var(main, "d");
        let out = b.var(main, "out");
        b.alloc(main, d, dog);
        b.vcall(main, Some(out), d, "sound", &[]);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        // Only Dog.sound runs: out points to the dog-sound allocation only.
        assert_eq!(r.points_to(out), &[h_dog_sound]);
        assert!(r.reachable_methods.contains(m_dog));
        assert!(!r.reachable_methods.contains(m_cat));
    }

    /// Arguments flow into formals; returns flow back.
    #[test]
    fn interprocedural_assignments() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        let out = b.var(main, "out");
        let h = b.alloc(main, a, obj);
        b.scall(main, Some(out), id_m, &[a]);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[h]);
        assert_eq!(r.points_to(xp), &[h]);
    }

    /// The classic context-sensitivity litmus: an identity method called
    /// with two different objects. Insensitive conflates; 1-call-site does
    /// not.
    #[test]
    fn call_site_sensitivity_separates_identity_calls() {
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
        let p = b.finish();

        let insens = run(&p, &Insensitive);
        assert_eq!(insens.points_to(r1), &[h1, h2]);
        assert_eq!(insens.points_to(r2), &[h1, h2]);

        let cs = run(&p, &CallSiteSensitive::new(1, 0));
        assert_eq!(cs.points_to(r1), &[h1]);
        assert_eq!(cs.points_to(r2), &[h2]);
    }

    /// Object-sensitivity litmus: one wrapper class used from two sites via
    /// its `this`-carried state.
    #[test]
    fn object_sensitivity_separates_per_receiver_state() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        // Box.set(v) { this.val = v }  Box.get() { return this.val }
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
        let b1 = b.var(main, "b1");
        let b2 = b.var(main, "b2");
        let v1 = b.var(main, "v1");
        let v2 = b.var(main, "v2");
        let o1 = b.var(main, "o1");
        let o2 = b.var(main, "o2");
        let _hb1 = b.alloc(main, b1, box_c);
        let _hb2 = b.alloc(main, b2, box_c);
        let h1 = b.alloc(main, v1, obj);
        let h2 = b.alloc(main, v2, obj);
        b.vcall(main, None, b1, "set", &[v1]);
        b.vcall(main, None, b2, "set", &[v2]);
        b.vcall(main, Some(o1), b1, "get", &[]);
        b.vcall(main, Some(o2), b2, "get", &[]);
        b.entry(main);
        let p = b.finish();

        // Two distinct Box allocations: even insensitively the *objects*
        // separate the fields, so this needs method-level conflation to
        // show: the `set_v` parameter conflates insensitively...
        let insens = run(&p, &Insensitive);
        assert_eq!(insens.points_to(o1), &[h1, h2]);
        assert_eq!(insens.points_to(o2), &[h1, h2]);

        // ...but 1-object-sensitivity keeps the two receivers' set() calls
        // apart, so each get() returns only its own value.
        let objsens = run(&p, &ObjectSensitive::new(1, 0));
        assert_eq!(objsens.points_to(o1), &[h1]);
        assert_eq!(objsens.points_to(o2), &[h2]);
    }

    /// Budget exhaustion stops the solver and is reported.
    #[test]
    fn budget_exhaustion_reports_partial_outcome() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let mut prev = b.var(main, "v0");
        b.alloc(main, prev, obj);
        for i in 1..50 {
            let v = b.var(main, &format!("v{i}"));
            b.alloc(main, v, obj);
            b.mov(main, v, prev);
            prev = v;
        }
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let config = SolverConfig {
            budget: Budget::derivations(10),
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &Insensitive, &config);
        assert_eq!(r.outcome, Outcome::BudgetExhausted);
        // And the unlimited run completes with more derivations.
        let full = analyze(&p, &hierarchy, &Insensitive, &SolverConfig::default());
        assert!(full.outcome.is_complete());
        assert!(full.stats.derivations > 10);
    }

    /// Unreachable code contributes nothing.
    #[test]
    fn unreachable_methods_are_not_analyzed() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let dead = b.method(obj, "dead", &[], true);
        let d = b.var(dead, "d");
        b.alloc(dead, d, obj);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert!(r.reachable_methods.contains(main));
        assert!(!r.reachable_methods.contains(dead));
        assert!(r.points_to(d).is_empty());
    }

    /// Recursion converges (fixpoint, no infinite context growth at k=1).
    #[test]
    fn recursion_terminates_with_bounded_context() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let rec = b.method(obj, "rec", &["x"], true);
        let xp = b.param(rec, 0);
        let y = b.var(rec, "y");
        b.alloc(rec, y, obj);
        b.scall(rec, None, rec, &[y]);
        b.scall(rec, None, rec, &[xp]);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        b.alloc(main, a, obj);
        b.scall(main, None, rec, &[a]);
        b.entry(main);
        let p = b.finish();
        for policy in [
            &CallSiteSensitive::new(1, 0) as &dyn ContextPolicy,
            &CallSiteSensitive::new(2, 1),
        ] {
            let r = run(&p, policy);
            assert!(r.outcome.is_complete());
            assert!(!r.points_to(xp).is_empty());
        }
    }

    /// Static fields act as single program-wide slots: a store in one
    /// method is visible to a load in another, across contexts.
    #[test]
    fn globals_flow_across_methods_and_contexts() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let g = b.global(obj, "shared");
        let writer = b.method(obj, "writer", &[], true);
        let w = b.var(writer, "w");
        let h = b.alloc(writer, w, obj);
        b.store_global(writer, g, w);
        let reader = b.method(obj, "reader", &[], true);
        let r = b.var(reader, "r");
        b.load_global(reader, r, g);
        let main = b.method(obj, "main", &[], true);
        b.scall(main, None, writer, &[]);
        b.scall(main, None, reader, &[]);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        for policy in [
            &Insensitive as &dyn ContextPolicy,
            &CallSiteSensitive::new(2, 1),
        ] {
            let result = analyze(&p, &hierarchy, policy, &SolverConfig::default());
            assert_eq!(result.points_to(r), &[h], "under {}", policy.name());
            assert_eq!(
                result
                    .global_pts
                    .get(&rudoop_ir::GlobalId(0))
                    .map(Vec::as_slice),
                Some(&[h][..])
            );
        }
    }

    /// Cast filtering blocks non-conforming objects at cast edges.
    #[test]
    fn cast_filtering_blocks_nonconforming_objects() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let c = b.class("C", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        let ha = b.alloc(main, x, a);
        let _hc = b.alloc(main, x, c);
        b.cast(main, y, x, a);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        // Unfiltered: the cast is a move; both objects flow.
        let plain = analyze(
            &p,
            &hierarchy,
            &crate::policy::Insensitive,
            &SolverConfig::default(),
        );
        assert_eq!(plain.points_to(y).len(), 2);
        // Filtered: only the A-object conforms to `(A)`.
        let cfg = SolverConfig {
            filter_casts: true,
            ..SolverConfig::default()
        };
        let filtered = analyze(&p, &hierarchy, &crate::policy::Insensitive, &cfg);
        assert_eq!(filtered.points_to(y), &[ha]);
    }

    /// Filtering applies on later flow too (edge added before objects).
    #[test]
    fn cast_filtering_applies_to_late_arrivals() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.cast(main, y, x, a); // cast registered before x has any objects
        let ha = b.alloc(main, x, a);
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let cfg = SolverConfig {
            filter_casts: true,
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &crate::policy::Insensitive, &cfg);
        assert_eq!(r.points_to(y), &[ha]);
    }

    /// cs_dump carries the context-sensitive tuples when requested.
    #[test]
    fn record_contexts_dumps_tuples() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let config = SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &Insensitive, &config);
        assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
        let dump = r.cs_dump.unwrap_or_default();
        assert_eq!(dump.var_points_to().count(), 1);
        assert_eq!(dump.reachable().count(), 1);
        assert!(r.stats.cs_var_points_to >= 1);
    }
}
