//! The sharded parallel propagation engine.
//!
//! This module runs the same Andersen-style semi-naive solver as
//! [`crate::solver`] — the very same rules, from the crate-private `rules`
//! module both engines share — but partitioned into `N` shards (one worker
//! thread each, see [`crate::shard::ShardMap`]) that propagate in
//! lock-step *epochs*. Only the schedule lives here. The design goal is not "fast but approximately right" — it is
//! **byte-for-byte equivalence** with the sequential solver at every thread
//! count, so that budgets, the supervisor ladder, differential tests and
//! golden fixtures never need to know which engine produced a result.
//!
//! # Architecture
//!
//! Every propagation-graph node is **owned** by exactly one shard (the
//! shard of its anchoring method). Within an epoch each worker, in
//! parallel and without any locks:
//!
//! 1. applies its **inbox** — points-to messages routed to it at the last
//!    barrier — in deterministic (sender shard, send order) order,
//! 2. drains its local worklist semi-naive style: deltas propagate along
//!    copy edges immediately when the target is local, and are appended to
//!    a per-destination **outbox** when it is not,
//! 3. records every derivation that needs global state — field loads and
//!    stores (field-node creation), receiver calls (context merging, call
//!    graph growth) — as a **pending event** instead of performing it.
//!
//! Between epochs the coordinator (the caller's thread, holding `&mut` to
//! everything) runs the **barrier**: it replays pending events in (shard
//! index, local order) order — creating field nodes, adding edges, merging
//! contexts, instantiating newly reachable methods — then routes all
//! outboxes into inboxes, again in shard-index order. Because workers only
//! ever mutate shard-local state and all cross-shard effects funnel
//! through these two ordered channels, **each epoch is a deterministic
//! function of the previous epoch's shard contents**, independent of
//! thread scheduling. Workers are plain [`std::thread::scope`] threads; the
//! crate-wide `forbid(unsafe_code)` holds because disjoint `&mut ShardState`
//! borrows are handed to the scope, not shared.
//!
//! # Deterministic budgets: merge, then replay
//!
//! All of [`crate::solver::SolverStats`]' counters are *monotone* and
//! *order-independent at the fixpoint*: derivations are exactly
//! `Σ |points-to sets| + |call-graph edges|`, and nodes/edges/contexts/
//! reachable are fixpoint sets. Two consequences, which together give the
//! equivalence guarantee:
//!
//! - if the merged counters (per-shard counters folded in shard-index
//!   order, plus the call-graph edge count) stay within the
//!   [`crate::solver::Budget`] through the final barrier, the sequential
//!   solver would also have completed, and both engines report identical
//!   `SolverStats::canonical()` and identical projected relations;
//! - if a budget or capacity limit is crossed, the *exact* sequential
//!   exhaustion point (which mid-run state the paper-style partial result
//!   contains) is a function of sequential processing order that a
//!   parallel engine cannot reproduce directly — so the engine **discards
//!   the parallel attempt and replays the run sequentially** with the
//!   original configuration. The replay *is* the sequential solver, hence
//!   byte-identical stats, partial facts and [`ExhaustionCause`] at every
//!   thread count. The wasted work is bounded by the budget itself (plus
//!   one epoch of overshoot, bounded by the per-epoch drain chunk).
//!
//! Wall-clock budgets and [`CancelToken`] cancellation are inherently
//! timing-dependent — sequential runs do not reproduce byte-identically
//! under them either — so those stop the parallel engine cooperatively at
//! the next check without a replay, preserving the outcome contract
//! (`Outcome`, `ExhaustionCause`, supervisor exit codes) rather than exact
//! partial facts.
//!
//! `--threads 1` does not even construct this engine: [`crate::solver::analyze`]
//! routes single-threaded configurations to the unmodified sequential
//! solver, which is why `Parallelism::sequential()` is *definitionally*
//! today's solver.

use std::thread;

use rudoop_ir::{ClassHierarchy, FieldId, InvokeId, Program};

use crate::context::{CObj, CtxId};
use crate::policy::ContextPolicy;
use crate::rules::{cast_admits, Core, Graph, NodeKind, NodeTable};
use crate::shard::ShardMap;
use crate::solver::{CancelToken, ExhaustionCause, PointsToResult, SolverConfig, SolverError};
use crate::telemetry::{shard_lane, Telemetry};

/// Thread-count configuration for one solver run.
///
/// The default (`threads == 1`) runs the unmodified sequential solver;
/// higher counts run the sharded engine of this module with one shard per
/// thread. Results are byte-identical either way (see the module docs),
/// so this is purely a performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Upper bound on worker threads; requests are clamped into range.
    pub const MAX_THREADS: usize = 256;

    /// Run with `n` threads (clamped to `1..=MAX_THREADS`).
    pub fn threads(n: usize) -> Self {
        Parallelism {
            threads: n.clamp(1, Self::MAX_THREADS),
        }
    }

    /// The sequential engine (one thread).
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// Configured thread count (≥ 1).
    pub fn thread_count(self) -> usize {
        self.threads
    }

    /// Whether the sharded engine (rather than the sequential solver) runs.
    pub fn is_parallel(self) -> bool {
        self.threads > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

/// Node identifier: owning shard in the high half, index into the shard's
/// local tables in the low half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PNode(u64);

impl PNode {
    fn new(shard: u32, idx: u32) -> Self {
        PNode((u64::from(shard) << 32) | u64::from(idx))
    }

    fn shard(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn idx(self) -> usize {
        self.0 as u32 as usize
    }
}

/// A derivation discovered by a worker that needs coordinator-owned state
/// (field-node interning, context merging, call-graph growth). Replayed at
/// the barrier in (shard index, push order) order. `obj` is an interned
/// object id.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// `obj` arrived at a load base: connect `obj.field → to`.
    Load { field: FieldId, to: PNode, obj: u32 },
    /// `obj` arrived at a store base: connect `from → obj.field`.
    Store {
        from: PNode,
        field: FieldId,
        obj: u32,
    },
    /// `obj` arrived at the receiver of `invoke` under `caller`.
    Call {
        invoke: InvokeId,
        caller: CtxId,
        obj: u32,
    },
}

/// Per-shard solver state. Only the owning worker (during an epoch) or the
/// coordinator (between epochs) touches it — never both at once.
#[derive(Debug, Default)]
struct ShardState {
    /// The shard's nodes; their derivation counter is this shard's share
    /// of the budget currency and the imbalance metric.
    nodes: NodeTable<PNode>,
    /// Messages (node, object id) to apply next epoch, pre-ordered by the
    /// coordinator.
    inbox: Vec<(PNode, u32)>,
    /// Messages for other shards, one queue per destination.
    outbox: Vec<Vec<(PNode, u32)>>,
    /// Derivations needing the coordinator, in discovery order.
    pending: Vec<Pending>,
    /// Worklist pops during the last epoch (deterministic engine metric).
    epoch_drains: u64,
    /// Inbox messages applied at the start of the last epoch.
    epoch_inbox: u64,
    /// Worker-measured busy window of the last epoch, µs since the
    /// telemetry origin. Written by the worker without locking and read by
    /// the coordinator at the barrier; zero when telemetry is off.
    busy_start_us: u64,
    busy_end_us: u64,
}

impl ShardState {
    /// Delivers `obj` to `node`: inserted now when this shard owns it,
    /// queued for the owner's next epoch otherwise.
    fn deliver(&mut self, me: usize, node: PNode, obj: u32) {
        if node.shard() == me {
            self.nodes.add_local(node.idx(), obj);
        } else {
            self.outbox[node.shard()].push((node, obj));
        }
    }
}

/// The sharded graph. Rules run only on the coordinator's thread (at the
/// barrier), so a rule's tuple insertion is routed as a message and the
/// hash insertion happens on the owning worker next epoch.
struct Shards {
    map: ShardMap,
    shards: Vec<ShardState>,
    /// Coordinator-originated messages (edge flushes, alloc seeds), routed
    /// after all shard outboxes so application order stays deterministic.
    coord_outbox: Vec<Vec<(PNode, u32)>>,
}

impl Graph for Shards {
    type Node = PNode;

    fn push_node(&mut self, program: &Program, kind: NodeKind, ctx: CtxId) -> PNode {
        let shard = match kind {
            NodeKind::Var(var, _) => self.map.of_var(program, var),
            NodeKind::Field(obj, _) => self.map.of_alloc(program, obj.heap()),
            NodeKind::Global(global) => self.map.of_global(global),
        };
        PNode::new(shard, self.shards[shard as usize].nodes.push(kind, ctx))
    }

    fn slot(&mut self, node: PNode) -> (&mut NodeTable<PNode>, usize) {
        (&mut self.shards[node.shard()].nodes, node.idx())
    }

    fn add_obj(&mut self, node: PNode, obj: u32) {
        self.coord_outbox[node.shard()].push((node, obj));
    }

    fn tables(&self) -> impl Iterator<Item = &NodeTable<PNode>> {
        self.shards.iter().map(|s| &s.nodes)
    }
}

/// Per-epoch drain chunk when a derivation or byte budget is set: bounds
/// how far past the budget a single epoch can overshoot before the barrier
/// detects it and triggers the sequential replay. A deterministic function
/// of shard-local state, so it cannot break equivalence.
const BUDGETED_EPOCH_CHUNK: u64 = 32_768;

/// How often (in worklist pops / barrier events) cooperative cancellation
/// and wall-clock deadlines are polled.
const POLL_MASK: u64 = 0xFF;

/// One worker epoch: apply the inbox, then drain the local worklist.
/// `objs` is the coordinator's id → object table, read-only here.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    shard: &mut ShardState,
    me: usize,
    program: &Program,
    hierarchy: &ClassHierarchy,
    objs: &[CObj],
    cancel: Option<&CancelToken>,
    chunk: u64,
    tele: Option<&Telemetry>,
) {
    // Workers never lock the telemetry mutex: they stamp their busy window
    // into shard-local fields (now_us is a lock-free clock read) and the
    // coordinator records the spans at the barrier, in shard-index order.
    if let Some(t) = tele {
        shard.busy_start_us = t.now_us();
    }
    shard.epoch_drains = 0;
    let start_derivations = shard.nodes.derivations;
    let inbox = std::mem::take(&mut shard.inbox);
    shard.epoch_inbox = inbox.len() as u64;
    for (node, obj) in inbox {
        debug_assert_eq!(node.shard(), me);
        shard.nodes.add_local(node.idx(), obj);
    }
    let mut steps = 0u64;
    loop {
        if shard.nodes.derivations - start_derivations >= chunk {
            break;
        }
        steps += 1;
        if steps & POLL_MASK == 0 {
            if let Some(c) = cancel {
                if c.is_cancelled() {
                    break;
                }
            }
        }
        let Some(i) = shard.nodes.pop() else {
            break;
        };
        shard.epoch_drains += 1;
        let d = std::mem::take(&mut shard.nodes.delta[i]);
        if d.is_empty() {
            continue;
        }
        // Workers add no edges, so these lists cannot grow mid-loop.
        for k in 0..shard.nodes.succ[i].len() {
            let s = shard.nodes.succ[i][k];
            for &o in &d {
                shard.deliver(me, s, o);
            }
        }
        for k in 0..shard.nodes.filter_succ[i].len() {
            let (class, s) = shard.nodes.filter_succ[i][k];
            for &o in &d {
                if cast_admits(program, hierarchy, objs, o, class) {
                    shard.deliver(me, s, o);
                }
            }
        }
        for &(field, to) in &shard.nodes.loads[i] {
            for &o in &d {
                shard.pending.push(Pending::Load { field, to, obj: o });
            }
        }
        for &(field, from) in &shard.nodes.stores[i] {
            for &o in &d {
                shard.pending.push(Pending::Store {
                    from,
                    field,
                    obj: o,
                });
            }
        }
        let caller = shard.nodes.node_ctx[i];
        for &invoke in &shard.nodes.calls[i] {
            for &o in &d {
                shard.pending.push(Pending::Call {
                    invoke,
                    caller,
                    obj: o,
                });
            }
        }
    }
    if let Some(t) = tele {
        shard.busy_end_us = t.now_us();
    }
}

/// What the barrier decided about the run.
enum Verdict {
    /// More work queued; run another epoch.
    Continue,
    /// Fixpoint: every worklist, inbox and queue is empty.
    Done,
    /// Stop cooperatively (cancellation / wall clock); keep partial facts.
    Stop(ExhaustionCause),
    /// A deterministic limit (derivations, bytes, capacity) was crossed:
    /// discard this attempt and replay sequentially.
    Replay,
}

/// The sharded engine: the shared rules over the sharded graph, plus the
/// epoch bookkeeping.
struct Engine<'p> {
    core: Core<'p, Shards>,
    /// Index of the next epoch to run (== number of epochs completed).
    epoch_index: u64,
    /// Per-epoch per-shard derivation deltas — the imbalance-over-time
    /// record behind [`PointsToResult::epoch_shard_work`]. Always
    /// collected: one `u64` per shard per epoch.
    epoch_shard_work: Vec<Vec<u64>>,
    /// Per-shard derivation counters at the last epoch boundary.
    prev_derivations: Vec<u64>,
}

/// Why `solve` gave up on the parallel attempt.
struct ReplayNeeded;

impl<'p> Engine<'p> {
    fn new(
        program: &'p Program,
        hierarchy: &'p ClassHierarchy,
        policy: &'p dyn ContextPolicy,
        config: SolverConfig,
    ) -> Self {
        let n = config.parallelism.thread_count();
        let map = ShardMap::partition(program, n);
        if let Some(tele) = config.telemetry.as_deref() {
            let mut args: Vec<(String, String)> = vec![("shards".to_owned(), n.to_string())];
            for (i, load) in map.static_load().iter().enumerate() {
                args.push((format!("static_load.{i}"), load.to_string()));
            }
            tele.instant("shard-partition", args);
        }
        let shards = Shards {
            map,
            shards: (0..n)
                .map(|_| ShardState {
                    outbox: (0..n).map(|_| Vec::new()).collect(),
                    ..ShardState::default()
                })
                .collect(),
            coord_outbox: (0..n).map(|_| Vec::new()).collect(),
        };
        Engine {
            core: Core::new(program, hierarchy, policy, config, shards),
            epoch_index: 0,
            epoch_shard_work: Vec::new(),
            prev_derivations: vec![0; n],
        }
    }

    /// The inter-epoch barrier: replay pending events, instantiate newly
    /// reachable method bodies, route messages, then evaluate the stop
    /// conditions on the merged counters.
    fn barrier(&mut self) -> Result<Verdict, SolverError> {
        let core = &mut self.core;
        let tele = core.config.telemetry.clone();
        let span = crate::telemetry::span_opt(&tele, "barrier");
        if core.is_cancelled() {
            return Ok(Verdict::Stop(ExhaustionCause::Cancelled));
        }
        let mut pending: Vec<Pending> = Vec::new();
        for s in &mut core.graph.shards {
            pending.append(&mut s.pending);
        }
        let pending_count = pending.len() as u64;
        let mut polled = 0u64;
        let poll = |core: &Core<'_, Shards>, polled: &mut u64| -> Option<Verdict> {
            *polled += 1;
            if *polled & POLL_MASK != 0 {
                return None;
            }
            if core.is_cancelled() {
                return Some(Verdict::Stop(ExhaustionCause::Cancelled));
            }
            if core.over_deadline() {
                return Some(Verdict::Stop(ExhaustionCause::WallClock));
            }
            None
        };
        for ev in pending {
            if let Some(stop) = poll(core, &mut polled) {
                return Ok(stop);
            }
            match ev {
                Pending::Load { field, to, obj } => core.load_obj(field, to, obj)?,
                Pending::Store { from, field, obj } => core.store_obj(from, field, obj)?,
                Pending::Call {
                    invoke,
                    caller,
                    obj,
                } => core.process_receiver_call(invoke, caller, obj)?,
            }
        }
        while let Some((m, c)) = core.inst_queue.pop_front() {
            if let Some(stop) = poll(core, &mut polled) {
                return Ok(stop);
            }
            core.instantiate(m, c)?;
        }
        // Route: every destination receives sender 0..n's messages in
        // order, then the coordinator's — a fixed, schedule-independent
        // application order for the next epoch.
        let graph = &mut core.graph;
        let n = graph.shards.len();
        let mut routed = 0u64;
        for d in 0..n {
            let mut inbox = std::mem::take(&mut graph.shards[d].inbox);
            for s in 0..n {
                let msgs = std::mem::take(&mut graph.shards[s].outbox[d]);
                routed += msgs.len() as u64;
                inbox.extend(msgs);
            }
            routed += graph.coord_outbox[d].len() as u64;
            inbox.append(&mut graph.coord_outbox[d]);
            graph.shards[d].inbox = inbox;
        }
        if let Some(t) = tele.as_deref() {
            // Engine metrics: deterministic at a fixed thread count —
            // replay order at the barrier is schedule-independent.
            let e = self.epoch_index;
            t.metric(&format!("barrier{e}.pending"), pending_count);
            t.metric(&format!("barrier{e}.routed"), routed);
            t.sample("derivations", core.derivations());
            t.sample("contexts", core.tables.ctx_count() as u64);
            if let Some(span) = &span {
                span.arg("pending", pending_count);
                span.arg("routed", routed);
            }
        }
        // The sequential solver's stop checks, in its priority order:
        // timing-dependent causes stop cooperatively, deterministic limits
        // replay so the exact exhaustion point is reproduced.
        Ok(match core.stop_cause() {
            Some(cause @ (ExhaustionCause::Cancelled | ExhaustionCause::WallClock)) => {
                Verdict::Stop(cause)
            }
            Some(_) => Verdict::Replay,
            None if core
                .graph
                .shards
                .iter()
                .all(|s| s.nodes.is_idle() && s.inbox.is_empty()) =>
            {
                Verdict::Done
            }
            None => Verdict::Continue,
        })
    }

    /// One parallel epoch across all shards.
    fn run_parallel_epoch(&mut self) {
        let config = &self.core.config;
        let chunk = if config.budget.max_derivations.is_some() || config.budget.max_bytes.is_some()
        {
            BUDGETED_EPOCH_CHUNK
        } else {
            u64::MAX
        };
        let program = self.core.program;
        let hierarchy = self.core.hierarchy;
        let objs = &self.core.objs;
        let cancel = config.cancel.clone();
        let tele = config.telemetry.as_deref();
        let span = tele.map(|t| {
            let s = t.span("epoch");
            s.arg("epoch", self.epoch_index);
            s
        });
        thread::scope(|scope| {
            for (i, shard) in self.core.graph.shards.iter_mut().enumerate() {
                let cancel = cancel.clone();
                scope.spawn(move || {
                    run_epoch(
                        shard,
                        i,
                        program,
                        hierarchy,
                        objs,
                        cancel.as_ref(),
                        chunk,
                        tele,
                    );
                });
            }
        });
        drop(span);
        self.record_epoch();
    }

    /// Post-epoch bookkeeping: fold per-shard derivation deltas into the
    /// imbalance-over-time record and, when telemetry is attached, emit
    /// the workers' busy-window spans (in shard-index order) and the
    /// epoch's deterministic engine metrics.
    fn record_epoch(&mut self) {
        let tele = self.core.config.telemetry.as_deref();
        let shards = &self.core.graph.shards;
        let mut deltas = Vec::with_capacity(shards.len());
        let mut total = 0u64;
        let mut max = 0u64;
        let mut drains = 0u64;
        for (i, shard) in shards.iter().enumerate() {
            let delta = shard.nodes.derivations - self.prev_derivations[i];
            self.prev_derivations[i] = shard.nodes.derivations;
            total += delta;
            max = max.max(delta);
            drains += shard.epoch_drains;
            deltas.push(delta);
            if let Some(t) = tele {
                t.complete_span(
                    shard_lane(i),
                    "drain",
                    shard.busy_start_us,
                    shard.busy_end_us,
                    vec![
                        ("epoch".to_owned(), self.epoch_index.to_string()),
                        ("work".to_owned(), delta.to_string()),
                        ("drains".to_owned(), shard.epoch_drains.to_string()),
                        ("inbox".to_owned(), shard.epoch_inbox.to_string()),
                    ],
                );
            }
        }
        if let Some(t) = tele {
            let e = self.epoch_index;
            t.metric(&format!("epoch{e}.work"), total);
            t.metric(&format!("epoch{e}.max_shard_work"), max);
            t.metric(&format!("epoch{e}.drains"), drains);
        }
        self.epoch_shard_work.push(deltas);
        self.epoch_index += 1;
    }

    fn solve(&mut self) -> Result<(), ReplayNeeded> {
        self.core.seed_entries();
        loop {
            match self.barrier() {
                Err(_) => return Err(ReplayNeeded),
                Ok(Verdict::Replay) => return Err(ReplayNeeded),
                Ok(Verdict::Done) => return Ok(()),
                Ok(Verdict::Stop(cause)) => {
                    self.core.exhausted = Some(cause);
                    return Ok(());
                }
                Ok(Verdict::Continue) => {}
            }
            self.run_parallel_epoch();
        }
    }

    /// The shared projection plus the per-shard work split.
    fn into_result(self) -> PointsToResult {
        let shard_work = self.core.graph.tables().map(|t| t.derivations).collect();
        let mut result = self.core.finish();
        result.shard_work = Some(shard_work);
        result.epoch_shard_work = Some(self.epoch_shard_work);
        result
    }
}

/// Runs the sharded engine; falls back to a full sequential replay when a
/// deterministic limit is crossed (see the module docs for why that is the
/// equivalence-preserving choice).
pub(crate) fn analyze_parallel(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
    config: &SolverConfig,
) -> PointsToResult {
    debug_assert!(config.parallelism.is_parallel());
    let span = crate::telemetry::span_opt(&config.telemetry, "parallel-solve");
    if let Some(span) = &span {
        span.arg("analysis", policy.name());
        span.arg("threads", config.parallelism.thread_count());
    }
    let mut engine = Engine::new(program, hierarchy, policy, config.clone());
    match engine.solve() {
        Ok(()) => engine.into_result(),
        Err(ReplayNeeded) => {
            if let Some(t) = config.telemetry.as_deref() {
                // The parallel attempt crossed a deterministic limit; the
                // sequential replay reproduces the exact exhaustion state.
                t.instant("sequential-replay", vec![]);
                t.metric("par.replay", 1);
            }
            let mut sequential = config.clone();
            sequential.parallelism = Parallelism::sequential();
            crate::solver::analyze_sequential(program, hierarchy, policy, &sequential)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Insensitive, ObjectSensitive};
    use crate::solver::{analyze, Budget, Outcome};
    use rudoop_ir::ProgramBuilder;

    fn chain_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let mut prev = b.var(main, "v0");
        b.alloc(main, prev, obj);
        for i in 1..n {
            let v = b.var(main, &format!("v{i}"));
            b.alloc(main, v, obj);
            b.mov(main, v, prev);
            prev = v;
        }
        b.entry(main);
        b.finish()
    }

    fn config(threads: usize) -> SolverConfig {
        SolverConfig {
            parallelism: Parallelism::threads(threads),
            ..SolverConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_on_chain() {
        let p = chain_program(40);
        let h = ClassHierarchy::new(&p);
        let seq = analyze(&p, &h, &Insensitive, &config(1));
        for threads in [2, 4] {
            let par = analyze(&p, &h, &Insensitive, &config(threads));
            assert_eq!(par.stats.canonical(), seq.stats.canonical());
            assert_eq!(par.var_pts, seq.var_pts);
            assert!(par.outcome.is_complete());
        }
    }

    #[test]
    fn parallel_replays_budget_exhaustion_exactly() {
        let p = chain_program(60);
        let h = ClassHierarchy::new(&p);
        let mut seq_cfg = config(1);
        seq_cfg.budget = Budget::derivations(25);
        let seq = analyze(&p, &h, &Insensitive, &seq_cfg);
        assert_eq!(seq.outcome, Outcome::BudgetExhausted);
        for threads in [2, 4] {
            let mut cfg = config(threads);
            cfg.budget = Budget::derivations(25);
            let par = analyze(&p, &h, &Insensitive, &cfg);
            assert_eq!(par.outcome, seq.outcome);
            assert_eq!(par.exhaustion, seq.exhaustion);
            assert_eq!(par.stats.canonical(), seq.stats.canonical());
            assert_eq!(par.var_pts, seq.var_pts);
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let p = chain_program(30);
        let h = ClassHierarchy::new(&p);
        let token = CancelToken::new();
        token.cancel();
        let mut cfg = config(4);
        cfg.cancel = Some(token);
        let r = analyze(&p, &h, &Insensitive, &cfg);
        assert_eq!(r.exhaustion, Some(ExhaustionCause::Cancelled));
        assert_eq!(r.stats.derivations, 0);
    }

    #[test]
    fn object_sensitive_virtual_calls_match() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
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
        b.alloc(main, b1, box_c);
        b.alloc(main, b2, box_c);
        let h1 = b.alloc(main, v1, obj);
        let h2 = b.alloc(main, v2, obj);
        b.vcall(main, None, b1, "set", &[v1]);
        b.vcall(main, None, b2, "set", &[v2]);
        b.vcall(main, Some(o1), b1, "get", &[]);
        b.vcall(main, Some(o2), b2, "get", &[]);
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let policy = ObjectSensitive::new(1, 0);
        let seq = analyze(&p, &h, &policy, &config(1));
        let par = analyze(&p, &h, &policy, &config(3));
        assert_eq!(par.stats.canonical(), seq.stats.canonical());
        assert_eq!(par.points_to(o1), &[h1]);
        assert_eq!(par.points_to(o2), &[h2]);
        assert_eq!(seq.points_to(o1), par.points_to(o1));
    }

    #[test]
    fn shard_work_is_reported_only_for_parallel_runs() {
        let p = chain_program(10);
        let h = ClassHierarchy::new(&p);
        let seq = analyze(&p, &h, &Insensitive, &config(1));
        assert!(seq.shard_work.is_none());
        let par = analyze(&p, &h, &Insensitive, &config(2));
        let work = par.shard_work.expect("parallel runs report shard work");
        assert_eq!(work.len(), 2);
        assert_eq!(
            work.iter().sum::<u64>() + par.stats.call_graph_edges,
            par.stats.derivations
        );
    }
}
