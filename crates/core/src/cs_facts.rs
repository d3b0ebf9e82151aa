//! The substrate the context-sensitive clients share.
//!
//! The taint client ([`crate::taint`]) and the race client
//! ([`crate::races`]) both consume the solver's context-sensitive dump,
//! and both must stay independent of the order in which the solver
//! interned contexts. This module holds what they have in common:
//!
//! - [`CsFacts`]: the completeness and dump checks, then the dump's
//!   var-points-to, `reachable` and `call_graph` relations over
//!   content-ranked context ids. Points-to sets are the solver's own final
//!   node sets, read in place: the index maps each `(var, canonical ctx)`
//!   to its node and each object id to its `(allocation, canonical heap
//!   context)`, and copies no set. Clients that need a set in
//!   `(allocation, heap context)` order ask for a sorted copy of that one
//!   set. The index is built once per dump and cached in it, so every
//!   client of one result shares one build;
//! - [`ClientError`]: why a client could not run;
//! - [`Supervised`]: a client's outcome under the supervisor's exit
//!   contract (analyzed on a completed rung, or skipped);
//! - `span_json` and `push_json_array`: the JSON form of an
//!   instruction's source span and of a report's top-level arrays.
//!
//! Each client keeps only its own algorithm and rendering; a `Client`
//! supplies the nouns that appear in errors, skip reasons and telemetry.

use std::fmt;

use rudoop_ir::{AllocId, InvokeId, MethodId, Program, VarId};

use crate::bitset::{bit_positions, ObjSet};
use crate::context::{CtxId, CtxTables, HCtxId};
use crate::hash::FxHashMap;
use crate::solver::{CsDump, PointsToResult};
use crate::supervisor::SupervisedRun;
use crate::telemetry::TelemetryHandle;

/// How a context-sensitive client names itself in reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Client {
    /// The telemetry instant emitted when the client is skipped.
    skipped_instant: &'static str,
    /// What the client does, in prose (`taint`, `race detection`).
    activity: &'static str,
    /// What it reports, singular (`leak`, `race`).
    finding: &'static str,
}

impl Client {
    /// The taint client.
    pub(crate) const TAINT: Client = Client {
        skipped_instant: "taint-skipped",
        activity: "taint",
        finding: "leak",
    };
    /// The data-race client.
    pub(crate) const RACES: Client = Client {
        skipped_instant: "races-skipped",
        activity: "race detection",
        finding: "race",
    };
}

/// Why a context-sensitive client could not run on a points-to result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The result carries no context-sensitive dump (`record_contexts` was
    /// off).
    MissingContextDump,
    /// The points-to run did not complete; a client over partial facts
    /// would under-report.
    IncompleteAnalysis {
        /// The `analysis` name of the incomplete run.
        analysis: String,
        /// What the client would under-report (`leak`, `race`).
        finding: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::MissingContextDump => f.write_str(
                "points-to result has no context-sensitive dump (enable record_contexts)",
            ),
            ClientError::IncompleteAnalysis { analysis, finding } => write!(
                f,
                "points-to run {analysis:?} is incomplete; refusing to report a partial \
                 {finding} list"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// The outcome of running a client under the supervisor's exit contract.
#[derive(Debug, Clone)]
pub enum Supervised<T> {
    /// The client ran on a *complete* (possibly degraded-but-sound) rung
    /// result.
    Analyzed(T),
    /// No complete rung result was available; the client was skipped
    /// rather than reporting a partial list as if it were complete.
    Skipped {
        /// Human-readable explanation for the report.
        reason: String,
    },
}

impl<T> Supervised<T> {
    /// The analyzed result, when the client ran.
    pub fn as_analyzed(&self) -> Option<&T> {
        match self {
            Supervised::Analyzed(t) => Some(t),
            Supervised::Skipped { .. } => None,
        }
    }
}

/// Runs `analyze` over the outcome of a supervised ladder run, honoring the
/// degradation contract: a completed rung (even a degraded one) is a sound
/// points-to abstraction and the client runs on it; an exhausted ladder
/// yields [`Supervised::Skipped`], because salvaged partial facts would
/// make a partial list masquerade as a complete one. A skip emits the
/// client's `*-skipped` instant.
pub(crate) fn supervised<T>(
    client: Client,
    run: &SupervisedRun,
    tele: &TelemetryHandle,
    analyze: impl FnOnce(&PointsToResult) -> Result<T, ClientError>,
) -> Supervised<T> {
    let outcome = match &run.result {
        Some(result) => match analyze(result) {
            Ok(t) => Supervised::Analyzed(t),
            Err(e) => Supervised::Skipped {
                reason: e.to_string(),
            },
        },
        None => Supervised::Skipped {
            reason: format!(
                "all {} ladder rung(s) exhausted; points-to facts are partial and {} \
                 would under-report {}s",
                run.attempts.len(),
                client.activity,
                client.finding
            ),
        },
    };
    if let (Some(t), Supervised::Skipped { reason }) = (tele.as_deref(), &outcome) {
        t.instant(
            client.skipped_instant,
            vec![("reason".into(), reason.clone())],
        );
    }
    outcome
}

/// A complete points-to result's context-sensitive relations over
/// canonical context ids, as every client consumes them: the dump's own
/// node sets behind the index cached in the dump, plus the context tables
/// that render them.
pub struct CsFacts<'a> {
    index: &'a CsIndex,
    sets: &'a [ObjSet],
    tables: &'a CtxTables,
    /// Reachable `(method, context)` pairs, sorted.
    pub reachable: &'a [(MethodId, CtxId)],
    /// Resolved call edges `(site, caller context, callee, callee
    /// context)`, sorted.
    pub call_graph: &'a [(InvokeId, CtxId, MethodId, CtxId)],
}

impl<'a> CsFacts<'a> {
    /// Checks that `pts` is complete and carries a context-sensitive dump,
    /// then returns the dump's canonical facts.
    ///
    /// # Errors
    ///
    /// [`ClientError::IncompleteAnalysis`] when the run was cut short,
    /// [`ClientError::MissingContextDump`] without a dump.
    pub(crate) fn build(
        pts: &'a PointsToResult,
        client: Client,
        tele: &TelemetryHandle,
    ) -> Result<Self, ClientError> {
        if !pts.outcome.is_complete() {
            return Err(ClientError::IncompleteAnalysis {
                analysis: pts.analysis.clone(),
                finding: client.finding,
            });
        }
        let dump = pts
            .cs_dump
            .as_ref()
            .ok_or(ClientError::MissingContextDump)?;
        Ok(dump.facts(&pts.tables, tele))
    }

    /// The object ids `var` points to in canonical context `ctx`, or
    /// `None` when the set is empty.
    pub(crate) fn pts(&self, var: VarId, ctx: CtxId) -> Option<&'a ObjSet> {
        let node = *self.index.nodes.get(&(var, ctx))?;
        Some(&self.sets[node as usize])
    }

    /// Object `id`'s allocation and canonical heap context.
    pub(crate) fn obj(&self, id: u32) -> (AllocId, HCtxId) {
        self.index.objs[id as usize]
    }

    /// Every object some variable points to, once each.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (AllocId, HCtxId)> + '_ {
        self.index.used.iter().map(|&o| self.obj(o))
    }

    /// The points-to set of `var` in canonical context `ctx`, sorted by
    /// `(allocation, heap context)`; empty when there is none.
    pub fn points_to(&self, var: VarId, ctx: CtxId) -> Vec<(AllocId, HCtxId)> {
        let mut set: Vec<_> = self
            .pts(var, ctx)
            .into_iter()
            .flat_map(ObjSet::iter)
            .map(|o| self.obj(o))
            .collect();
        set.sort_unstable();
        set
    }

    /// How many `(variable, context)` pairs have a non-empty set.
    pub fn key_count(&self) -> usize {
        self.index.nodes.len()
    }

    /// Whether canonical context `ctx` is the empty context.
    pub(crate) fn ctx_is_empty(&self, ctx: CtxId) -> bool {
        self.tables
            .ctx_elems(self.index.canon.orig_ctx(ctx))
            .is_empty()
    }

    /// Renders canonical context `ctx` as the solver's tables print it.
    pub(crate) fn display_ctx(&self, ctx: CtxId, program: &Program) -> String {
        self.tables
            .display_ctx(self.index.canon.orig_ctx(ctx), program)
    }

    /// The elements of canonical heap context `hctx`.
    pub(crate) fn hctx_elems(&self, hctx: HCtxId) -> &[crate::context::ContextElem] {
        self.tables.hctx_elems(self.index.canon.orig_hctx(hctx))
    }
}

impl CsDump {
    /// The canonical facts of this dump, whose contexts `tables` (the run's
    /// [`PointsToResult::tables`]) interns. The index is built on the first
    /// call, under a `cs-index` span, and every later call on the same dump
    /// reuses it.
    pub fn facts<'a>(&'a self, tables: &'a CtxTables, tele: &TelemetryHandle) -> CsFacts<'a> {
        let index = self.index.get_or_init(|| {
            let _span = crate::telemetry::span_opt(tele, "cs-index");
            CsIndex::build(self, tables)
        });
        CsFacts {
            index,
            sets: &self.pts,
            tables,
            reachable: &index.reachable,
            call_graph: &index.call_graph,
        }
    }
}

/// The index behind [`CsFacts`], built once per dump. It holds no
/// points-to set: those stay in the dump's nodes.
#[derive(Debug, Clone)]
pub(crate) struct CsIndex {
    canon: CtxCanon,
    /// The node of each `(variable, canonical context)` with a non-empty
    /// set.
    nodes: FxHashMap<(VarId, CtxId), u32>,
    /// Each object id's allocation and canonical heap context (meaningful
    /// for the ids in `used`).
    objs: Vec<(AllocId, HCtxId)>,
    /// The object ids some variable points to, ascending.
    used: Vec<u32>,
    reachable: Vec<(MethodId, CtxId)>,
    call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)>,
}

impl CsIndex {
    /// Canonicalizes the dump's contexts and keys each non-empty variable
    /// node by its `(var, canonical ctx)`. Variable nodes are unique per
    /// `(var, ctx)` and canonicalization is a bijection on the used ids,
    /// so no two nodes share a key.
    fn build(dump: &CsDump, tables: &CtxTables) -> Self {
        // The objects some variable points to, as bitset words.
        let mut used_objs = vec![0u64; dump.objs.len().div_ceil(64)];
        let mut ctx_used = vec![false; tables.ctx_count()];
        let mut keys = 0;
        for (_, _, ctx, pts) in dump.var_sets() {
            match pts {
                ObjSet::Small(ids) => {
                    for &o in ids {
                        used_objs[o as usize / 64] |= 1 << (o % 64);
                    }
                }
                ObjSet::Dense { words, .. } => {
                    for (u, &w) in used_objs.iter_mut().zip(words) {
                        *u |= w;
                    }
                }
            }
            if !pts.is_empty() {
                ctx_used[ctx.0 as usize] = true;
                keys += 1;
            }
        }
        for (_, caller, _, callee) in dump.call_graph() {
            ctx_used[caller.0 as usize] = true;
            ctx_used[callee.0 as usize] = true;
        }
        for (_, ctx) in dump.reachable() {
            ctx_used[ctx.0 as usize] = true;
        }
        let used: Vec<u32> = bit_positions(&used_objs).collect();
        let mut hctx_used = vec![false; tables.hctx_count()];
        for &o in &used {
            hctx_used[dump.objs[o as usize].hctx().0 as usize] = true;
        }
        let canon = CtxCanon::build(&ctx_used, &hctx_used, tables);

        let objs = dump
            .objs
            .iter()
            .map(|o| (o.heap(), canon.hctx(o.hctx())))
            .collect();
        let mut nodes = FxHashMap::with_capacity_and_hasher(keys, Default::default());
        for (node, var, ctx, pts) in dump.var_sets() {
            if !pts.is_empty() {
                nodes.insert((var, canon.ctx(ctx)), node);
            }
        }

        // Both relations are sets, so their canonical images are too.
        let mut reachable: Vec<(MethodId, CtxId)> =
            dump.reachable().map(|(m, c)| (m, canon.ctx(c))).collect();
        reachable.sort_unstable();
        let mut call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)> = dump
            .call_graph()
            .map(|(i, cc, m, ec)| (i, canon.ctx(cc), m, canon.ctx(ec)))
            .collect();
        call_graph.sort_unstable();

        CsIndex {
            canon,
            nodes,
            objs,
            used,
            reachable,
            call_graph,
        }
    }
}

/// Content-based renumbering of the context ids used by a dump.
///
/// Raw [`CtxId`] / [`HCtxId`] values record the order in which the solver
/// interned contexts, not what the contexts are. Everything
/// order-sensitive in a client (sorting the dump, graph node interning,
/// BFS tie-breaks when several shortest traces exist) runs on canonical
/// ids: contexts ranked by their element sequences, which do not depend on
/// interning order. Original ids survive only for rendering.
///
/// Ranks are dense vectors indexed by the raw id, so canonicalizing an id
/// costs one array read.
#[derive(Debug, Clone)]
struct CtxCanon {
    ctx_rank: Vec<CtxId>,
    hctx_rank: Vec<HCtxId>,
    ctx_orig: Vec<CtxId>,
    hctx_orig: Vec<HCtxId>,
}

impl CtxCanon {
    /// Ranks the ids marked in `ctx_used` and `hctx_used` by content.
    fn build(ctx_used: &[bool], hctx_used: &[bool], tables: &CtxTables) -> Self {
        // Interning deduplicates, so element sequences are unique per id
        // and sorting by contents is a total order.
        let mut ctx_orig: Vec<CtxId> = used_ids(ctx_used).map(CtxId).collect();
        ctx_orig.sort_unstable_by(|&a, &b| tables.ctx_elems(a).cmp(tables.ctx_elems(b)));
        let mut hctx_orig: Vec<HCtxId> = used_ids(hctx_used).map(HCtxId).collect();
        hctx_orig.sort_unstable_by(|&a, &b| tables.hctx_elems(a).cmp(tables.hctx_elems(b)));

        // Unused ids keep a rank nothing reads.
        let mut ctx_rank = vec![CtxId(u32::MAX); ctx_used.len()];
        for (rank, &orig) in ctx_orig.iter().enumerate() {
            ctx_rank[orig.0 as usize] = CtxId(rank as u32);
        }
        let mut hctx_rank = vec![HCtxId(u32::MAX); hctx_used.len()];
        for (rank, &orig) in hctx_orig.iter().enumerate() {
            hctx_rank[orig.0 as usize] = HCtxId(rank as u32);
        }
        CtxCanon {
            ctx_rank,
            hctx_rank,
            ctx_orig,
            hctx_orig,
        }
    }

    fn ctx(&self, id: CtxId) -> CtxId {
        self.ctx_rank[id.0 as usize]
    }

    fn hctx(&self, id: HCtxId) -> HCtxId {
        self.hctx_rank[id.0 as usize]
    }

    fn orig_ctx(&self, canonical: CtxId) -> CtxId {
        self.ctx_orig[canonical.0 as usize]
    }

    fn orig_hctx(&self, canonical: HCtxId) -> HCtxId {
        self.hctx_orig[canonical.0 as usize]
    }
}

/// The raw ids marked in `used`, ascending.
fn used_ids(used: &[bool]) -> impl Iterator<Item = u32> + '_ {
    used.iter()
        .enumerate()
        .filter(|&(_, &u)| u)
        .map(|(id, _)| id as u32)
}

/// A copy of `result` as a solver that interned the same contexts in
/// reverse order would have produced it: fresh context tables, every
/// context id in the dump renumbered to match, and no cached fact index.
#[cfg(test)]
pub(crate) fn renumber_contexts(result: &PointsToResult) -> PointsToResult {
    use crate::context::CObj;
    use crate::rules::NodeKind;

    let mut tables = CtxTables::new();
    let mut cmap = vec![CtxId::EMPTY; result.tables.ctx_count()];
    for id in (0..result.tables.ctx_count() as u32).rev() {
        cmap[id as usize] = tables.intern_ctx(result.tables.ctx_elems(CtxId(id)));
    }
    let mut hmap = vec![HCtxId::EMPTY; result.tables.hctx_count()];
    for id in (0..result.tables.hctx_count() as u32).rev() {
        hmap[id as usize] = tables.intern_hctx(result.tables.hctx_elems(HCtxId(id)));
    }
    let mut twin = result.clone();
    twin.tables = tables;
    let dump = twin.cs_dump.as_mut().expect("contexts are recorded");
    let obj = |o: CObj| CObj::new(o.heap(), hmap[o.hctx().0 as usize]);
    let key = |k: u64| (k >> 32 << 32) | u64::from(cmap[k as u32 as usize].0);
    for kind in &mut dump.kinds {
        match kind {
            NodeKind::Var(_, ctx) => *ctx = cmap[ctx.0 as usize],
            NodeKind::Field(base, _) => *base = obj(*base),
            NodeKind::Global(_) => {}
        }
    }
    for o in &mut dump.objs {
        *o = obj(*o);
    }
    dump.cg_edges = dump
        .cg_edges
        .iter()
        .map(|&(ic, mc)| (key(ic), key(mc)))
        .collect();
    dump.reachable = dump.reachable.iter().map(|&k| key(k)).collect();
    dump.index = std::sync::OnceLock::new();
    twin
}

/// Appends the top-level report key `key` holding `items`, one per line:
/// `"key": []` when empty, else the items indented under the key and the
/// closing bracket on its own line; then `,` unless the key is `last`.
pub(crate) fn push_json_array(
    out: &mut String,
    key: &str,
    items: impl IntoIterator<Item = String>,
    last: bool,
) {
    out.push_str(&format!("  \"{key}\": ["));
    let mut empty = true;
    for item in items {
        out.push_str(if empty { "\n    " } else { ",\n    " });
        out.push_str(&item);
        empty = false;
    }
    out.push_str(if empty { "]" } else { "\n  ]" });
    out.push_str(if last { "\n" } else { ",\n" });
}

/// The source span of body instruction `index` of `method` as a JSON
/// value: `"line:col"`, or `null` when unknown.
pub(crate) fn span_json(program: &Program, method: MethodId, index: usize) -> String {
    let span = program.methods[method].span_of(index);
    if span.is_known() {
        format!("\"{span}\"")
    } else {
        "null".to_owned()
    }
}
