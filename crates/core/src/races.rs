//! Context-sensitive data-race detection, layered on the points-to substrate.
//!
//! The race client reinterprets the solver's context-sensitive call graph:
//! every [`Instruction::Spawn`] site is an ordinary virtual call of `run/0`
//! to the solver, so the resolved edges out of spawn sites *are* the
//! thread-creation graph, at full context precision. From them the client
//! computes
//!
//! 1. **EXEC** — which `(method, context)` instances each abstract thread
//!    (main, plus one per reachable spawn site) may execute, a least
//!    fixpoint over the context-sensitive call graph where spawn edges
//!    switch threads and all other edges stay in-thread;
//! 2. **MHP** — which access instances may happen in parallel: distinct
//!    threads always may, except accesses structurally ordered inside a
//!    once-executed spawning body (before the spawn, or after a matching
//!    `join` of the spawn's receiver); a thread is parallel with itself iff
//!    its spawn site may execute more than once (the once/multi method
//!    classification over the projected call graph);
//! 3. **lock sets** — structural `monitorenter`/`monitorexit` regions plus
//!    an interprocedural must-lock greatest fixpoint, with each lock
//!    variable resolved through points-to. A region *guards* only when the
//!    lock variable points to exactly one allocation site (must-alias); a
//!    region whose lock points to nothing is dead and its accesses are
//!    excluded.
//!
//! A **race** is a pair of accesses to the same field (or the same static
//! field) where the base objects may alias under their contexts, at least
//! one side writes, the instances may happen in parallel, and the sides
//! hold no common abstract lock. Witnesses are deterministic: one per
//! `(field, site, site)` triple, each side carrying a shortest
//! thread-root-to-access call chain, mirroring the taint client's traces.
//!
//! Precision and soundness: merging contexts only grows points-to sets, so
//! base aliasing and MHP only grow under a coarser policy, while the
//! must-alias lock resolution can only *lose* singletons — under
//! refinement a coarse singleton `{h}` either stays `{h}` or becomes
//! empty (a dead region, also excluded). Hence `races(2objH) ⊆
//! races(introspective) ⊆ races(insens)`: the differential suite asserts
//! this chain, and the Datalog reference model in `rudoop-datalog` pins
//! the race set byte-identical. The deliberate soundness gap — a singleton
//! allocation site may still stand for many runtime objects — is not
//! hidden but surfaced as the R002 lint via
//! [`RaceResult::suspect_guards`].

use std::collections::BTreeSet;

use rudoop_ir::{
    AllocId, FieldId, GlobalId, IdxVec, Instruction, InvokeId, InvokeKind, MethodId, Program,
    SccDag, StaticCallGraph, VarId,
};

use crate::context::{CtxId, HCtxId};
use crate::cs_facts::{
    push_json_array, span_json, supervised, Client, ClientError, CsFacts, Supervised,
};
use crate::hash::{FxHashMap, FxHashSet};
use crate::json::escape;
use crate::solver::PointsToResult;
use crate::supervisor::SupervisedRun;

/// A statement position: `(method, statement index)`.
pub type Site = (MethodId, usize);
/// A method analyzed under a calling context.
type CtxNode = (MethodId, CtxId);

/// What a racy access touches: an instance field or a static field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceKey {
    /// An instance field (the base objects must may-alias to conflict).
    Field(FieldId),
    /// A static field (a single slot; accesses always conflict).
    Global(GlobalId),
}

/// One side of a race witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceAccess {
    /// Method containing the access.
    pub method: MethodId,
    /// Body index of the access instruction.
    pub index: usize,
    /// Whether this side writes.
    pub is_write: bool,
    /// Rendered label of the thread performing the access (`main` or
    /// `spawn@Class.m/…:i`).
    pub thread: String,
    /// Shortest call chain from the thread root to the access, one
    /// rendered line per step, ending with the access itself.
    pub trace: Vec<String>,
}

/// One data-race witness: two conflicting, parallel, unguarded accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The contended field or static slot.
    pub key: RaceKey,
    /// Rendered location, e.g. `Counter.hits` or `static Registry.all`.
    pub location: String,
    /// First access, site-ordered: `(a.method, a.index) <= (b.method,
    /// b.index)`.
    pub a: RaceAccess,
    /// Second access.
    pub b: RaceAccess,
}

/// A monitor region whose singleton lock abstraction may stand for more
/// than one runtime object — the exclusion it provides is suspect (R002).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SuspectGuard {
    /// Method containing the `monitorenter`.
    pub method: MethodId,
    /// Body index of the `monitorenter`.
    pub index: usize,
    /// The abstract lock object.
    pub lock: AllocId,
}

/// An object reachable from a thread other than the one whose code
/// allocated it (R003).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Escape {
    /// The escaping allocation site.
    pub alloc: AllocId,
    /// Method containing the foreign access.
    pub method: MethodId,
    /// Body index of the foreign access.
    pub index: usize,
}

/// The output of [`analyze_races`]: deterministic race witnesses plus the
/// observations the R-series lints consume.
#[derive(Debug, Clone)]
pub struct RaceResult {
    /// `analysis` name of the underlying points-to run.
    pub analysis: String,
    /// All witnesses, sorted by `(key, a-site, b-site)`; exactly one
    /// witness per such triple.
    pub races: Vec<Race>,
    /// Rendered thread labels, `main` first, then spawn sites in id order.
    pub threads: Vec<String>,
    /// Distinct reachable access sites `(method, index)`.
    pub access_sites: usize,
    /// Access sites holding at least one must-lock in some instance.
    pub guarded_sites: usize,
    /// Access sites excluded because an enclosing lock points to nothing.
    pub dead_sites: usize,
    /// Monitor regions with a singleton lock whose allocation site may
    /// have multiple live instances, sorted (R002).
    pub suspect_guards: Vec<SuspectGuard>,
    /// Monitor regions with no access and no call strictly inside,
    /// sorted (R004).
    pub dead_regions: Vec<(MethodId, usize)>,
    /// Cross-thread object escapes, sorted (R003).
    pub escapes: Vec<Escape>,
}

impl RaceResult {
    /// The context-free projection of the race set, sorted: `(key, site A,
    /// site B)` with A ≤ B. This is the canonical form the differential
    /// tests compare against the Datalog reference model.
    pub fn race_set(&self) -> Vec<(RaceKey, Site, Site)> {
        self.races
            .iter()
            .map(|r| (r.key, (r.a.method, r.a.index), (r.b.method, r.b.index)))
            .collect()
    }
}

/// The outcome of running race detection under the supervisor's exit
/// contract.
pub type SupervisedRaces = Supervised<RaceResult>;

/// Runs race detection over the outcome of a supervised ladder run,
/// honoring the degradation contract: a completed rung (even a degraded
/// one) is a sound points-to abstraction and the client runs on it; an
/// exhausted ladder yields [`Supervised::Skipped`].
pub fn supervised_races(program: &Program, run: &SupervisedRun) -> SupervisedRaces {
    supervised_races_traced(program, run, &None)
}

/// [`supervised_races`] with telemetry: wraps the run in a `races` span and
/// emits a `races-skipped` instant when the degradation contract forces a
/// skip. Passing `&None` is equivalent to the untraced entry point.
pub fn supervised_races_traced(
    program: &Program,
    run: &SupervisedRun,
    tele: &crate::telemetry::TelemetryHandle,
) -> SupervisedRaces {
    supervised(Client::RACES, run, tele, |result| {
        analyze_races_traced(program, result, tele)
    })
}

/// Runs the race client over a completed points-to result.
///
/// The result must have been produced with
/// [`record_contexts`](crate::solver::SolverConfig::record_contexts) so the
/// context-sensitive relations are available.
///
/// # Errors
///
/// [`ClientError::MissingContextDump`] without a dump,
/// [`ClientError::IncompleteAnalysis`] when the run was cut short.
pub fn analyze_races(program: &Program, pts: &PointsToResult) -> Result<RaceResult, ClientError> {
    analyze_races_traced(program, pts, &None)
}

/// How a lock variable resolves under a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockRes {
    /// Points to nothing: the region is dead.
    Dead,
    /// Points to several allocation sites: no must-alias, no guard.
    Many,
    /// Points to exactly one allocation site: guards by that lock.
    One(AllocId),
}

/// Structural concurrency shape of one method body.
#[derive(Debug, Default)]
struct BodyShape {
    /// `(enter index, exit index, lock var)` per well-bracketed region.
    regions: Vec<(usize, usize, VarId)>,
    /// `(index, invoke, receiver var)` per spawn site.
    spawns: Vec<(usize, InvokeId, VarId)>,
    /// `(index, var)` per join.
    joins: Vec<(usize, VarId)>,
    /// Number of body instructions defining each var (for the
    /// single-assignment guard on join matching).
    defs: FxHashMap<VarId, usize>,
}

/// One context-qualified access instance, with the threads executing it.
#[derive(Debug)]
struct AccessInst {
    site: (MethodId, usize),
    ctx: CtxId,
    key: RaceKey,
    base: Option<VarId>,
    write: bool,
    locks: BTreeSet<AllocId>,
    threads: Vec<usize>,
}

/// [`analyze_races`] with telemetry: the whole client runs under a `races`
/// span with nested `races-facts` (the fact index), `races-mhp`
/// (thread/EXEC/once-multi computation), `races-locks` (regions plus the
/// interprocedural must-lock fixpoint), `races-access` (access instances
/// and suspect guards) and `races-pairs` (the candidate join) spans, and
/// the structural tallies land in the deterministic counter stream.
/// Passing `&None` is equivalent to the untraced entry point.
pub fn analyze_races_traced(
    program: &Program,
    pts: &PointsToResult,
    tele: &crate::telemetry::TelemetryHandle,
) -> Result<RaceResult, ClientError> {
    let span = crate::telemetry::span_opt(tele, "races");
    if let Some(s) = &span {
        s.arg("analysis", &pts.analysis);
    }
    // Everything order-sensitive downstream runs on content-ranked ids.
    let facts_span = crate::telemetry::span_opt(tele, "races-facts");
    let facts = CsFacts::build(pts, Client::RACES, tele)?;
    drop(facts_span);
    let (vpt, reachable, call_graph) = (facts.vpt, facts.reachable, facts.call_graph);

    // Body index of every invoke site, and the structural shape of every
    // method body.
    let mut invoke_at: FxHashMap<InvokeId, (MethodId, usize)> = FxHashMap::default();
    let mut shapes: FxHashMap<MethodId, BodyShape> = FxHashMap::default();
    for (mid, m) in program.methods.iter() {
        let mut shape = BodyShape::default();
        let mut stack: Vec<(usize, VarId)> = Vec::new();
        for (i, instr) in m.body.iter().enumerate() {
            match *instr {
                Instruction::Call { invoke } => {
                    invoke_at.insert(invoke, (mid, i));
                }
                Instruction::Spawn { invoke } => {
                    invoke_at.insert(invoke, (mid, i));
                    let base = match program.invokes[invoke].kind {
                        InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => base,
                        // The validator rejects static spawns; tolerate by
                        // treating the (absent) receiver as a fresh var.
                        InvokeKind::Static { .. } => continue,
                    };
                    shape.spawns.push((i, invoke, base));
                }
                Instruction::Join { var } => shape.joins.push((i, var)),
                Instruction::MonitorEnter { var } => stack.push((i, var)),
                Instruction::MonitorExit { var } => {
                    if let Some((enter, v)) = stack.pop() {
                        if v == var {
                            shape.regions.push((enter, i, v));
                        }
                    }
                }
                _ => {}
            }
            if let Some(d) = defined_var(program, instr) {
                *shape.defs.entry(d).or_insert(0) += 1;
            }
        }
        shape.regions.sort_unstable();
        shapes.insert(mid, shape);
    }

    // ---- Threads and the EXEC relation (races-mhp span) -----------------
    let mhp_span = crate::telemetry::span_opt(tele, "races-mhp");

    let spawn_site_set: FxHashSet<InvokeId> =
        program.spawn_sites().map(|(_, _, inv)| inv).collect();
    let mut spawn_threads: Vec<InvokeId> = call_graph
        .iter()
        .filter(|&&(inv, _, _, _)| spawn_site_set.contains(&inv))
        .map(|&(inv, _, _, _)| inv)
        .collect();
    spawn_threads.sort_unstable();
    spawn_threads.dedup();
    // Thread 0 is main; thread i+1 is the thread of spawn site i.
    let thread_roots: Vec<Option<InvokeId>> = std::iter::once(None)
        .chain(spawn_threads.iter().copied().map(Some))
        .collect();
    let thread_of: FxHashMap<InvokeId, usize> = spawn_threads
        .iter()
        .enumerate()
        .map(|(i, &inv)| (inv, i + 1))
        .collect();

    let mut edges_from: FxHashMap<CtxNode, Vec<(InvokeId, MethodId, CtxId)>> = FxHashMap::default();
    for &(inv, cctx, m, ectx) in call_graph {
        edges_from
            .entry((program.invokes[inv].method, cctx))
            .or_default()
            .push((inv, m, ectx));
    }
    for out in edges_from.values_mut() {
        out.sort_unstable();
        out.dedup();
    }

    let entry_set: FxHashSet<MethodId> = program.entry_points.iter().copied().collect();
    let entry_seeds: Vec<(MethodId, CtxId)> = reachable
        .iter()
        .copied()
        .filter(|&(m, c)| entry_set.contains(&m) && facts.ctx_is_empty(c))
        .collect();

    let mut exec: FxHashMap<(MethodId, CtxId), BTreeSet<usize>> = FxHashMap::default();
    let mut worklist: Vec<(MethodId, CtxId, usize)> =
        entry_seeds.iter().map(|&(m, c)| (m, c, 0usize)).collect();
    while let Some((m, c, t)) = worklist.pop() {
        if !exec.entry((m, c)).or_default().insert(t) {
            continue;
        }
        if let Some(out) = edges_from.get(&(m, c)) {
            for &(inv, m2, c2) in out {
                let t2 = match thread_of.get(&inv) {
                    Some(&spawned) => spawned,
                    None => t,
                };
                worklist.push((m2, c2, t2));
            }
        }
    }

    // Once/multi classification over the projected (context-insensitive)
    // call graph: a method may execute more than once if it has two
    // distinct incoming call sites (counting the entry seed as one), sits
    // in a call-graph cycle, or is reachable from a multi caller. Spawn
    // edges participate like any other edge — a spawn site executes once
    // per execution of its enclosing body.
    let mut incoming: FxHashMap<MethodId, BTreeSet<InvokeId>> = FxHashMap::default();
    let mut callees: IdxVec<MethodId, Vec<MethodId>> =
        (0..program.methods.len()).map(|_| Vec::new()).collect();
    for &(inv, _, callee, _) in call_graph {
        incoming.entry(callee).or_default().insert(inv);
        callees[program.invokes[inv].method].push(callee);
    }
    let mut edge_count = 0;
    for out in callees.values_mut() {
        out.sort_unstable();
        out.dedup();
        edge_count += out.len();
    }
    let mut methods: Vec<MethodId> = reachable.iter().map(|&(m, _)| m).collect();
    methods.sort_unstable();
    methods.dedup();

    let mut multi: FxHashSet<MethodId> = FxHashSet::default();
    for &m in &methods {
        let sites = incoming.get(&m).map_or(0, BTreeSet::len);
        let seeds = usize::from(entry_set.contains(&m));
        if sites + seeds >= 2 {
            multi.insert(m);
        }
    }
    let sccs = SccDag::from_graph(&StaticCallGraph {
        callees,
        edge_count,
    });
    for (members, _) in sccs.members.iter().zip(&sccs.cyclic).filter(|(_, &c)| c) {
        multi.extend(members.iter().copied());
    }
    // Propagate multi down call edges to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for &m in &methods {
            if multi.contains(&m) {
                continue;
            }
            let from_multi = incoming.get(&m).is_some_and(|sites| {
                sites
                    .iter()
                    .any(|&inv| multi.contains(&program.invokes[inv].method))
            });
            if from_multi {
                multi.insert(m);
                changed = true;
            }
        }
    }
    let self_parallel: Vec<bool> = thread_roots
        .iter()
        .map(|root| match root {
            None => false,
            Some(s) => multi.contains(&program.invokes[*s].method),
        })
        .collect();

    if let Some(s) = &mhp_span {
        s.arg("threads", thread_roots.len());
        s.arg("exec_size", exec.len());
    }
    drop(mhp_span);

    // ---- Lock sets (races-locks span) -----------------------------------
    let locks_span = crate::telemetry::span_opt(tele, "races-locks");

    let resolve = |v: VarId, c: CtxId| -> LockRes {
        match vpt.get(&(v, c)) {
            None => LockRes::Dead,
            Some(objs) => {
                let mut allocs: Vec<AllocId> = objs.iter().map(|&(a, _)| a).collect();
                allocs.sort_unstable();
                allocs.dedup();
                match allocs.as_slice() {
                    [] => LockRes::Dead,
                    [one] => LockRes::One(*one),
                    _ => LockRes::Many,
                }
            }
        }
    };
    // Structural locks enclosing a body index, resolved in a context.
    // `None` when some enclosing lock is dead (the index is unreachable).
    let enclosing_locks = |m: MethodId, idx: usize, c: CtxId| -> Option<BTreeSet<AllocId>> {
        let mut locks = BTreeSet::new();
        for &(enter, exit, v) in &shapes[&m].regions {
            if enter < idx && idx < exit {
                match resolve(v, c) {
                    LockRes::Dead => return None,
                    LockRes::Many => {}
                    LockRes::One(h) => {
                        locks.insert(h);
                    }
                }
            }
        }
        Some(locks)
    };

    // Interprocedural must-lock sets: the greatest fixpoint of
    //   MLS(callee) ⊆ MLS(caller) ∪ structural-locks-at-call-site
    // over every non-spawn call edge, seeded at ∅ for entry methods and
    // spawn targets (a fresh thread holds nothing). Dead call sites (an
    // enclosing lock resolves to nothing) impose no constraint, matching
    // the dead-region exclusion at accesses.
    let mut mls: FxHashMap<(MethodId, CtxId), BTreeSet<AllocId>> = FxHashMap::default();
    let mut queue: Vec<(MethodId, CtxId)> = Vec::new();
    for &(m, c) in &entry_seeds {
        mls.insert((m, c), BTreeSet::new());
        queue.push((m, c));
    }
    for &(inv, _, m, c) in call_graph {
        if spawn_site_set.contains(&inv) && !mls.contains_key(&(m, c)) {
            mls.insert((m, c), BTreeSet::new());
            queue.push((m, c));
        }
    }
    while let Some((m, c)) = queue.pop() {
        let held = mls[&(m, c)].clone();
        let Some(out) = edges_from.get(&(m, c)) else {
            continue;
        };
        for &(inv, m2, c2) in out {
            if spawn_site_set.contains(&inv) {
                continue; // spawn targets are seeded at ∅ above
            }
            let (_, idx) = invoke_at[&inv];
            let Some(site_locks) = enclosing_locks(m, idx, c) else {
                continue; // dead call site: no constraint
            };
            let mut contrib = held.clone();
            contrib.extend(site_locks);
            match mls.get_mut(&(m2, c2)) {
                None => {
                    mls.insert((m2, c2), contrib);
                    queue.push((m2, c2));
                }
                Some(cur) => {
                    let met: BTreeSet<AllocId> = cur.intersection(&contrib).copied().collect();
                    if met.len() != cur.len() {
                        *cur = met;
                        queue.push((m2, c2));
                    }
                }
            }
        }
    }

    if let Some(s) = &locks_span {
        s.arg("mls_nodes", mls.len());
    }
    drop(locks_span);

    // ---- Access instances (races-access span) ----------------------------
    let access_span = crate::telemetry::span_opt(tele, "races-access");
    let mut exec_nodes: Vec<((MethodId, CtxId), Vec<usize>)> = exec
        .iter()
        .map(|(&k, ts)| (k, ts.iter().copied().collect()))
        .collect();
    exec_nodes.sort_unstable();

    // Threads each method runs in (any context) — for escapes and suspect
    // guards.
    let mut method_threads: FxHashMap<MethodId, BTreeSet<usize>> = FxHashMap::default();
    for ((m, _), ts) in &exec_nodes {
        method_threads
            .entry(*m)
            .or_default()
            .extend(ts.iter().copied());
    }

    // Monitor regions whose lock resolves to one allocation site in some
    // executed context: the candidates for suspect guards.
    let mut singleton_regions: BTreeSet<SuspectGuard> = BTreeSet::new();
    for &((m, c), _) in &exec_nodes {
        for &(enter, _, v) in &shapes[&m].regions {
            if let LockRes::One(h) = resolve(v, c) {
                singleton_regions.insert(SuspectGuard {
                    method: m,
                    index: enter,
                    lock: h,
                });
            }
        }
    }
    // Heap contexts of those lock allocations only — a second instance
    // dimension for suspect guards.
    let mut is_lock = vec![false; program.allocs.len()];
    for g in &singleton_regions {
        is_lock[g.lock.0 as usize] = true;
    }
    let mut lock_hctxs: FxHashMap<AllocId, BTreeSet<HCtxId>> = FxHashMap::default();
    for objs in vpt.values() {
        for &(a, h) in objs {
            if is_lock[a.0 as usize] {
                lock_hctxs.entry(a).or_default().insert(h);
            }
        }
    }
    let multi_instance = |h: AllocId| -> bool {
        let m = program.allocs[h].method;
        lock_hctxs.get(&h).map_or(0, BTreeSet::len) >= 2
            || multi.contains(&m)
            || method_threads
                .get(&m)
                .is_some_and(|ts| ts.len() >= 2 || ts.iter().any(|&t| self_parallel[t]))
    };
    let suspect_guards: Vec<SuspectGuard> = singleton_regions
        .into_iter()
        .filter(|g| multi_instance(g.lock))
        .collect();

    let mut insts: Vec<AccessInst> = Vec::new();
    let mut site_set: FxHashSet<(MethodId, usize)> = FxHashSet::default();
    let mut guarded: FxHashSet<(MethodId, usize)> = FxHashSet::default();
    let mut dead: FxHashSet<(MethodId, usize)> = FxHashSet::default();

    for ((m, c), threads) in &exec_nodes {
        let (m, c) = (*m, *c);
        for (i, instr) in program.methods[m].body.iter().enumerate() {
            let (key, base, write) = match *instr {
                Instruction::Load { base, field, .. } => (RaceKey::Field(field), Some(base), false),
                Instruction::Store { base, field, .. } => (RaceKey::Field(field), Some(base), true),
                Instruction::LoadGlobal { global, .. } => (RaceKey::Global(global), None, false),
                Instruction::StoreGlobal { global, .. } => (RaceKey::Global(global), None, true),
                _ => continue,
            };
            site_set.insert((m, i));
            let Some(mut locks) = enclosing_locks(m, i, c) else {
                dead.insert((m, i));
                continue;
            };
            if let Some(held) = mls.get(&(m, c)) {
                locks.extend(held.iter().copied());
            }
            if !locks.is_empty() {
                guarded.insert((m, i));
            }
            insts.push(AccessInst {
                site: (m, i),
                ctx: c,
                key,
                base,
                write,
                locks,
                threads: threads.clone(),
            });
        }
    }
    drop(access_span);

    // ---- Race candidates (races-pairs span) ------------------------------
    let pairs_span = crate::telemetry::span_opt(tele, "races-pairs");
    let aliases = |a: &AccessInst, b: &AccessInst| -> bool {
        match (a.base, b.base) {
            (Some(ba), Some(bb)) => {
                let (Some(pa), Some(pb)) = (vpt.get(&(ba, a.ctx)), vpt.get(&(bb, b.ctx))) else {
                    return false;
                };
                // Both sorted: merge-intersect on (alloc, hctx).
                let (mut i, mut j) = (0, 0);
                while i < pa.len() && j < pb.len() {
                    match pa[i].cmp(&pb[j]) {
                        std::cmp::Ordering::Equal => return true,
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                    }
                }
                false
            }
            (None, None) => true, // same global slot (keys already match)
            _ => false,
        }
    };
    // Whether an access at `site` is structurally ordered (not parallel)
    // with everything the thread `t` executes: the access sits in the
    // once-executed body containing `t`'s spawn site, either before the
    // spawn or after a matching single-assignment join.
    let ordered_against = |site: (MethodId, usize), t: usize| -> bool {
        let Some(s) = thread_roots[t] else {
            return false;
        };
        let (sm, sidx) = invoke_at[&s];
        if site.0 != sm || multi.contains(&sm) {
            return false;
        }
        if site.1 < sidx {
            return true;
        }
        let shape = &shapes[&sm];
        let Some(&(_, _, sbase)) = shape.spawns.iter().find(|&&(i, _, _)| i == sidx) else {
            return false;
        };
        if shape.defs.get(&sbase).copied().unwrap_or(0) > 1 {
            return false;
        }
        shape
            .joins
            .iter()
            .any(|&(jidx, jv)| jv == sbase && jidx > sidx && site.1 > jidx)
    };
    let mhp = |a: &AccessInst, t1: usize, b: &AccessInst, t2: usize| -> bool {
        if t1 == t2 {
            return self_parallel[t1];
        }
        !(ordered_against(a.site, t2) || ordered_against(b.site, t1))
    };

    let mut by_key: FxHashMap<RaceKey, Vec<usize>> = FxHashMap::default();
    for (i, inst) in insts.iter().enumerate() {
        by_key.entry(inst.key).or_default().push(i);
    }
    let mut keys: Vec<RaceKey> = by_key.keys().copied().collect();
    keys.sort_unstable();

    // Best (minimal-rank) witness instance pair per projected race triple.
    type Projected = (RaceKey, (MethodId, usize), (MethodId, usize));
    type Witness = (usize, CtxId, usize, CtxId); // (thread, ctx) per side, site-ordered
    let mut best: FxHashMap<Projected, Witness> = FxHashMap::default();
    let mut consider = |key: RaceKey, ia: usize, t1: usize, ib: usize, t2: usize| {
        let (a, b) = (&insts[ia], &insts[ib]);
        if !(a.write || b.write) || !a.locks.is_disjoint(&b.locks) || !aliases(a, b) {
            return;
        }
        if !mhp(a, t1, b, t2) {
            return;
        }
        // Site-order the witness sides deterministically.
        let (proj, wit) = if (a.site, a.ctx, t1) <= (b.site, b.ctx, t2) {
            ((key, a.site, b.site), (t1, a.ctx, t2, b.ctx))
        } else {
            ((key, b.site, a.site), (t2, b.ctx, t1, a.ctx))
        };
        best.entry(proj)
            .and_modify(|cur| *cur = (*cur).min(wit))
            .or_insert(wit);
    };
    // Candidate join: per key, the access occurrences `(instance, thread)`
    // bucketed by thread; only the bucket pairs `mhp` can accept are
    // walked (DESIGN §11 "Candidate join").
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); thread_roots.len()];
    for &key in &keys {
        let list = &by_key[&key];
        if !list.iter().any(|&i| insts[i].write) {
            continue;
        }
        buckets.iter_mut().for_each(Vec::clear);
        for &i in list {
            for &t in &insts[i].threads {
                buckets[t].push(i);
            }
        }
        for (t1, b1) in buckets.iter().enumerate() {
            if self_parallel[t1] {
                for (pos, &ia) in b1.iter().enumerate() {
                    for &ib in &b1[pos..] {
                        consider(key, ia, t1, ib, t1);
                    }
                }
            }
            for (t2, b2) in buckets.iter().enumerate().skip(t1 + 1) {
                for &ia in b1 {
                    for &ib in b2 {
                        consider(key, ia, t1, ib, t2);
                    }
                }
            }
        }
    }
    drop(pairs_span);

    // ---- Escapes (R003) --------------------------------------------------
    let mut escapes: BTreeSet<Escape> = BTreeSet::new();
    for inst in &insts {
        let Some(base) = inst.base else { continue };
        let Some(objs) = vpt.get(&(base, inst.ctx)) else {
            continue;
        };
        for &(h, _) in objs {
            let creators = method_threads.get(&program.allocs[h].method);
            for &t in &inst.threads {
                if creators.is_none_or(|ts| !ts.contains(&t)) {
                    escapes.insert(Escape {
                        alloc: h,
                        method: inst.site.0,
                        index: inst.site.1,
                    });
                }
            }
        }
    }

    // ---- Dead regions (R004): no access and no call strictly inside -----
    let mut dead_regions: BTreeSet<(MethodId, usize)> = BTreeSet::new();
    for &m in &methods {
        for &(enter, exit, _) in &shapes[&m].regions {
            let busy = program.methods[m].body[enter + 1..exit].iter().any(|ins| {
                matches!(
                    ins,
                    Instruction::Load { .. }
                        | Instruction::Store { .. }
                        | Instruction::LoadGlobal { .. }
                        | Instruction::StoreGlobal { .. }
                        | Instruction::Call { .. }
                        | Instruction::Spawn { .. }
                )
            });
            if !busy {
                dead_regions.insert((m, enter));
            }
        }
    }

    // ---- Witness rendering -----------------------------------------------
    let thread_label = |t: usize| -> String {
        match thread_roots[t] {
            None => "main".to_owned(),
            Some(s) => {
                let (sm, sidx) = invoke_at[&s];
                format!("spawn@{}:{}", program.method_display(sm), sidx)
            }
        }
    };
    // Shortest-path parents of thread `t`'s call chains.
    let bfs_parents = |t: usize| -> FxHashMap<CtxNode, Option<CtxNode>> {
        let mut roots: Vec<(MethodId, CtxId)> = match thread_roots[t] {
            None => entry_seeds.clone(),
            Some(s) => call_graph
                .iter()
                .filter(|&&(inv, _, _, _)| inv == s)
                .map(|&(_, _, m, c)| (m, c))
                .collect(),
        };
        roots.sort_unstable();
        roots.dedup();
        let mut parent: FxHashMap<(MethodId, CtxId), Option<(MethodId, CtxId)>> =
            FxHashMap::default();
        let mut order: Vec<(MethodId, CtxId)> = Vec::new();
        for r in roots {
            if exec.get(&r).is_some_and(|ts| ts.contains(&t)) && !parent.contains_key(&r) {
                parent.insert(r, None);
                order.push(r);
            }
        }
        let mut head = 0;
        while head < order.len() {
            let n = order[head];
            head += 1;
            if let Some(out) = edges_from.get(&n) {
                for &(inv, m2, c2) in out {
                    if spawn_site_set.contains(&inv) {
                        continue;
                    }
                    let next = (m2, c2);
                    if exec.get(&next).is_some_and(|ts| ts.contains(&t))
                        && !parent.contains_key(&next)
                    {
                        parent.insert(next, Some(n));
                        order.push(next);
                    }
                }
            }
        }
        parent
    };
    let location = |key: RaceKey| -> String {
        match key {
            RaceKey::Field(f) => format!(
                "{}.{}",
                program.classes[program.fields[f].class].name, program.fields[f].name
            ),
            RaceKey::Global(g) => format!(
                "static {}.{}",
                program.classes[program.globals[g].class].name, program.globals[g].name
            ),
        }
    };
    let mut projected: Vec<(Projected, Witness)> = best.into_iter().collect();
    projected.sort_unstable();
    // Parents of every thread some witness side runs in, computed once.
    let parents_of: FxHashMap<usize, FxHashMap<CtxNode, Option<CtxNode>>> = projected
        .iter()
        .flat_map(|&(_, (t1, _, t2, _))| [t1, t2])
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .map(|t| (t, bfs_parents(t)))
        .collect();
    let render_access =
        |site: (MethodId, usize), ctx: CtxId, t: usize, key: RaceKey| -> RaceAccess {
            let parents = &parents_of[&t];
            let mut chain = vec![(site.0, ctx)];
            while let Some(Some(prev)) = parents.get(chain.last().unwrap()) {
                chain.push(*prev);
            }
            chain.reverse();
            let is_write = matches!(
                program.methods[site.0].body[site.1],
                Instruction::Store { .. } | Instruction::StoreGlobal { .. }
            );
            let mut trace: Vec<String> = chain
                .iter()
                .map(|&(m, c)| {
                    format!(
                        "{} {}",
                        program.method_display(m),
                        facts.display_ctx(c, program)
                    )
                })
                .collect();
            let span = program.methods[site.0].span_of(site.1);
            let at = if span.is_known() {
                format!(" @ {span}")
            } else {
                String::new()
            };
            trace.push(format!(
                "{} {}{}",
                if is_write { "write" } else { "read" },
                location(key),
                at
            ));
            RaceAccess {
                method: site.0,
                index: site.1,
                is_write,
                thread: thread_label(t),
                trace,
            }
        };

    let races: Vec<Race> = projected
        .into_iter()
        .map(|((key, sa, sb), (t1, c1, t2, c2))| Race {
            key,
            location: location(key),
            a: render_access(sa, c1, t1, key),
            b: render_access(sb, c2, t2, key),
        })
        .collect();

    let result = RaceResult {
        analysis: pts.analysis.clone(),
        races,
        threads: (0..thread_roots.len()).map(thread_label).collect(),
        access_sites: site_set.len(),
        guarded_sites: guarded.len(),
        dead_sites: dead.len(),
        suspect_guards: suspect_guards.into_iter().collect(),
        dead_regions: dead_regions.into_iter().collect(),
        escapes: escapes.into_iter().collect(),
    };
    if let Some(t) = tele.as_deref() {
        t.counter("races.threads", result.threads.len() as u64);
        t.counter("races.access_sites", result.access_sites as u64);
        t.counter("races.guarded_sites", result.guarded_sites as u64);
        t.counter("races.dead_sites", result.dead_sites as u64);
        t.counter("races.races", result.races.len() as u64);
        t.counter("races.suspect_guards", result.suspect_guards.len() as u64);
        t.counter("races.dead_regions", result.dead_regions.len() as u64);
        t.counter("races.escapes", result.escapes.len() as u64);
    }
    Ok(result)
}

/// The variables a single instruction defines (at most one).
fn defined_var(program: &Program, instr: &Instruction) -> Option<VarId> {
    match *instr {
        Instruction::Alloc { var, .. } => Some(var),
        Instruction::Move { to, .. }
        | Instruction::Cast { to, .. }
        | Instruction::Load { to, .. }
        | Instruction::LoadGlobal { to, .. } => Some(to),
        Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
            program.invokes[invoke].result
        }
        Instruction::Store { .. }
        | Instruction::StoreGlobal { .. }
        | Instruction::Return { .. }
        | Instruction::Join { .. }
        | Instruction::MonitorEnter { .. }
        | Instruction::MonitorExit { .. } => None,
    }
}

/// Renders a supervised race outcome as a JSON document for `rudoop races
/// --format json`.
///
/// The schema is part of the CLI contract and only grows, never changes.
/// The document always carries exactly the keys `analysis`, `skipped`,
/// `threads`, `access_sites`, `races`, `suspect_guards`, `dead_regions`,
/// and `escapes`, in that order. When race detection was skipped,
/// `analysis` is `null`, `skipped` holds the reason, `threads` and the
/// arrays are empty, and `access_sites` is 0. Each race object carries
/// `location`, `a`, and `b`; each side carries `method`, `span`, `kind`
/// (`read`/`write`), `thread`, and `trace` (the rendered shortest
/// root-to-access chain); spans are `"line:col"` or `null` for programs
/// without source text.
pub fn render_json(program: &Program, races: &SupervisedRaces) -> String {
    let mut out = String::from("{\n");
    match races {
        Supervised::Skipped { reason } => {
            out.push_str(&format!(
                "  \"analysis\": null,\n  \"skipped\": {},\n  \"threads\": [],\n  \
                 \"access_sites\": 0,\n  \"races\": [],\n  \"suspect_guards\": [],\n  \
                 \"dead_regions\": [],\n  \"escapes\": []\n",
                escape(reason)
            ));
        }
        Supervised::Analyzed(r) => {
            let threads: Vec<String> = r.threads.iter().map(|t| escape(t)).collect();
            out.push_str(&format!(
                "  \"analysis\": {},\n  \"skipped\": null,\n  \"threads\": [{}],\n  \
                 \"access_sites\": {},\n",
                escape(&r.analysis),
                threads.join(","),
                r.access_sites
            ));
            let races = r.races.iter().map(|race| {
                format!(
                    "{{\"location\":{},\"a\":{},\"b\":{}}}",
                    escape(&race.location),
                    access_json(program, &race.a),
                    access_json(program, &race.b)
                )
            });
            push_json_array(&mut out, "races", races, false);
            let guards = r.suspect_guards.iter().map(|g| {
                format!(
                    "{{\"method\":{},\"span\":{},\"lock_class\":{}}}",
                    escape(&program.method_display(g.method)),
                    span_json(program, g.method, g.index),
                    escape(&program.classes[program.allocs[g.lock].class].name)
                )
            });
            push_json_array(&mut out, "suspect_guards", guards, false);
            let regions = r.dead_regions.iter().map(|&(m, idx)| {
                format!(
                    "{{\"method\":{},\"span\":{}}}",
                    escape(&program.method_display(m)),
                    span_json(program, m, idx)
                )
            });
            push_json_array(&mut out, "dead_regions", regions, false);
            let escapes = r.escapes.iter().map(|e| {
                format!(
                    "{{\"alloc_class\":{},\"method\":{},\"span\":{}}}",
                    escape(&program.classes[program.allocs[e.alloc].class].name),
                    escape(&program.method_display(e.method)),
                    span_json(program, e.method, e.index)
                )
            });
            push_json_array(&mut out, "escapes", escapes, true);
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a supervised race run as the human-readable report printed by
/// `rudoop races` — the summary line, up to twenty races with both
/// access chains, and the overflow line. The daemon serves this exact
/// string so service responses are byte-identical to batch stdout.
pub fn render_text(races: &SupervisedRaces) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match races {
        Supervised::Analyzed(r) => {
            let _ = writeln!(
                out,
                "races ({}): {} thread(s), {} access site(s), {} race(s), \
                 {} suspect guard(s), {} dead region(s), {} escape(s)",
                r.analysis,
                r.threads.len(),
                r.access_sites,
                r.races.len(),
                r.suspect_guards.len(),
                r.dead_regions.len(),
                r.escapes.len(),
            );
            const MAX_RACES: usize = 20;
            for race in r.races.iter().take(MAX_RACES) {
                let _ = writeln!(
                    out,
                    "race: {}: {} in {} vs {} in {}",
                    race.location,
                    if race.a.is_write { "write" } else { "read" },
                    race.a.thread,
                    if race.b.is_write { "write" } else { "read" },
                    race.b.thread,
                );
                for step in &race.a.trace {
                    let _ = writeln!(out, "    A: {step}");
                }
                for step in &race.b.trace {
                    let _ = writeln!(out, "    B: {step}");
                }
            }
            if r.races.len() > MAX_RACES {
                let _ = writeln!(out, "... {} more race(s)", r.races.len() - MAX_RACES);
            }
        }
        Supervised::Skipped { reason } => {
            let _ = writeln!(out, "races: SKIPPED — {reason}");
        }
    }
    out
}

fn access_json(program: &Program, a: &RaceAccess) -> String {
    let trace: Vec<String> = a.trace.iter().map(|s| escape(s)).collect();
    format!(
        "{{\"method\":{},\"span\":{},\"kind\":\"{}\",\"thread\":{},\"trace\":[{}]}}",
        escape(&program.method_display(a.method)),
        span_json(program, a.method, a.index),
        if a.is_write { "write" } else { "read" },
        escape(&a.thread),
        trace.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Insensitive, ObjectSensitive};
    use crate::solver::{analyze, SolverConfig};
    use rudoop_ir::{ClassHierarchy, ProgramBuilder};

    fn run(p: &Program, policy: &dyn crate::policy::ContextPolicy) -> PointsToResult {
        let h = ClassHierarchy::new(p);
        let config = SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        };
        analyze(p, &h, policy, &config)
    }

    /// main writes a shared field, spawns a worker that also writes it.
    fn shared_counter() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.spawn(main, w);
        b.alloc(main, v, obj);
        b.store(main, c, hits, v);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn shared_write_write_races() {
        let p = shared_counter();
        let result = run(&p, &Insensitive);
        let races = analyze_races(&p, &result).unwrap();
        assert_eq!(races.threads.len(), 2, "main plus one spawned thread");
        assert_eq!(races.races.len(), 1, "one witness: {:?}", races.race_set());
        let race = &races.races[0];
        assert!(race.location.ends_with("Counter.hits"));
        assert!(race.a.is_write && race.b.is_write);
        assert_ne!(race.a.thread, race.b.thread);
        assert!(!race.a.trace.is_empty() && !race.b.trace.is_empty());
        // The worker accessed the counter allocated by main: an escape.
        assert!(!races.escapes.is_empty());
    }

    /// Both accesses guarded by the same singleton lock: no race, but the
    /// main-side store before the spawn is ordered anyway.
    #[test]
    fn common_singleton_lock_excludes_race() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.monitor_enter(runm, rc);
        b.store(runm, rc, hits, rv);
        b.monitor_exit(runm, rc);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.alloc(main, v, obj);
        b.spawn(main, w);
        b.monitor_enter(main, c);
        b.store(main, c, hits, v);
        b.monitor_exit(main, c);
        b.entry(main);
        let p = b.finish();
        let result = run(&p, &Insensitive);
        let races = analyze_races(&p, &result).unwrap();
        assert!(races.races.is_empty(), "guarded: {:?}", races.race_set());
        assert!(races.guarded_sites >= 2);
    }

    /// An access after `join w` is ordered after the whole spawned thread.
    #[test]
    fn join_orders_later_accesses() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.alloc(main, v, obj);
        b.spawn(main, w);
        b.join(main, w);
        b.store(main, c, hits, v);
        b.entry(main);
        let p = b.finish();
        let result = run(&p, &Insensitive);
        let races = analyze_races(&p, &result).unwrap();
        assert!(races.races.is_empty(), "joined: {:?}", races.race_set());
    }

    /// Two workers each get a *private* counter. Insensitively the two
    /// counter allocations merge into one points-to set for the `run`
    /// receiver field load, so the two writes appear to alias — a false
    /// race 2obj eliminates. This is the committed monotonicity witness:
    /// races(2objH) ⊂ races(insens) on this program.
    #[test]
    fn object_sensitivity_eliminates_false_race() {
        let p = private_counters();
        let coarse = analyze_races(&p, &run(&p, &Insensitive)).unwrap();
        let fine = analyze_races(&p, &run(&p, &ObjectSensitive::new(2, 1))).unwrap();
        assert!(
            !coarse.races.is_empty(),
            "insens must report the false race"
        );
        assert!(
            fine.races.is_empty(),
            "2objH must see distinct counters: {:?}",
            fine.race_set()
        );
        // Soundness chain direction on this pair.
        let fine_set: BTreeSet<_> = fine.race_set().into_iter().collect();
        let coarse_set: BTreeSet<_> = coarse.race_set().into_iter().collect();
        assert!(fine_set.is_subset(&coarse_set));
    }

    fn private_counters() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let w1 = b.var(main, "w1");
        let w2 = b.var(main, "w2");
        let c1 = b.var(main, "c1");
        let c2 = b.var(main, "c2");
        b.alloc(main, w1, worker);
        b.alloc(main, c1, counter);
        b.store(main, w1, cfld, c1);
        b.alloc(main, w2, worker);
        b.alloc(main, c2, counter);
        b.store(main, w2, cfld, c2);
        b.spawn(main, w1);
        b.spawn(main, w2);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn missing_dump_is_an_error() {
        let p = shared_counter();
        let h = ClassHierarchy::new(&p);
        let result = analyze(&p, &h, &Insensitive, &SolverConfig::default());
        assert_eq!(
            analyze_races(&p, &result).unwrap_err(),
            ClientError::MissingContextDump
        );
    }

    #[test]
    fn globals_race_without_aliasing() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let worker = b.class("Worker", Some(obj));
        let reg = b.global(obj, "registry");
        let runm = b.method(worker, "run", &[], false);
        let rv = b.var(runm, "rv");
        b.alloc(runm, rv, obj);
        b.store_global(runm, reg, rv);
        let main = b.method(obj, "main", &[], true);
        let w = b.var(main, "w");
        let g = b.var(main, "g");
        b.alloc(main, w, worker);
        b.spawn(main, w);
        b.load_global(main, g, reg);
        b.entry(main);
        let p = b.finish();
        let races = analyze_races(&p, &run(&p, &Insensitive)).unwrap();
        assert_eq!(races.races.len(), 1);
        assert!(races.races[0].location.starts_with("static "));
        // One side reads, one writes.
        assert!(races.races[0].a.is_write != races.races[0].b.is_write);
    }

    /// A suspect guard: the lock is a singleton allocation *site* but that
    /// site sits in a method executed by a self-parallel thread.
    #[test]
    fn multi_instance_lock_is_suspect() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let worker = b.class("Worker", Some(obj));
        let lock = b.field(worker, "lock");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let l = b.var(runm, "l");
        b.alloc(runm, l, obj);
        b.store(runm, this, lock, l);
        let l2 = b.var(runm, "l2");
        b.monitor_enter(runm, l);
        b.load(runm, l2, this, lock);
        b.monitor_exit(runm, l);
        // Two spawn sites -> run's alloc has two instances even insens.
        let main = b.method(obj, "main", &[], true);
        let w1 = b.var(main, "w1");
        let w2 = b.var(main, "w2");
        b.alloc(main, w1, worker);
        b.alloc(main, w2, worker);
        b.spawn(main, w1);
        b.spawn(main, w2);
        b.entry(main);
        let p = b.finish();
        let races = analyze_races(&p, &run(&p, &Insensitive)).unwrap();
        assert!(
            !races.suspect_guards.is_empty(),
            "run's lock alloc is multi-instance (run reachable from two spawn sites)"
        );
    }

    /// The spawn site sits in a helper called from two sites, so its
    /// thread is parallel with itself: the write in `run` races with the
    /// same write in the other execution, and the witness pairs the
    /// thread with itself.
    #[test]
    fn self_parallel_thread_races_with_itself() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(worker, "hits");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rv = b.var(runm, "rv");
        b.alloc(runm, rv, obj);
        b.store(runm, this, hits, rv);
        let start = b.method(obj, "start", &["w"], true);
        let sw = b.param(start, 0);
        b.spawn(start, sw);
        let main = b.method(obj, "main", &[], true);
        let w = b.var(main, "w");
        b.alloc(main, w, worker);
        b.scall(main, None, start, &[w]);
        b.scall(main, None, start, &[w]);
        b.entry(main);
        let p = b.finish();
        for policy in [
            &Insensitive as &dyn crate::policy::ContextPolicy,
            &ObjectSensitive::new(2, 1),
        ] {
            let races = analyze_races(&p, &run(&p, policy)).unwrap();
            assert_eq!(races.races.len(), 1, "{:?}", races.race_set());
            let race = &races.races[0];
            assert!(race.a.is_write && race.b.is_write);
            assert_eq!((race.a.method, race.a.index), (runm, 1));
            assert_eq!((race.b.method, race.b.index), (runm, 1));
            assert!(race.a.thread.starts_with("spawn@"), "{}", race.a.thread);
            assert_eq!(race.a.thread, race.b.thread, "one thread, twice");
        }
    }

    #[test]
    fn empty_monitor_region_is_dead() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let l = b.var(main, "l");
        b.alloc(main, l, obj);
        b.monitor_enter(main, l);
        b.monitor_exit(main, l);
        b.entry(main);
        let p = b.finish();
        let races = analyze_races(&p, &run(&p, &Insensitive)).unwrap();
        assert_eq!(races.dead_regions.len(), 1);
    }

    #[test]
    fn json_report_has_stable_schema() {
        let p = shared_counter();
        let races = SupervisedRaces::Analyzed(analyze_races(&p, &run(&p, &Insensitive)).unwrap());
        let json = render_json(&p, &races);
        assert!(json.starts_with("{\n  \"analysis\": \"insens\""));
        assert!(json.contains("\"skipped\": null"));
        assert!(json.contains("\"threads\": [\"main\",\"spawn@"));
        assert!(json.contains("\"location\":\"Counter.hits\""));
        assert!(json.contains("\"kind\":\"write\""));
        assert!(json.ends_with("}\n"));

        let skipped = SupervisedRaces::Skipped {
            reason: "say \"why\"".to_owned(),
        };
        let json = render_json(&p, &skipped);
        assert!(json.contains("\"analysis\": null"));
        assert!(json.contains("\"skipped\": \"say \\\"why\\\"\""));
        assert!(json.contains("\"races\": []"));
        assert!(json.contains("\"escapes\": []"));
    }

    /// Two workers, allocated at two sites, share one counter: `run` writes
    /// it in two receiver contexts, racing with itself.
    fn counter_shared_by_two_workers() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let w1 = b.var(main, "w1");
        let w2 = b.var(main, "w2");
        let c = b.var(main, "c");
        b.alloc(main, c, counter);
        b.alloc(main, w1, worker);
        b.store(main, w1, cfld, c);
        b.alloc(main, w2, worker);
        b.store(main, w2, cfld, c);
        b.spawn(main, w1);
        b.spawn(main, w2);
        b.entry(main);
        b.finish()
    }

    /// Renumbering the context tables (as a different interning order would)
    /// must not change witnesses or traces: the race client canonicalizes
    /// context ids by content before anything order-sensitive.
    #[test]
    fn witnesses_are_invariant_under_context_renumbering() {
        for p in [private_counters(), counter_shared_by_two_workers()] {
            let result = run(&p, &ObjectSensitive::new(2, 1));
            assert!(result.outcome.is_complete());

            // The client runs on `result` first, so the twin is cloned from
            // a result whose fact index is already built: it must not reuse
            // it.
            let a = analyze_races(&p, &result).unwrap();
            let twin = crate::cs_facts::renumber_contexts(&result);
            let b = analyze_races(&p, &twin).unwrap();
            assert_eq!(a.race_set(), b.race_set());
            assert_eq!(a.suspect_guards, b.suspect_guards);
            assert_eq!(a.escapes, b.escapes);
            assert_eq!(a.races.len(), b.races.len());
            for (ra, rb) in a.races.iter().zip(&b.races) {
                assert_eq!(
                    ra.a.trace, rb.a.trace,
                    "traces must not depend on context interning order"
                );
                assert_eq!(ra.b.trace, rb.b.trace);
            }
        }
    }
}
