//! Context-sensitive taint analysis, layered on the points-to substrate.
//!
//! Taint is labeled reachability over the value flows the solver has
//! already resolved: a *source* call site labels its return value, labels
//! propagate through `move`/`cast`/`return`, across calls with the active
//! context policy (arguments, receivers, returns), through the heap via the
//! context-sensitive field-points-to resolution of `load`/`store` base
//! variables, and through static fields. *Sanitizers* strip taint at their
//! return (values still flow *into* a sanitizer body). A *sink* records a
//! leak when a labeled value reaches one of its checked arguments.
//!
//! Given a fixed points-to result, every taint rule is linear in the
//! `TAINTED*` relations, so the least fixpoint is plain graph reachability.
//! [`analyze_taint`] therefore builds one propagation graph over
//! `(variable, context)`, `(heap object, field)` and global nodes from the
//! solver's context-sensitive dump and runs one breadth-first search per
//! source label — which also yields, for free, a *shortest* derivation
//! trace for each leak. The Datalog reference model in `rudoop-datalog`
//! evaluates the same rules declaratively; the differential suite asserts
//! the two produce byte-identical leak sets.
//!
//! Precision and soundness: a coarser context policy (including one coarsened
//! by introspective refinement) merges contexts and heap contexts, which can
//! only grow the points-to relations and hence the propagation graph — so
//! the leak set is monotone: `leaks(2objH) ⊆ leaks(introspective 2objH) ⊆
//! leaks(insensitive)`. Reported leaks may be false positives; absence of a
//! leak is a guarantee of the abstraction.

use rudoop_ir::{
    AllocId, FieldId, GlobalId, Instruction, InvokeId, InvokeKind, MethodId, Program, TaintSpec,
    VarId,
};

use crate::context::{CtxId, HCtxId};
use crate::cs_facts::{
    invoke_site, push_json_array, span_json, supervised, Client, ClientError, CsFacts, Supervised,
};
use crate::hash::{FxHashMap, FxHashSet};
use crate::json::escape;
use crate::solver::PointsToResult;
use crate::supervisor::SupervisedRun;

/// One taint propagation node: a variable under a calling context, a field
/// of a context-qualified heap object, or a static field slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Node {
    Var(VarId, CtxId),
    Field(AllocId, HCtxId, FieldId),
    Global(GlobalId),
}

/// One source→sink flow found by [`analyze_taint`].
#[derive(Debug, Clone)]
pub struct Leak {
    /// The source call site whose return value reached the sink.
    pub source: InvokeId,
    /// The sink call site.
    pub sink: InvokeId,
    /// Which argument of the sink received the tainted value.
    pub sink_arg: u32,
    /// The source method the source call resolves to.
    pub source_method: MethodId,
    /// The sink method the sink call resolves to.
    pub sink_method: MethodId,
    /// Shortest derivation: one rendered propagation node per step, from
    /// the source's return value to the sink argument.
    pub trace: Vec<String>,
    /// How many heap steps (field or static-field nodes) the trace crosses.
    pub heap_steps: usize,
    /// Whether some heap step crossed an object whose heap context was
    /// merged to the empty context (context collapse, e.g. by introspective
    /// refinement or an insensitive rung).
    pub merged_heap_step: bool,
}

impl Leak {
    /// One-line human-readable summary of the flow.
    pub fn headline(&self, program: &Program) -> String {
        format!(
            "{} -> {} (arg {})",
            program.method_display(self.source_method),
            program.method_display(self.sink_method),
            self.sink_arg
        )
    }
}

/// The output of [`analyze_taint`]: deterministic leak reports plus the
/// sanitizer observations the T-series lints consume.
#[derive(Debug, Clone)]
pub struct TaintResult {
    /// `analysis` name of the underlying points-to run.
    pub analysis: String,
    /// All leaks, sorted by `(source, sink, sink_arg)`; at most one leak
    /// (the shortest) per such triple.
    pub leaks: Vec<Leak>,
    /// Every reachable sanitizer call site, with whether any tainted value
    /// actually reached one of its arguments. Sorted by call site.
    pub sanitizer_calls: Vec<(InvokeId, bool)>,
    /// Source call sites whose taint reached some sanitizer argument,
    /// sorted. A leak from such a source *bypassed* sanitization somewhere.
    pub sanitized_sources: Vec<InvokeId>,
    /// Number of reachable source call sites that seeded a label.
    pub source_sites: usize,
    /// Number of reachable sink call sites with at least one checked
    /// argument.
    pub sink_sites: usize,
}

impl TaintResult {
    /// The context-free projection of the leak set, sorted: `(source call
    /// site, sink call site, argument)`. This is the canonical form the
    /// differential tests compare against the Datalog reference model.
    pub fn leak_set(&self) -> Vec<(InvokeId, InvokeId, u32)> {
        self.leaks
            .iter()
            .map(|l| (l.source, l.sink, l.sink_arg))
            .collect()
    }

    /// Whether a given source label was sanitized somewhere.
    pub fn source_sanitized(&self, source: InvokeId) -> bool {
        self.sanitized_sources.binary_search(&source).is_ok()
    }
}

/// The outcome of running taint under the supervisor's exit contract.
pub type SupervisedTaint = Supervised<TaintResult>;

/// Runs taint over the outcome of a supervised ladder run, honoring the
/// degradation contract: a completed rung (even a degraded one) is a sound
/// points-to abstraction and taint runs on it; an exhausted ladder yields
/// [`Supervised::Skipped`] — salvaged partial facts are never used, a
/// partial leak list must not masquerade as a complete one.
pub fn supervised_taint(
    program: &Program,
    spec: &TaintSpec,
    run: &SupervisedRun,
) -> SupervisedTaint {
    supervised_taint_traced(program, spec, run, &None)
}

/// [`supervised_taint`] with telemetry: wraps the run in a `taint` span and
/// emits a `taint-skipped` instant when the degradation contract forces a
/// skip. Passing `&None` is equivalent to the untraced entry point.
pub fn supervised_taint_traced(
    program: &Program,
    spec: &TaintSpec,
    run: &SupervisedRun,
    tele: &crate::telemetry::TelemetryHandle,
) -> SupervisedTaint {
    supervised(Client::TAINT, run, tele, |result| {
        analyze_taint_traced(program, spec, result, tele)
    })
}

/// Runs the taint client of `spec` over a completed points-to result.
///
/// The result must have been produced with
/// [`record_contexts`](crate::solver::SolverConfig::record_contexts) so the
/// context-sensitive relations are available.
///
/// # Errors
///
/// [`ClientError::MissingContextDump`] without a dump,
/// [`ClientError::IncompleteAnalysis`] when the run was cut short.
pub fn analyze_taint(
    program: &Program,
    spec: &TaintSpec,
    pts: &PointsToResult,
) -> Result<TaintResult, ClientError> {
    analyze_taint_traced(program, spec, pts, &None)
}

/// [`analyze_taint`] with telemetry: the whole client runs under a `taint`
/// span with nested `taint-facts` (the fact index), `taint-graph` (the
/// propagation graph) and `taint-bfs` (the per-label searches) spans, and
/// the propagation-graph shape plus the leak/sanitizer tallies land in the
/// deterministic counter stream (all are computed from canonicalized ids,
/// so they do not depend on context interning order). Passing `&None` is
/// equivalent to the untraced entry point.
pub fn analyze_taint_traced(
    program: &Program,
    spec: &TaintSpec,
    pts: &PointsToResult,
    tele: &crate::telemetry::TelemetryHandle,
) -> Result<TaintResult, ClientError> {
    let span = crate::telemetry::span_opt(tele, "taint");
    if let Some(s) = &span {
        s.arg("analysis", &pts.analysis);
    }
    let facts_span = crate::telemetry::span_opt(tele, "taint-facts");
    let facts = CsFacts::build(pts, Client::TAINT, tele)?;
    drop(facts_span);
    let (vpt, call_graph) = (facts.vpt, facts.call_graph);

    let graph_span = crate::telemetry::span_opt(tele, "taint-graph");
    let mut graph = GraphBuilder::default();

    // Intra-procedural flows, per reachable (method, context).
    for &(meth, ctx) in facts.reachable {
        let m = &program.methods[meth];
        for instr in &m.body {
            match *instr {
                Instruction::Move { to, from } | Instruction::Cast { to, from, .. } => {
                    graph.edge(Node::Var(from, ctx), Node::Var(to, ctx));
                }
                Instruction::Return { var } => {
                    if let Some(ret) = m.ret {
                        graph.edge(Node::Var(var, ctx), Node::Var(ret, ctx));
                    }
                }
                Instruction::Load { to, base, field } => {
                    if let Some(objs) = vpt.get(&(base, ctx)) {
                        for &(heap, hctx) in objs {
                            graph.edge(Node::Field(heap, hctx, field), Node::Var(to, ctx));
                        }
                    }
                }
                Instruction::Store { base, field, from } => {
                    if let Some(objs) = vpt.get(&(base, ctx)) {
                        for &(heap, hctx) in objs {
                            graph.edge(Node::Var(from, ctx), Node::Field(heap, hctx, field));
                        }
                    }
                }
                Instruction::LoadGlobal { to, global } => {
                    graph.edge(Node::Global(global), Node::Var(to, ctx));
                }
                Instruction::StoreGlobal { global, from } => {
                    graph.edge(Node::Var(from, ctx), Node::Global(global));
                }
                Instruction::Alloc { .. }
                | Instruction::Call { .. }
                | Instruction::Spawn { .. }
                | Instruction::Join { .. }
                | Instruction::MonitorEnter { .. }
                | Instruction::MonitorExit { .. } => {}
            }
        }
    }

    // Inter-procedural flows plus source/sink/sanitizer registration, per
    // resolved call edge.
    let mut seeds: FxHashMap<InvokeId, Vec<u32>> = FxHashMap::default();
    let mut sink_at: FxHashMap<u32, Vec<(InvokeId, u32, MethodId)>> = FxHashMap::default();
    let mut sanitizer_args: FxHashMap<InvokeId, Vec<u32>> = FxHashMap::default();
    let mut source_sites: FxHashSet<InvokeId> = FxHashSet::default();
    let mut sink_sites: FxHashSet<InvokeId> = FxHashSet::default();

    for &(invo, caller_ctx, meth, callee_ctx) in call_graph {
        let inv = &program.invokes[invo];
        let m = &program.methods[meth];
        for (&actual, &formal) in inv.args.iter().zip(m.params.iter()) {
            graph.edge(Node::Var(actual, caller_ctx), Node::Var(formal, callee_ctx));
        }
        let base = match inv.kind {
            InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => Some(base),
            InvokeKind::Static { .. } => None,
        };
        if let (Some(base), Some(this)) = (base, m.this) {
            graph.edge(Node::Var(base, caller_ctx), Node::Var(this, callee_ctx));
        }
        if !spec.is_sanitizer(meth) {
            if let (Some(ret), Some(to)) = (m.ret, inv.result) {
                graph.edge(Node::Var(ret, callee_ctx), Node::Var(to, caller_ctx));
            }
        } else {
            let args = sanitizer_args.entry(invo).or_default();
            for &actual in &inv.args {
                args.push(graph.node(Node::Var(actual, caller_ctx)));
            }
        }
        if spec.is_source(meth) {
            if let Some(to) = inv.result {
                source_sites.insert(invo);
                seeds
                    .entry(invo)
                    .or_default()
                    .push(graph.node(Node::Var(to, caller_ctx)));
            }
        }
        for arg in spec.sink_args(meth, m.params.len()) {
            if let Some(&actual) = inv.args.get(arg as usize) {
                sink_sites.insert(invo);
                sink_at
                    .entry(graph.node(Node::Var(actual, caller_ctx)))
                    .or_default()
                    .push((invo, arg, meth));
            }
        }
    }

    let adjacency = graph.adjacency();
    for targets in sink_at.values_mut() {
        targets.sort_unstable();
        targets.dedup();
    }
    drop(graph_span);

    // One BFS per source label, in label order; parent pointers give the
    // shortest derivation to each sink.
    let mut labels: Vec<InvokeId> = seeds.keys().copied().collect();
    labels.sort_unstable();
    let mut san_calls: Vec<(InvokeId, Vec<u32>)> = sanitizer_args
        .into_iter()
        .map(|(invo, mut args)| {
            args.sort_unstable();
            args.dedup();
            (invo, args)
        })
        .collect();
    san_calls.sort_unstable();

    let mut leaks = Vec::new();
    let mut sanitized_sources = Vec::new();
    let mut san_hit = vec![false; san_calls.len()];

    const UNSEEN: u32 = u32::MAX;
    const SEED: u32 = u32::MAX - 1;
    let mut parent = vec![UNSEEN; graph.nodes.len()];

    let bfs_span = crate::telemetry::span_opt(tele, "taint-bfs");
    if let Some(s) = &bfs_span {
        s.arg("labels", labels.len());
    }
    for &label in &labels {
        parent.iter_mut().for_each(|p| *p = UNSEEN);
        let mut queue: Vec<u32> = seeds[&label].clone();
        queue.sort_unstable();
        queue.dedup();
        for &n in &queue {
            parent[n as usize] = SEED;
        }
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            for &next in &adjacency[n as usize] {
                if parent[next as usize] == UNSEEN {
                    parent[next as usize] = n;
                    queue.push(next);
                }
            }
        }

        // `queue` is now the visitation order (distance-sorted); the first
        // time a (sink, arg) pair appears, its trace is shortest.
        let mut claimed: FxHashSet<(InvokeId, u32)> = FxHashSet::default();
        for &n in &queue {
            if let Some(targets) = sink_at.get(&n) {
                for &(sink, arg, sink_method) in targets {
                    if !claimed.insert((sink, arg)) {
                        continue;
                    }
                    leaks.push(build_leak(
                        program,
                        &facts,
                        &graph.nodes,
                        &parent,
                        n,
                        label,
                        sink,
                        arg,
                        sink_method,
                        source_method_of(program, call_graph, label, spec),
                    ));
                }
            }
        }
        let mut sanitized = false;
        for (i, (_, args)) in san_calls.iter().enumerate() {
            if args.iter().any(|&a| parent[a as usize] != UNSEEN) {
                san_hit[i] = true;
                sanitized = true;
            }
        }
        if sanitized {
            sanitized_sources.push(label);
        }
    }

    drop(bfs_span);
    leaks.sort_by_key(|l| (l.source, l.sink, l.sink_arg));
    let sanitizer_calls: Vec<(InvokeId, bool)> = san_calls
        .iter()
        .zip(san_hit)
        .map(|(&(invo, _), hit)| (invo, hit))
        .collect();

    let result = TaintResult {
        analysis: pts.analysis.clone(),
        leaks,
        sanitizer_calls,
        sanitized_sources,
        source_sites: source_sites.len(),
        sink_sites: sink_sites.len(),
    };
    if let Some(t) = tele.as_deref() {
        let edges: usize = adjacency.iter().map(Vec::len).sum();
        t.counter("taint.graph_nodes", graph.nodes.len() as u64);
        t.counter("taint.graph_edges", edges as u64);
        t.counter("taint.labels", labels.len() as u64);
        t.counter("taint.leaks", result.leaks.len() as u64);
        t.counter("taint.source_sites", result.source_sites as u64);
        t.counter("taint.sink_sites", result.sink_sites as u64);
        t.counter("taint.sanitizer_calls", result.sanitizer_calls.len() as u64);
    }
    Ok(result)
}

/// The source method a labeled call site resolves to (for display; any
/// resolved source target of the site, smallest id for determinism).
fn source_method_of(
    program: &Program,
    call_graph: &[(InvokeId, CtxId, MethodId, CtxId)],
    label: InvokeId,
    spec: &TaintSpec,
) -> MethodId {
    call_graph
        .iter()
        .filter(|&&(invo, _, meth, _)| invo == label && spec.is_source(meth))
        .map(|&(_, _, meth, _)| meth)
        .min()
        .unwrap_or(program.invokes[label].method)
}

#[allow(clippy::too_many_arguments)]
fn build_leak(
    program: &Program,
    facts: &CsFacts,
    nodes: &[Node],
    parent: &[u32],
    end: u32,
    source: InvokeId,
    sink: InvokeId,
    sink_arg: u32,
    sink_method: MethodId,
    source_method: MethodId,
) -> Leak {
    const SEED: u32 = u32::MAX - 1;
    let mut path = vec![end];
    let mut cur = end;
    while parent[cur as usize] != SEED {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();

    let mut heap_steps = 0;
    let mut merged_heap_step = false;
    let trace = path
        .iter()
        .map(|&n| match nodes[n as usize] {
            Node::Var(v, ctx) => {
                format!(
                    "{} {}",
                    program.var_display(v),
                    facts.display_ctx(ctx, program)
                )
            }
            Node::Field(heap, hctx, fld) => {
                heap_steps += 1;
                if facts.hctx_elems(hctx).is_empty() {
                    merged_heap_step = true;
                }
                let elems: Vec<String> = facts
                    .hctx_elems(hctx)
                    .iter()
                    .map(|e| e.to_string())
                    .collect();
                format!(
                    "new {}.{} [{}]",
                    program.classes[program.allocs[heap].class].name,
                    program.fields[fld].name,
                    elems.join(", ")
                )
            }
            Node::Global(g) => {
                heap_steps += 1;
                format!(
                    "static {}.{}",
                    program.classes[program.globals[g].class].name, program.globals[g].name
                )
            }
        })
        .collect();

    Leak {
        source,
        sink,
        sink_arg,
        source_method,
        sink_method,
        trace,
        heap_steps,
        merged_heap_step,
    }
}

/// Renders a supervised taint outcome as a JSON document for `rudoop
/// taint --format json`.
///
/// The schema is part of the CLI contract and only grows, never changes.
/// The document always carries exactly the keys `analysis`, `skipped`,
/// `source_sites`, `sink_sites`, `leaks`, and `sanitizers`, in that order.
/// When taint was skipped, `analysis` is `null`, `skipped` holds the
/// reason, and both arrays are empty. Each leak object carries `source`,
/// `source_span`, `sink`, `sink_span`, `sink_arg`, `sanitized_source`,
/// `heap_steps`, `merged_heap_step`, and `trace` (the rendered shortest
/// derivation, one string per propagation step); spans are `"line:col"`
/// or `null` for programs without source text. Each sanitizer object
/// carries `caller`, `span`, and `witnessed_taint` — the sanitizer
/// witnesses the T-series lints consume, so scripts can tell a sanitizer
/// that actually intercepted taint from dead sanitization.
pub fn render_json(program: &Program, taint: &SupervisedTaint) -> String {
    let invoke_span = |invo| {
        let (method, index) = invoke_site(program, invo);
        span_json(program, method, index)
    };
    let mut out = String::from("{\n");
    match taint {
        Supervised::Skipped { reason } => {
            out.push_str(&format!(
                "  \"analysis\": null,\n  \"skipped\": {},\n  \"source_sites\": 0,\n  \
                 \"sink_sites\": 0,\n  \"leaks\": [],\n  \"sanitizers\": []\n",
                escape(reason)
            ));
        }
        Supervised::Analyzed(t) => {
            out.push_str(&format!(
                "  \"analysis\": {},\n  \"skipped\": null,\n  \"source_sites\": {},\n  \
                 \"sink_sites\": {},\n",
                escape(&t.analysis),
                t.source_sites,
                t.sink_sites
            ));
            let leaks = t.leaks.iter().map(|leak| {
                let trace: Vec<String> = leak.trace.iter().map(|s| escape(s)).collect();
                format!(
                    "{{\"source\":{},\"source_span\":{},\"sink\":{},\
                     \"sink_span\":{},\"sink_arg\":{},\"sanitized_source\":{},\
                     \"heap_steps\":{},\"merged_heap_step\":{},\"trace\":[{}]}}",
                    escape(&program.method_display(leak.source_method)),
                    invoke_span(leak.source),
                    escape(&program.method_display(leak.sink_method)),
                    invoke_span(leak.sink),
                    leak.sink_arg,
                    t.source_sanitized(leak.source),
                    leak.heap_steps,
                    leak.merged_heap_step,
                    trace.join(",")
                )
            });
            push_json_array(&mut out, "leaks", leaks, false);
            let sanitizers = t.sanitizer_calls.iter().map(|&(invo, hit)| {
                format!(
                    "{{\"caller\":{},\"span\":{},\"witnessed_taint\":{}}}",
                    escape(&program.method_display(program.invokes[invo].method)),
                    invoke_span(invo),
                    hit
                )
            });
            push_json_array(&mut out, "sanitizers", sanitizers, true);
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a supervised taint run as the human-readable report printed by
/// `rudoop taint` — the summary line, up to twenty leaks with their
/// shortest traces, and the overflow line. The daemon serves this exact
/// string so service responses are byte-identical to batch stdout.
pub fn render_text(program: &Program, taint: &SupervisedTaint) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match taint {
        Supervised::Analyzed(taint) => {
            let _ = writeln!(
                out,
                "taint ({}): {} source site(s), {} sink site(s), {} sanitizer call(s), \
                 {} leak(s)",
                taint.analysis,
                taint.source_sites,
                taint.sink_sites,
                taint.sanitizer_calls.len(),
                taint.leaks.len(),
            );
            const MAX_LEAKS: usize = 20;
            for leak in taint.leaks.iter().take(MAX_LEAKS) {
                let _ = writeln!(out, "leak: {}", leak.headline(program));
                for step in &leak.trace {
                    let _ = writeln!(out, "    via {step}");
                }
            }
            if taint.leaks.len() > MAX_LEAKS {
                let _ = writeln!(out, "... {} more leak(s)", taint.leaks.len() - MAX_LEAKS);
            }
        }
        Supervised::Skipped { reason } => {
            let _ = writeln!(out, "taint: SKIPPED — {reason}");
        }
    }
    out
}

/// Interned propagation graph under construction.
#[derive(Default)]
struct GraphBuilder {
    nodes: Vec<Node>,
    index: FxHashMap<Node, u32>,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    fn node(&mut self, n: Node) -> u32 {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(n);
        self.index.insert(n, i);
        i
    }

    fn edge(&mut self, from: Node, to: Node) {
        let f = self.node(from);
        let t = self.node(to);
        self.edges.push((f, t));
    }

    /// Sorted, deduplicated adjacency lists (deterministic BFS order).
    fn adjacency(&mut self) -> Vec<Vec<u32>> {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for &(f, t) in &self.edges {
            adj[f as usize].push(t);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Insensitive;
    use crate::solver::{analyze, SolverConfig};
    use rudoop_ir::{ClassHierarchy, ProgramBuilder};

    fn kit() -> (Program, TaintSpec) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let kit = b.class("Kit", Some(obj));
        let src = b.method(kit, "input", &[], true);
        let sv = b.var(src, "v");
        b.alloc(src, sv, obj);
        b.ret(src, sv);
        let san = b.method(kit, "clean", &["x"], true);
        let sp = b.param(san, 0);
        b.ret(san, sp);
        let snk = b.method(kit, "exec", &["a"], true);
        let main = b.method(obj, "main", &[], true);
        let t = b.var(main, "t");
        let c = b.var(main, "c");
        b.scall(main, Some(t), src, &[]);
        b.scall(main, Some(c), san, &[t]);
        b.scall(main, None, snk, &[t]);
        b.scall(main, None, snk, &[c]);
        b.entry(main);
        let p = b.finish();
        let mut spec = TaintSpec::new();
        spec.add_source(src);
        spec.add_sanitizer(san);
        spec.add_sink(snk, Some(0));
        (p, spec)
    }

    fn run(p: &Program, record: bool) -> PointsToResult {
        let h = ClassHierarchy::new(p);
        let config = SolverConfig {
            record_contexts: record,
            ..SolverConfig::default()
        };
        analyze(p, &h, &Insensitive, &config)
    }

    #[test]
    fn direct_flow_leaks_and_sanitized_flow_does_not() {
        let (p, spec) = kit();
        let result = run(&p, true);
        let taint = analyze_taint(&p, &spec, &result).unwrap();
        // Exactly one leak: the unsanitized call. The sanitized value
        // reaches the other sink call but carries no taint.
        assert_eq!(taint.leaks.len(), 1);
        let leak = &taint.leaks[0];
        assert_eq!(leak.sink_arg, 0);
        assert!(!leak.trace.is_empty());
        // The sanitizer saw the tainted value, so the source counts as
        // sanitized and the sanitizer call is live.
        assert_eq!(taint.sanitized_sources, vec![taint.leaks[0].source]);
        assert_eq!(taint.sanitizer_calls.len(), 1);
        assert!(taint.sanitizer_calls[0].1);
    }

    #[test]
    fn missing_dump_is_an_error() {
        let (p, spec) = kit();
        let result = run(&p, false);
        assert_eq!(
            analyze_taint(&p, &spec, &result).unwrap_err(),
            ClientError::MissingContextDump
        );
    }

    #[test]
    fn json_report_has_stable_schema() {
        let (p, spec) = kit();
        let result = run(&p, true);
        let taint = SupervisedTaint::Analyzed(analyze_taint(&p, &spec, &result).unwrap());
        let json = render_json(&p, &taint);
        assert!(json.starts_with("{\n  \"analysis\": \"insens\""));
        assert!(json.contains("\"skipped\": null"));
        assert!(json.contains("\"source\":\"Kit.input/0\""));
        assert!(json.contains("\"sink\":\"Kit.exec/1\""));
        assert!(json.contains("\"sanitized_source\":true"));
        assert!(json.contains("\"witnessed_taint\":true"));
        assert!(json.ends_with("}\n"));

        let skipped = SupervisedTaint::Skipped {
            reason: "say \"why\"".to_owned(),
        };
        let json = render_json(&p, &skipped);
        assert!(json.contains("\"analysis\": null"));
        assert!(json.contains("\"skipped\": \"say \\\"why\\\"\""));
        assert!(json.contains("\"leaks\": []"));
    }

    /// Renumbering the context tables (as a different interning order would)
    /// must not change leaks, traces, or sanitizer observations: taint
    /// canonicalizes context ids by content before anything order-sensitive.
    #[test]
    fn traces_are_invariant_under_context_renumbering() {
        use crate::policy::ObjectSensitive;

        // Two receivers calling the same tainted pipeline, so 2obj creates
        // several non-empty contexts and the BFS has real ties to break.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let kit = b.class("Kit", Some(obj));
        let f = b.field(obj, "f");
        let src = b.method(kit, "input", &[], true);
        let sv = b.var(src, "v");
        b.alloc(src, sv, obj);
        b.ret(src, sv);
        let snk = b.method(kit, "exec", &["a"], true);
        let wrap = b.method(kit, "wrap", &["x"], false);
        let wx = b.param(wrap, 0);
        let wb = b.var(wrap, "box");
        let wo = b.var(wrap, "out");
        b.alloc(wrap, wb, obj);
        b.store(wrap, wb, f, wx);
        b.load(wrap, wo, wb, f);
        b.ret(wrap, wo);
        let main = b.method(obj, "main", &[], true);
        let t = b.var(main, "t");
        let r1 = b.var(main, "r1");
        let r2 = b.var(main, "r2");
        let k1 = b.var(main, "k1");
        let k2 = b.var(main, "k2");
        b.alloc(main, k1, kit);
        b.alloc(main, k2, kit);
        b.scall(main, Some(t), src, &[]);
        b.vcall(main, Some(r1), k1, "wrap", &[t]);
        b.vcall(main, Some(r2), k2, "wrap", &[t]);
        b.scall(main, None, snk, &[r1]);
        b.scall(main, None, snk, &[r2]);
        b.entry(main);
        let p = b.finish();
        let mut spec = TaintSpec::new();
        spec.add_source(src);
        spec.add_sink(snk, None);

        let h = ClassHierarchy::new(&p);
        let config = SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        };
        let result = analyze(&p, &h, &ObjectSensitive::new(2, 1), &config);
        assert!(result.outcome.is_complete());
        let dump = result.cs_dump.as_ref().unwrap();
        assert!(
            dump.reachable().any(|(_, c)| c != CtxId::EMPTY),
            "fixture must exercise non-empty contexts"
        );

        // The client runs on `result` first, so the twin is cloned from a
        // result whose fact index is already built: it must not reuse it.
        let a = analyze_taint(&p, &spec, &result).unwrap();
        let twin = crate::cs_facts::renumber_contexts(&result);
        let b = analyze_taint(&p, &spec, &twin).unwrap();
        assert_eq!(a.leak_set(), b.leak_set());
        assert_eq!(a.sanitizer_calls, b.sanitizer_calls);
        for (la, lb) in a.leaks.iter().zip(&b.leaks) {
            assert_eq!(
                la.trace, lb.trace,
                "traces must not depend on context interning order"
            );
            assert_eq!(la.heap_steps, lb.heap_steps);
            assert_eq!(la.merged_heap_step, lb.merged_heap_step);
        }
    }

    #[test]
    fn heap_flow_is_tracked_with_trace() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let kit = b.class("Kit", Some(obj));
        let f = b.field(obj, "f");
        let src = b.method(kit, "input", &[], true);
        let sv = b.var(src, "v");
        b.alloc(src, sv, obj);
        b.ret(src, sv);
        let snk = b.method(kit, "exec", &["a"], true);
        let main = b.method(obj, "main", &[], true);
        let t = b.var(main, "t");
        let bx = b.var(main, "bx");
        let u = b.var(main, "u");
        b.scall(main, Some(t), src, &[]);
        b.alloc(main, bx, obj);
        b.store(main, bx, f, t);
        b.load(main, u, bx, f);
        b.scall(main, None, snk, &[u]);
        b.entry(main);
        let p = b.finish();
        let mut spec = TaintSpec::new();
        spec.add_source(src);
        spec.add_sink(snk, None);
        let result = run(&p, true);
        let taint = analyze_taint(&p, &spec, &result).unwrap();
        assert_eq!(taint.leaks.len(), 1);
        assert_eq!(taint.leaks[0].heap_steps, 1);
        assert!(taint.leaks[0].trace.iter().any(|s| s.contains(".f")));
    }
}
