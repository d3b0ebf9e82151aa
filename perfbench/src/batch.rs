//! The three batch workloads: `paper-2objH`, `context-free` and `clients`.
//!
//! A run generates the workload's programs from the seed (set-up), then
//! runs its fixed job list in passes until the time is up. Each job is one
//! (program, analysis) pair: the analysis call, the paper's precision
//! clients, and on `clients` the taint, race and lint clients with their
//! JSON renders. Output checks run between jobs, outside the job timers.
//!
//! The traced run first runs one untraced pass, then traced passes that
//! call each layer's public functions one by one under a span, and checks
//! that every traced job reproduces its untraced digest.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use rudoop_analyses::{LintContext, LintRegistry};
use rudoop_core::driver::{analyze_flavor, analyze_introspective_from, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
use rudoop_core::policy::{CutShortcut, Insensitive, Introspective, ObjectSensitive, Summaries};
use rudoop_core::races::{analyze_races, SupervisedRaces};
use rudoop_core::taint::{analyze_taint, SupervisedTaint};
use rudoop_core::{
    analyze, Budget, CutSummary, IntrospectionMetrics, Outcome, PointsToResult, PrecisionMetrics,
    SolverConfig, SummaryTable,
};
use rudoop_ir::rng::SplitMix64;
use rudoop_ir::{validate, AllocId, ClassHierarchy, IdxVec, Program, TaintSpec, VarId};
use rudoop_workloads::{dacapo, WorkloadSpec};

use crate::{geomean, median, peak_rss_mb, quantile, Args, Digest, Report, END_TO_END, PER_LAYER};

/// EXPERIMENTS.md's standard derivation budget, the stand-in for the
/// paper's 90-minute timeout.
const STANDARD_BUDGET: u64 = 30_000_000;

/// Set-up is timed in `SETUP_SAMPLES` samples of `LOADS_PER_SAMPLE`
/// back-to-back loads, and `setup_s` is the median sample's time per load.
/// One load takes 10–30 ms, too short to time on its own; a sample takes
/// 0.1–0.3 s. The first sample is this process's own set-up. The others
/// are taken between jobs, spread evenly over the run's seconds, each in a
/// fresh child process (`--setup-sample`): the host's speed changes in
/// phases of a few seconds, and after the jobs a load in this process takes
/// up to 40% less than in a fresh one (the allocator has raised its mmap
/// threshold and holds mapped memory).
const SETUP_SAMPLES: usize = 9;
const LOADS_PER_SAMPLE: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper2ObjH,
    ContextFree,
    Clients,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-2objH" => Some(Workload::Paper2ObjH),
            "context-free" => Some(Workload::ContextFree),
            "clients" => Some(Workload::Clients),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper2ObjH => "paper-2objH",
            Workload::ContextFree => "context-free",
            Workload::Clients => "clients",
        }
    }

    /// The workload's programs (DaCapo-shaped spec names) with their jobs.
    fn plan(self, tiny: bool) -> Vec<(&'static str, Vec<Analysis>)> {
        use Analysis::*;
        match self {
            Workload::Paper2ObjH => {
                let names: &[&str] = if tiny {
                    &["antlr", "lusearch"]
                } else {
                    &["bloat", "xalan", "hsqldb", "jython"]
                };
                names
                    .iter()
                    .map(|&n| {
                        // jython: 2objH and IntroB exhaust any budget (the
                        // paper's non-terminating bars), so they are skipped.
                        let jobs = if n == "jython" {
                            vec![Insens, IntroA]
                        } else {
                            vec![Insens, ObjH2, IntroA, IntroB]
                        };
                        (n, jobs)
                    })
                    .collect()
            }
            Workload::ContextFree => {
                let names: &[&str] = if tiny {
                    &["antlr", "lusearch"]
                } else {
                    &dacapo::ALL_NINE
                };
                names
                    .iter()
                    .map(|&n| (n, vec![Insens, CutShortcut, Summaries]))
                    .collect()
            }
            Workload::Clients => {
                let names: &[&str] = if tiny {
                    &["antlr", "bloat"]
                } else {
                    &dacapo::ALL_NINE
                };
                names
                    .iter()
                    .map(|&n| {
                        let deep = ["antlr", "lusearch", "pmd", "chart", "eclipse"].contains(&n);
                        (n, vec![if deep { ObjH2 } else { Insens }])
                    })
                    .collect()
            }
        }
    }

    /// The recipe for `name` under `seed`: seed 0 is the built-in DaCapo
    /// spec, any other seed re-seeds the generator's RNG.
    fn spec(self, name: &str, seed: u64) -> WorkloadSpec {
        let mut spec = dacapo::by_name(name).expect("plan names are DaCapo specs");
        if seed != 0 {
            spec.seed =
                SplitMix64::new(spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        match self {
            Workload::Paper2ObjH => {}
            // Scale 1 keeps a pass at a few seconds, so several passes fit a
            // run and per-job medians absorb short bursts of host load.
            Workload::ContextFree => {}
            // What `--spec builtin` and `--races` switch on.
            Workload::Clients => {
                spec.taint_flows = spec.taint_flows.max(1);
                spec.concurrency = spec.concurrency.max(2);
            }
        }
        spec
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Analysis {
    Insens,
    ObjH2,
    IntroA,
    IntroB,
    CutShortcut,
    Summaries,
}

impl Analysis {
    fn name(self) -> &'static str {
        match self {
            Analysis::Insens => "insens",
            Analysis::ObjH2 => "2objH",
            Analysis::IntroA => "2objH-IntroA",
            Analysis::IntroB => "2objH-IntroB",
            Analysis::CutShortcut => "cutshortcut",
            Analysis::Summaries => "summaries",
        }
    }

    /// The span (and per-layer metric) its main solve is charged to.
    fn solve_layer(self, workload: Workload) -> &'static str {
        match self {
            // The insensitive pass is the first pass everywhere except on
            // `clients`, where it is the analysis the clients consume.
            Analysis::Insens if workload == Workload::Clients => "solve.insens_s",
            Analysis::Insens => "first_pass.s",
            Analysis::ObjH2 => "solve.2objH_s",
            Analysis::IntroA => "solve.introA_s",
            Analysis::IntroB => "solve.introB_s",
            Analysis::CutShortcut => "solve.cutshortcut_s",
            Analysis::Summaries => "solve.summaries_s",
        }
    }
}

/// Soundness chains checked on completed results at every seed: the left
/// side's projected points-to sets are subsets of the right side's.
const CHAINS: &[(Analysis, Analysis)] = &[
    (Analysis::ObjH2, Analysis::IntroB),
    (Analysis::IntroB, Analysis::IntroA),
    (Analysis::IntroA, Analysis::Insens),
    (Analysis::CutShortcut, Analysis::Insens),
    (Analysis::Summaries, Analysis::Insens),
];

struct Loaded {
    name: &'static str,
    program: Program,
    hierarchy: ClassHierarchy,
    taint: TaintSpec,
}

/// In-memory spans of a traced pass, keyed by per-layer metric name, plus
/// the counters the layer calls returned. Disabled, it only runs closures.
#[derive(Default)]
struct Tracer {
    enabled: bool,
    spans: Vec<(&'static str, f64)>,
    counters: HashMap<&'static str, f64>,
}

impl Tracer {
    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((layer, start.elapsed().as_secs_f64()));
        out
    }

    fn add(&mut self, counter: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_default() += v;
        }
    }

    fn max(&mut self, counter: &'static str, v: f64) {
        if self.enabled {
            let e = self.counters.entry(counter).or_default();
            *e = e.max(v);
        }
    }

    /// A solver call under `layer`, with the solve counters it returns.
    fn solve(&mut self, layer: &'static str, f: impl FnOnce() -> PointsToResult) -> PointsToResult {
        let result = self.span(layer, f);
        if self.enabled {
            let call_s = self.spans.last().map_or(0.0, |s| s.1);
            let st = &result.stats;
            self.add("solve.project_s", call_s - st.duration.as_secs_f64());
            if layer == "first_pass.s" {
                self.add("first_pass.derivations", st.derivations as f64);
            } else {
                self.add("solve.derivations", st.derivations as f64);
                self.add("solve.contexts", st.contexts as f64);
                self.add("solve.time_s", call_s);
                self.max("solve.bytes_estimate_mb", st.bytes_estimate() as f64 / 1e6);
            }
        }
        result
    }
}

/// Everything a job produced that the checks read.
struct JobOut {
    result: PointsToResult,
    precision: PrecisionMetrics,
    /// `leaks/races/diagnostics/<digest of the three JSON documents>` on
    /// `clients`, `-` elsewhere.
    clients: String,
}

/// The expected-values record of one job, as committed in `expected.tsv`.
fn record(workload: Workload, program: &str, a: Analysis, out: &JobOut) -> String {
    let p = &out.precision;
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        workload.name(),
        program,
        a.name(),
        outcome_class(out.result.outcome),
        p.polymorphic_call_sites,
        p.reachable_methods,
        p.casts_may_fail,
        projection_digest(&out.result),
        out.clients
    )
}

fn outcome_class(o: Outcome) -> &'static str {
    match o {
        Outcome::Complete => "complete",
        Outcome::BudgetExhausted => "exhausted",
        Outcome::CapacityExceeded => "capacity",
    }
}

/// A digest of the context-collapsed projection: var, field and global
/// points-to sets, call targets and reachable methods.
fn projection_digest(r: &PointsToResult) -> String {
    let mut d = Digest::default();
    for (v, pts) in r.var_pts.iter() {
        d.word(u64::from(v.0));
        pts.iter().for_each(|h| d.word(u64::from(h.0) + (1 << 32)));
    }
    let mut fields: Vec<_> = r.field_pts.iter().collect();
    fields.sort_unstable_by_key(|(k, _)| **k);
    for ((base, field), pts) in fields {
        d.word(u64::from(base.0) << 32 | u64::from(field.0));
        pts.iter().for_each(|h| d.word(u64::from(h.0)));
    }
    let mut globals: Vec<_> = r.global_pts.iter().collect();
    globals.sort_unstable_by_key(|(g, _)| **g);
    for (g, pts) in globals {
        d.word(u64::from(g.0));
        pts.iter().for_each(|h| d.word(u64::from(h.0)));
    }
    let mut calls: Vec<_> = r.call_targets.iter().collect();
    calls.sort_unstable_by_key(|(i, _)| **i);
    for (i, targets) in calls {
        d.word(u64::from(i.0));
        targets.iter().for_each(|m| d.word(u64::from(m.0)));
    }
    d.word(r.reachable_method_count() as u64);
    d.hex()
}

/// The first variable whose projected set in `small` is not a subset of
/// its set in `big`.
fn subset_violation(
    small: &IdxVec<VarId, Vec<AllocId>>,
    big: &IdxVec<VarId, Vec<AllocId>>,
) -> Option<VarId> {
    small.iter().find_map(|(v, pts)| {
        let other = &big[v];
        (!pts.iter().all(|h| other.binary_search(h).is_ok())).then_some(v)
    })
}

/// Generates, validates and indexes every program of the workload; with
/// the tracer on, each step is its own span.
fn load(workload: Workload, args: &Args, tr: &mut Tracer) -> Result<Vec<Loaded>, String> {
    let mut loaded = Vec::new();
    for (name, _) in workload.plan(args.tiny) {
        let spec = workload.spec(name, args.seed);
        let program = tr.span("load.build_s", || spec.build());
        tr.span("load.validate_s", || validate(&program))
            .map_err(|errs| format!("{name}: generated program is invalid: {errs:?}"))?;
        let hierarchy = tr.span("load.hierarchy_s", || ClassHierarchy::new(&program));
        tr.add("load.instructions", program.instruction_count() as f64);
        let taint = spec.taint_spec(&program);
        loaded.push(Loaded {
            name,
            program,
            hierarchy,
            taint,
        });
    }
    Ok(loaded)
}

/// Runs one job. Untraced, compound analyses go through their public
/// entry points; traced, through their layer functions one by one.
///
/// `fp_copy` is the copy of `first_pass` the public introspective call
/// consumes, made by the caller before the job timer starts.
fn run_job(
    workload: Workload,
    prog: &Loaded,
    a: Analysis,
    first_pass: Option<&PointsToResult>,
    fp_copy: Option<PointsToResult>,
    cfg: &SolverConfig,
    tr: &mut Tracer,
) -> Result<JobOut, String> {
    let (p, h) = (&prog.program, &prog.hierarchy);
    let layer = a.solve_layer(workload);
    let result = match a {
        Analysis::Insens => tr.solve(layer, || analyze(p, h, &Insensitive, cfg)),
        Analysis::ObjH2 => tr.solve(layer, || analyze_flavor(p, h, Flavor::OBJ2H, cfg)),
        Analysis::IntroA | Analysis::IntroB => {
            let fp = first_pass.ok_or("introspective job without a first pass")?;
            let heuristic: &dyn RefinementHeuristic = if a == Analysis::IntroA {
                &HeuristicA::default()
            } else {
                &HeuristicB::default()
            };
            if tr.enabled {
                let metrics = tr.span("introspection.metrics_s", || {
                    IntrospectionMetrics::compute(p, fp)
                });
                let (refinement, stats) = tr.span("introspection.select_s", || {
                    let r = heuristic.select(p, &metrics, fp);
                    let s = RefinementStats::compute(p, fp, &r);
                    (r, s)
                });
                tr.add(
                    "introspection.not_refined",
                    (stats.call_sites_not_refined + stats.objects_not_refined) as f64,
                );
                tr.add(
                    "introspection.elements",
                    (stats.call_sites_total + stats.objects_total) as f64,
                );
                let policy = Introspective::new(
                    Insensitive,
                    ObjectSensitive::new(2, 1),
                    refinement,
                    heuristic.label(),
                );
                tr.solve(layer, || analyze(p, h, &policy, cfg))
            } else {
                let fp = fp_copy.ok_or("introspective job without a first-pass copy")?;
                analyze_introspective_from(p, h, Flavor::OBJ2H, heuristic, cfg, fp).result
            }
        }
        Analysis::CutShortcut => {
            if tr.enabled {
                let cuts = tr.span("cutshortcut.pass_s", || CutSummary::compute(p));
                tr.add("cutshortcut.cut_points", cuts.stats.cut_points() as f64);
                tr.add(
                    "cutshortcut.methods_with_cuts",
                    cuts.stats.methods_with_cuts as f64,
                );
                tr.add("cutshortcut.methods", cuts.stats.methods as f64);
                let cfg = SolverConfig {
                    cuts: Some(Arc::new(cuts)),
                    ..cfg.clone()
                };
                tr.solve(layer, || analyze(p, h, &CutShortcut, &cfg))
            } else {
                analyze_flavor(p, h, Flavor::CutShortcut, cfg)
            }
        }
        Analysis::Summaries => {
            if tr.enabled {
                // `Flavor::prepare_config` builds its own hierarchy before
                // distilling; the pass span mirrors that.
                let table = tr.span("summaries.pass_s", || {
                    SummaryTable::compute(p, &ClassHierarchy::new(p))
                });
                tr.add("summaries.distilled", table.stats.distilled as f64);
                tr.add(
                    "summaries.methods_with_ret",
                    table.stats.methods_with_ret as f64,
                );
                tr.add("summaries.atoms", table.stats.atoms() as f64);
                let cfg = SolverConfig {
                    summaries: Some(Arc::new(table)),
                    ..cfg.clone()
                };
                tr.solve(layer, || analyze(p, h, &Summaries, &cfg))
            } else {
                analyze_flavor(p, h, Flavor::Summaries, cfg)
            }
        }
    };
    let precision = tr.span("clients.precision_s", || {
        PrecisionMetrics::compute(p, h, &result)
    });
    let clients = if workload == Workload::Clients {
        run_clients(prog, &result, tr)?
    } else {
        "-".to_owned()
    };
    Ok(JobOut {
        result,
        precision,
        clients,
    })
}

/// The taint, race and lint clients over one result, with their JSON
/// documents rendered as the batch CLIs print them.
fn run_clients(prog: &Loaded, result: &PointsToResult, tr: &mut Tracer) -> Result<String, String> {
    let (p, h) = (&prog.program, &prog.hierarchy);
    let taint = tr
        .span("taint.s", || analyze_taint(p, &prog.taint, result))
        .map_err(|e| format!("taint: {e:?}"))?;
    let races = tr
        .span("races.s", || analyze_races(p, result))
        .map_err(|e| format!("races: {e:?}"))?;
    let diags = tr.span("lints.s", || {
        LintRegistry::with_defaults().run(&LintContext {
            program: p,
            hierarchy: h,
            points_to: Some(result),
            taint: Some(&taint),
            races: Some(&races),
        })
    });
    let (leaks, race_count, diag_count) = (taint.leaks.len(), races.races.len(), diags.len());
    tr.add("taint.leaks", leaks as f64);
    tr.add("races.races", race_count as f64);
    tr.add("lints.diagnostics", diag_count as f64);
    let docs = tr.span("render.s", || {
        [
            rudoop_core::taint::render_json(p, &SupervisedTaint::Analyzed(taint)),
            rudoop_core::races::render_json(p, &SupervisedRaces::Analyzed(races)),
            rudoop_analyses::render_json(p, &diags),
        ]
    });
    let mut d = Digest::default();
    for doc in &docs {
        tr.add("render.bytes", doc.len() as f64);
        d.bytes(doc.as_bytes());
    }
    Ok(format!("{leaks}/{race_count}/{diag_count}/{}", d.hex()))
}

/// One pass over the job list.
struct PassOut {
    /// Per-job wall time in ms, in job order.
    job_ms: Vec<f64>,
    /// Per-job projection digest (`None` when the job failed).
    digests: Vec<Option<String>>,
    /// Per-job `expected.tsv` record, for the jobs that did not fail.
    records: Vec<String>,
    tracer: Tracer,
}

struct Checks<'a> {
    /// Expected records at the default seed and full size.
    expected: Option<&'a HashMap<(String, String), String>>,
    /// Digests of the untraced pass, which traced passes must reproduce.
    baseline: Option<&'a [Option<String>]>,
}

fn run_pass(
    workload: Workload,
    programs: &[Loaded],
    plan: &[(&'static str, Vec<Analysis>)],
    checks: &Checks<'_>,
    traced: bool,
    report: &mut Report,
    between_jobs: &mut dyn FnMut() -> Result<(), String>,
) -> Result<PassOut, String> {
    let cfg = SolverConfig {
        budget: Budget::derivations(STANDARD_BUDGET),
        record_contexts: workload == Workload::Clients,
        ..SolverConfig::default()
    };
    let mut tr = Tracer {
        enabled: traced,
        ..Tracer::default()
    };
    let (mut job_ms, mut digests, mut records) = (Vec::new(), Vec::new(), Vec::new());
    for (prog, (_, jobs)) in programs.iter().zip(plan) {
        let mut first_pass: Option<PointsToResult> = None;
        let mut complete: HashMap<Analysis, IdxVec<VarId, Vec<AllocId>>> = HashMap::new();
        for &a in jobs {
            report.attempted += 1;
            let what = format!("{} {} {}", workload.name(), prog.name, a.name());
            let intro = matches!(a, Analysis::IntroA | Analysis::IntroB);
            let fp_copy = (intro && !traced).then(|| first_pass.clone()).flatten();
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_job(
                    workload,
                    prog,
                    a,
                    first_pass.as_ref(),
                    fp_copy,
                    &cfg,
                    &mut tr,
                )
            }));
            job_ms.push(start.elapsed().as_secs_f64() * 1e3);
            between_jobs()?;
            let out = match out {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    report.fail(format!("{what}: {e}"));
                    digests.push(None);
                    continue;
                }
                Err(_) => {
                    report.fail(format!("{what}: panicked"));
                    digests.push(None);
                    continue;
                }
            };
            let digest = projection_digest(&out.result);
            let rec = record(workload, prog.name, a, &out);
            let complete_run = out.result.outcome.is_complete();
            let may_exhaust = prog.name == "hsqldb" && a == Analysis::ObjH2;
            if !complete_run && !may_exhaust {
                report.fail(format!(
                    "{what}: unexpected {}",
                    outcome_class(out.result.outcome)
                ));
            }
            if let Some(expected) = checks.expected {
                match expected.get(&(prog.name.to_owned(), a.name().to_owned())) {
                    Some(want) if *want == rec => {}
                    Some(want) => report.fail(format!("{what}: got [{rec}], expected [{want}]")),
                    None => report.fail(format!("{what}: no expected record")),
                }
            }
            if let Some(base) = checks.baseline {
                let i = digests.len();
                if base.get(i).and_then(Option::as_ref) != Some(&digest) {
                    report.fail(format!("{what}: traced result differs from untraced"));
                }
            }
            records.push(rec);
            digests.push(Some(digest));
            if complete_run {
                complete.insert(a, out.result.var_pts.clone());
            }
            if a == Analysis::Insens {
                first_pass = Some(out.result);
            }
        }
        for &(small, big) in CHAINS {
            if let (Some(s), Some(b)) = (complete.get(&small), complete.get(&big)) {
                if let Some(v) = subset_violation(s, b) {
                    report.fail(format!(
                        "{} {}: pts({}) not within pts({}) at {}",
                        workload.name(),
                        prog.name,
                        small.name(),
                        big.name(),
                        prog.program.var_display(v)
                    ));
                }
            }
        }
    }
    Ok(PassOut {
        job_ms,
        digests,
        records,
        tracer: tr,
    })
}

/// `--setup-sample N`: loads the workload's programs `n` times, dropping
/// each load at once, and returns the time per load.
pub fn setup_sample(workload: Workload, args: &Args, n: usize) -> Result<f64, String> {
    let mut tr = Tracer::default();
    let start = Instant::now();
    for _ in 0..n {
        load(workload, args, &mut tr)?;
    }
    Ok(start.elapsed().as_secs_f64() / n as f64)
}

/// One set-up sample of `n` loads, taken in a fresh child process.
fn child_setup_sample(n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--setup-sample", &n.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(per_load) if out.status.success() => Ok(per_load),
        _ => Err(format!("set-up sample failed ({}): {text:?}", out.status)),
    }
}

fn read_expected(
    workload: Workload,
    args: &Args,
) -> Result<HashMap<(String, String), String>, String> {
    let text = std::fs::read_to_string(&args.expected)
        .map_err(|e| format!("{}: {e}", args.expected.display()))?;
    Ok(text
        .lines()
        .filter(|l| l.starts_with(&format!("{}\t", workload.name())))
        .map(|l| {
            let mut cols = l.split('\t').skip(1);
            let program = cols.next().unwrap_or_default().to_owned();
            let analysis = cols.next().unwrap_or_default().to_owned();
            ((program, analysis), l.to_owned())
        })
        .collect())
}

pub fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut report = Report::default();
    let plan = workload.plan(args.tiny);

    // A traced run reports no `setup_s`, so it takes no child samples; a
    // tiny run takes one, so that the smoke test covers them.
    let (samples, per_sample) = match (args.tiny, args.trace) {
        (true, _) => (2, 1),
        (false, true) => (1, LOADS_PER_SAMPLE),
        (false, false) => (SETUP_SAMPLES, LOADS_PER_SAMPLE),
    };
    let mut load_tracer = Tracer {
        enabled: args.trace,
        ..Tracer::default()
    };
    let mut programs = None;
    let start = Instant::now();
    for _ in 0..per_sample {
        let loaded = load(workload, args, &mut load_tracer)?;
        // The first load is kept for the passes and every later one is
        // dropped at once. Replacing the kept load with each new one
        // instead fragments the heap so that every load is slower than the
        // one before (about 2× after 90 loads).
        programs.get_or_insert(loaded);
    }
    let mut setup_s = vec![start.elapsed().as_secs_f64() / per_sample as f64];
    let programs = programs.expect("at least one load");
    let mut sample_when_due = || -> Result<(), String> {
        let due = args.seconds * setup_s.len() as f64 / samples as f64;
        if setup_s.len() < samples && t0.elapsed().as_secs_f64() >= due {
            setup_s.push(child_setup_sample(per_sample)?);
        }
        Ok(())
    };

    // At the default seed and full size, the jobs are checked against
    // `expected.tsv`, and the first pass's records are written to
    // `<run-dir>/<workload>.tsv`: after a deliberate change of results,
    // those files are the new expected values.
    let default_run = args.seed == 0 && !args.tiny;
    let expected = if default_run {
        Some(read_expected(workload, args)?)
    } else {
        None
    };

    // Passes until the time is up: at least one, and in a traced run one
    // untraced pass first, then at least one traced pass.
    let mut passes: Vec<(f64, PassOut)> = Vec::new();
    loop {
        let traced = args.trace && !passes.is_empty();
        let checks = Checks {
            expected: expected.as_ref(),
            baseline: passes
                .first()
                .filter(|_| traced)
                .map(|p| p.1.digests.as_slice()),
        };
        let out = run_pass(
            workload,
            &programs,
            &plan,
            &checks,
            traced,
            &mut report,
            &mut sample_when_due,
        )?;
        let wall: f64 = out.job_ms.iter().sum::<f64>() / 1e3;
        passes.push((wall, out));
        let typical = median(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
        if args.trace && passes.len() < 2 {
            continue;
        }
        if t0.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    while setup_s.len() < samples {
        setup_s.push(child_setup_sample(per_sample)?);
    }

    if default_run {
        let path = args.run_dir.join(format!("{}.tsv", workload.name()));
        let mut text = passes[0].1.records.join("\n");
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut values: HashMap<String, f64> = HashMap::new();
    if args.trace {
        collect_trace(&passes, per_sample as f64, &load_tracer, &mut values)?;
        report.set_metrics(PER_LAYER, &values);
    } else {
        let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
        let jobs = passes[0].1.job_ms.len();
        let per_job: Vec<f64> = (0..jobs)
            .map(|j| {
                let xs: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| p.1.job_ms.get(j).copied())
                    .collect();
                median(&xs)
            })
            .collect();
        values.insert("setup_s".into(), median(&setup_s));
        values.insert("wall_s".into(), median(&walls));
        values.insert("job_geomean_ms".into(), geomean(&per_job));
        values.insert("request_p50_ms".into(), quantile(&per_job, 0.5));
        values.insert("request_p90_ms".into(), quantile(&per_job, 0.9));
        values.insert("peak_rss_mb".into(), peak_rss_mb("self")?);
        let names = plan
            .iter()
            .flat_map(|(prog, jobs)| jobs.iter().map(move |a| format!("{prog}/{}", a.name())));
        for (name, ms) in names.zip(&per_job) {
            eprintln!("  job {name:<28} {ms:>10.1} ms (median over passes)");
        }
        eprintln!("setup_s per sample: {setup_s:.5?}");
        eprintln!("wall_s per pass: {walls:.4?}");
        eprintln!(
            "samples: setup_s={} samples of {per_sample} loads, wall_s={} passes, \
             job_geomean_ms and request_p50/p90_ms={} jobs",
            setup_s.len(),
            walls.len(),
            per_job.len(),
        );
        report.set_metrics(END_TO_END, &values);
    }
    Ok(report)
}

/// Per-layer metrics of a traced run: span totals and counters averaged
/// over the traced passes, load spans as means over the `loads` loads of
/// this process's set-up.
fn collect_trace(
    passes: &[(f64, PassOut)],
    loads: f64,
    load_tracer: &Tracer,
    values: &mut HashMap<String, f64>,
) -> Result<(), String> {
    for (layer, _) in &load_tracer.spans {
        values.entry(layer.to_string()).or_insert_with(|| {
            let total: f64 = load_tracer
                .spans
                .iter()
                .filter(|s| s.0 == *layer)
                .map(|s| s.1)
                .sum();
            total / loads
        });
    }
    values.insert(
        "load.instructions".into(),
        load_tracer
            .counters
            .get("load.instructions")
            .copied()
            .unwrap_or(0.0)
            / loads,
    );

    let traced: Vec<&(f64, PassOut)> = passes.iter().filter(|p| p.1.tracer.enabled).collect();
    let n = traced.len() as f64;
    let mut span_sum = 0.0;
    for (_, out) in &traced {
        for &(layer, s) in &out.tracer.spans {
            *values.entry(layer.to_owned()).or_default() += s / n;
            span_sum += s / n;
        }
    }
    let mut counters: HashMap<&str, f64> = HashMap::new();
    for (_, out) in &traced {
        for (&k, &v) in &out.tracer.counters {
            if k == "solve.bytes_estimate_mb" {
                let e = counters.entry(k).or_default();
                *e = e.max(v);
            } else {
                *counters.entry(k).or_default() += v / n;
            }
        }
    }
    let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for k in [
        "first_pass.derivations",
        "solve.derivations",
        "solve.contexts",
        "solve.project_s",
        "solve.bytes_estimate_mb",
        "cutshortcut.cut_points",
        "summaries.atoms",
        "taint.leaks",
        "races.races",
        "lints.diagnostics",
        "render.bytes",
    ] {
        values.insert(k.into(), c(k));
    }
    values.insert(
        "introspection.not_refined_frac".into(),
        ratio(c("introspection.not_refined"), c("introspection.elements")),
    );
    values.insert(
        "cutshortcut.methods_cut_frac".into(),
        ratio(c("cutshortcut.methods_with_cuts"), c("cutshortcut.methods")),
    );
    values.insert(
        "summaries.distilled_frac".into(),
        ratio(c("summaries.distilled"), c("summaries.methods_with_ret")),
    );
    values.insert(
        "solve.derivations_per_s".into(),
        ratio(c("solve.derivations"), c("solve.time_s")),
    );
    // Means, like the span totals, so that spans plus remainder add up.
    let traced_wall = traced.iter().map(|p| p.0).sum::<f64>() / n;
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.1.tracer.enabled)
        .map(|p| p.0)
        .collect();
    let untraced_wall = untraced.iter().sum::<f64>() / untraced.len() as f64;
    values.insert("trace.wall_s".into(), traced_wall);
    values.insert("trace.remainder_s".into(), traced_wall - span_sum);
    values.insert("trace.overhead_s".into(), traced_wall - untraced_wall);
    values.insert("trace.peak_rss_mb".into(), peak_rss_mb("self")?);
    eprintln!(
        "trace: {} traced pass(es), {} untraced; spans account for {:.4} s of {:.4} s",
        traced.len(),
        passes.len() - traced.len(),
        span_sum,
        traced_wall
    );
    Ok(())
}
