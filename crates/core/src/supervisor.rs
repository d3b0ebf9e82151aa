//! The resilient analysis supervisor: a degradation ladder over solver
//! runs, with per-rung budgets, watchdog-enforced deadlines, and
//! partial-result salvage.
//!
//! The paper's central empirical claim is that precise context-sensitivity
//! is *fragile* — `2objH` times out or exhausts 24 GB on several DaCapo
//! benchmarks — and that introspection restores scalability by degrading
//! precision only where it hurts. The supervisor operationalizes that
//! claim as a control loop: run the most precise configuration first, and
//! when it exhausts its budget (derivations, modeled bytes, wall clock,
//! cancellation, or an internal capacity table), fall back rung by rung —
//! typically `2objH → introspective-B(2objH) → introspective-A(2objH) →
//! cutshortcut → insens` — until one configuration completes.
//!
//! Two properties make retries cheap and the whole ladder reproducible:
//!
//! - **Salvage**: the context-insensitive first pass required by every
//!   introspective rung is computed at most once and shared across rungs
//!   (via [`analyze_introspective_from`]), so a retry never recomputes the
//!   insensitive fixpoint. When every rung exhausts, the best partial
//!   result is still returned for inspection.
//! - **Determinism**: with derivation or byte budgets (rather than wall
//!   clock), every rung outcome — and therefore the rung order, the final
//!   analysis, and the exit code — is a pure function of the program and
//!   the configuration.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rudoop_ir::{ClassHierarchy, Program};

use crate::driver::{analyze_flavor, analyze_introspective_from, Flavor};
use crate::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use crate::policy::Insensitive;
use crate::solver::{
    analyze, Budget, CancelToken, ExhaustionCause, Outcome, PointsToResult, SolverConfig,
    SolverStats,
};

/// Which refinement heuristic an introspective rung uses, with its
/// constants (defaults are the paper's).
#[derive(Debug, Clone, Copy)]
pub enum HeuristicChoice {
    /// Heuristic A: aggressive scalability.
    A(HeuristicA),
    /// Heuristic B: selective, precision-preserving.
    B(HeuristicB),
}

impl HeuristicChoice {
    /// Heuristic A with the paper's constants.
    pub fn a() -> Self {
        HeuristicChoice::A(HeuristicA::default())
    }

    /// Heuristic B with the paper's constants.
    pub fn b() -> Self {
        HeuristicChoice::B(HeuristicB::default())
    }

    /// The heuristic as a trait object for the driver.
    pub fn as_dyn(&self) -> &dyn RefinementHeuristic {
        match self {
            HeuristicChoice::A(h) => h,
            HeuristicChoice::B(h) => h,
        }
    }

    /// `A` or `B`, for rung spec strings.
    pub fn letter(&self) -> char {
        match self {
            HeuristicChoice::A(_) => 'A',
            HeuristicChoice::B(_) => 'B',
        }
    }
}

/// The analysis a rung runs (its shape, without resource overrides).
#[derive(Debug, Clone, Copy)]
pub enum RungKind {
    /// A plain single-pass analysis under `Flavor`.
    Direct(Flavor),
    /// The two-pass introspective variant: insensitive pass (shared across
    /// rungs), heuristic selection, selectively-refined pass.
    Introspective {
        /// The refined context flavor.
        flavor: Flavor,
        /// The selection heuristic.
        heuristic: HeuristicChoice,
    },
}

/// One rung of the degradation ladder: the analysis it runs.
#[derive(Debug, Clone, Copy)]
pub struct RungSpec {
    /// Which analysis the rung runs.
    pub kind: RungKind,
}

impl RungSpec {
    /// A single-pass rung under `flavor`.
    pub fn direct(flavor: Flavor) -> RungSpec {
        RungSpec {
            kind: RungKind::Direct(flavor),
        }
    }

    /// A two-pass introspective rung.
    pub fn introspective(flavor: Flavor, heuristic: HeuristicChoice) -> RungSpec {
        RungSpec {
            kind: RungKind::Introspective { flavor, heuristic },
        }
    }

    /// The program-independent spec string (`2objH`, `introB:2objH`, …),
    /// accepted back by [`RungSpec::parse`].
    pub fn spec(&self) -> String {
        match &self.kind {
            RungKind::Direct(f) => f.spec_name(),
            RungKind::Introspective { flavor, heuristic } => {
                format!("intro{}:{}", heuristic.letter(), flavor.spec_name())
            }
        }
    }

    /// Parses one rung: a flavor name (`2objH`, `insens`) or an
    /// introspective rung `introA:<flavor>` / `introspectiveB:<flavor>`.
    pub fn parse(s: &str) -> Result<RungSpec, String> {
        let intro = s
            .strip_prefix("introspective")
            .or_else(|| s.strip_prefix("intro"));
        let kind = if let Some(rest) = intro {
            let (letter, flavor) = rest.split_once(':').ok_or_else(|| {
                format!("malformed introspective rung {s:?} (want introA:FLAVOR)")
            })?;
            let heuristic = match letter {
                "A" | "a" => HeuristicChoice::a(),
                "B" | "b" => HeuristicChoice::b(),
                _ => {
                    return Err(format!(
                        "unknown heuristic {letter:?} in rung {s:?} (A or B)"
                    ))
                }
            };
            let flavor = Flavor::parse(flavor).map_err(|e| format!("{e} in rung {s:?}"))?;
            RungKind::Introspective { flavor, heuristic }
        } else {
            Flavor::parse(s)
                .map(RungKind::Direct)
                .map_err(|e| format!("{e} in rung {s:?} (flavor name or introA:FLAVOR)"))?
        };
        Ok(RungSpec { kind })
    }
}

impl fmt::Display for RungSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

/// An ordered degradation ladder: most precise rung first.
#[derive(Debug, Clone)]
pub struct LadderSpec {
    /// The rungs, tried in order until one completes.
    pub rungs: Vec<RungSpec>,
}

impl LadderSpec {
    /// The canonical ladder for `flavor`:
    /// `flavor → introB:flavor → introA:flavor → cutshortcut → insens`.
    ///
    /// The `cutshortcut` rung sits between the introspective retries and
    /// the insensitive floor: it costs about as much as `insens` (all
    /// contexts are `★`) yet recovers a slice of the precision the
    /// introspective rungs were after, so a run that degrades past both
    /// heuristics still lands above the floor when the pre-analysis pass
    /// finds cuts.
    pub fn default_for(flavor: Flavor) -> Self {
        LadderSpec {
            rungs: vec![
                RungSpec::direct(flavor),
                RungSpec::introspective(flavor, HeuristicChoice::b()),
                RungSpec::introspective(flavor, HeuristicChoice::a()),
                RungSpec::direct(Flavor::CutShortcut),
                RungSpec::direct(Flavor::Insensitive),
            ],
        }
    }

    /// The three-rung ladder around one introspective rung:
    /// `flavor → introX:flavor → insens`.
    pub fn introspective(flavor: Flavor, heuristic: HeuristicChoice) -> Self {
        LadderSpec {
            rungs: vec![
                RungSpec::direct(flavor),
                RungSpec::introspective(flavor, heuristic),
                RungSpec::direct(Flavor::Insensitive),
            ],
        }
    }

    /// Parses a comma-separated rung list (`2objH,introB:2objH,insens`).
    ///
    /// Two conveniences: `default` names [`LadderSpec::default_for`]
    /// `2objH`, and a lone `introX:FLAVOR` rung expands to
    /// [`LadderSpec::introspective`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "default" {
            return Ok(LadderSpec::default());
        }
        let mut rungs: Vec<RungSpec> = Vec::new();
        let mut at = 0usize;
        for piece in spec.split(',') {
            let piece_start = at;
            at += piece.len() + 1; // the separating comma
            let trimmed = piece.trim();
            if trimmed.is_empty() {
                continue;
            }
            let lead = piece.len() - piece.trim_start().len();
            let start = piece_start + lead;
            let rung = RungSpec::parse(trimmed).map_err(|e| {
                format!(
                    "rung {} at chars {}..{} of ladder spec: {e}",
                    rungs.len(),
                    start,
                    start + trimmed.len()
                )
            })?;
            rungs.push(rung);
        }
        if rungs.is_empty() {
            return Err("empty ladder".to_owned());
        }
        if let [RungSpec {
            kind: RungKind::Introspective { flavor, heuristic },
        }] = rungs[..]
        {
            return Ok(LadderSpec::introspective(flavor, heuristic));
        }
        Ok(LadderSpec { rungs })
    }

    /// The spec string of the whole ladder.
    pub fn spec(&self) -> String {
        self.rungs
            .iter()
            .map(RungSpec::spec)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Default for LadderSpec {
    fn default() -> Self {
        LadderSpec::default_for(Flavor::OBJ2H)
    }
}

/// Configuration of one supervised run.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// The degradation ladder (default: `2objH → introB → introA →
    /// cutshortcut → insens`).
    pub ladder: LadderSpec,
    /// The per-rung budget (each rung gets the full budget).
    pub budget: Budget,
    /// Base solver configuration. Its `budget` is replaced by the per-rung
    /// budget, and its `cancel` token (if any) is treated as the *external*
    /// cancellation signal for the whole supervised run.
    pub solver: SolverConfig,
    /// A pre-computed, *completed* context-insensitive first pass, shared
    /// across supervised runs by a resident service (`rudoopd` warms one
    /// at startup). Introspective rungs reuse it instead of recomputing —
    /// but only when this run's budget would have admitted the pass (its
    /// recorded derivation/byte stats fit `budget`), so a warm run stays
    /// byte-identical to a cold one: a budget too small for the insensitive
    /// pass still exhausts exactly where a cold run would. Wall-clock
    /// limits are deliberately not consulted (they are not deterministic).
    pub warm_first_pass: Option<Arc<PointsToResult>>,
    /// A pre-computed summary table, shared across supervised runs by a
    /// resident service (`rudoopd`'s warm summary cache — the first
    /// *context-sensitive* warm artifact). `summaries` rungs inject it
    /// into the solver configuration instead of recomputing the bottom-up
    /// pass; the table is a pure function of the program, so a warm run is
    /// byte-identical to a cold one by construction and needs no budget
    /// admission test.
    pub warm_summaries: Option<Arc<crate::summaries::SummaryTable>>,
}

/// Whether `stats` (of a completed run) fits inside `budget` — the warm
/// first-pass admission test.
fn budget_admits(budget: &Budget, stats: &SolverStats) -> bool {
    budget
        .max_derivations
        .is_none_or(|cap| stats.derivations <= cap)
        && budget
            .max_bytes
            .is_none_or(|cap| stats.bytes_estimate() <= cap)
}

/// Counts of usable facts in a (possibly partial) result — what a rung
/// leaves behind for inspection when it exhausts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvagedFacts {
    /// Variables with a non-empty points-to set.
    pub vars_with_facts: usize,
    /// Total projected var-points-to tuples.
    pub var_pts_tuples: u64,
    /// Invocation sites with at least one resolved target.
    pub resolved_call_sites: usize,
    /// Methods reachable in at least one context.
    pub reachable_methods: usize,
}

impl SalvagedFacts {
    /// Computes the salvage summary of `result`.
    pub fn of(result: &PointsToResult) -> Self {
        SalvagedFacts {
            vars_with_facts: result.var_pts.values().filter(|p| !p.is_empty()).count(),
            var_pts_tuples: result.var_pts.values().map(|p| p.len() as u64).sum(),
            resolved_call_sites: result.call_targets.len(),
            reachable_methods: result.reachable_method_count(),
        }
    }
}

/// The structured record of one rung attempt.
#[derive(Debug, Clone)]
pub struct RungReport {
    /// The rung that was attempted.
    pub rung: RungSpec,
    /// The concrete analysis name (`2objH`, `intro(IntroB)+2objH`, …).
    pub analysis: String,
    /// How the rung ended.
    pub outcome: Outcome,
    /// Why the rung stopped early, when it did.
    pub exhaustion: Option<ExhaustionCause>,
    /// Solver counters of the rung's (final-pass) run.
    pub stats: SolverStats,
    /// Facts available in the rung's result, complete or partial.
    pub salvaged: SalvagedFacts,
    /// Introspective rungs: time spent on metrics + selection.
    pub selection_time: Option<Duration>,
    /// Whether this rung computed the shared insensitive first pass (at
    /// most one rung per supervised run does).
    pub ran_first_pass: bool,
}

/// The overall outcome of a supervised run, and the CLI exit-code
/// contract: 0 = complete, 3 = degraded, 4 = all rungs exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisionVerdict {
    /// The first (most precise) rung completed.
    Complete,
    /// A later rung completed: the result is sound but less precise than
    /// requested.
    Degraded,
    /// No rung completed within its budget.
    Exhausted,
}

impl SupervisionVerdict {
    /// The process exit code for this verdict.
    pub fn exit_code(self) -> u8 {
        match self {
            SupervisionVerdict::Complete => 0,
            SupervisionVerdict::Degraded => 3,
            SupervisionVerdict::Exhausted => 4,
        }
    }
}

impl fmt::Display for SupervisionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SupervisionVerdict::Complete => "complete",
            SupervisionVerdict::Degraded => "degraded",
            SupervisionVerdict::Exhausted => "exhausted",
        })
    }
}

/// Everything a supervised run produces: the final result (if any rung
/// completed), the full attempt history, and the salvage.
#[derive(Debug)]
pub struct SupervisedRun {
    /// One report per attempted rung, in ladder order.
    pub attempts: Vec<RungReport>,
    /// The overall outcome.
    pub verdict: SupervisionVerdict,
    /// Index into `attempts` of the completed rung, if any.
    pub completed_rung: Option<usize>,
    /// The result of the most precise rung that completed.
    pub result: Option<PointsToResult>,
    /// When no rung completed: the partial result with the most facts.
    pub salvaged: Option<PointsToResult>,
    /// How many times the insensitive first pass was computed (0 or 1).
    pub first_pass_runs: usize,
    /// Stats of the shared first pass, when one ran.
    pub first_pass_stats: Option<SolverStats>,
    /// Wall-clock time of the whole supervised run.
    pub total_duration: Duration,
}

impl SupervisedRun {
    /// The analysis name of the final result, if any rung completed.
    pub fn final_analysis(&self) -> Option<&str> {
        self.result.as_ref().map(|r| r.analysis.as_str())
    }

    /// The best result available: complete if possible, salvaged otherwise.
    pub fn best_result(&self) -> Option<&PointsToResult> {
        self.result.as_ref().or(self.salvaged.as_ref())
    }

    /// The process exit code for this run (0/3/4).
    pub fn exit_code(&self) -> u8 {
        self.verdict.exit_code()
    }
}

/// A deadline enforcer: cancels `token` when `deadline` elapses, or when
/// the external token (if any) is cancelled. Disarmed and joined on drop,
/// so a completed rung never leaks a thread or a stale cancellation.
struct Watchdog {
    disarm: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Watchdog {
    fn arm(
        token: CancelToken,
        deadline: Option<Duration>,
        external: Option<CancelToken>,
        tele: crate::telemetry::TelemetryHandle,
    ) -> Self {
        let disarm = Arc::new(AtomicBool::new(false));
        let disarm2 = Arc::clone(&disarm);
        let handle = thread::spawn(move || {
            let start = Instant::now();
            while !disarm2.load(Ordering::Relaxed) {
                if let Some(ext) = &external {
                    if ext.is_cancelled() {
                        if let Some(t) = tele.as_deref() {
                            t.instant("external-cancel", vec![]);
                        }
                        token.cancel();
                        return;
                    }
                }
                let sleep = match deadline {
                    Some(d) => {
                        let remaining = d.saturating_sub(start.elapsed());
                        if remaining.is_zero() {
                            if let Some(t) = tele.as_deref() {
                                t.instant(
                                    "watchdog-fire",
                                    vec![("deadline_ms".to_owned(), d.as_millis().to_string())],
                                );
                            }
                            token.cancel();
                            return;
                        }
                        remaining.min(Duration::from_millis(5))
                    }
                    None => Duration::from_millis(5),
                };
                thread::sleep(sleep);
            }
        });
        Watchdog {
            disarm,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarm.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The shared insensitive first pass across introspective rungs.
enum FirstPass {
    NotRun,
    /// Completed here, or a resident service's warm pass admitted by this
    /// run's budget; every introspective rung shares it through the `Arc`,
    /// so no rung copies the pass.
    Done(Arc<PointsToResult>),
    /// Itself exhausted under the budget: introspective rungs cannot run.
    Exhausted,
}

/// Runs the degradation ladder on `program` and returns the most precise
/// completed result plus the full attempt history.
///
/// This is the orchestration entry point that serving and benchmarking
/// layers should call instead of [`analyze_flavor`]: it never panics on
/// solver capacity failures, never runs unbounded when a budget is set,
/// and always returns *something* — a complete result, a sound degraded
/// result, or the best salvaged partial result.
pub fn supervise(
    program: &Program,
    hierarchy: &ClassHierarchy,
    cfg: &SupervisorConfig,
) -> SupervisedRun {
    let start = Instant::now();
    let tele = cfg.solver.telemetry.clone();
    let _run_span = crate::telemetry::span_opt(&tele, "supervise");
    let external = cfg.solver.cancel.clone();
    let mut attempts: Vec<RungReport> = Vec::new();
    // A warm insensitive pass (resident service) substitutes for the
    // shared first pass when this run's budget would have admitted it;
    // `first_pass_runs` stays 0, which is how tests observe the reuse.
    let mut first_pass = match &cfg.warm_first_pass {
        Some(warm) if warm.outcome.is_complete() && budget_admits(&cfg.budget, &warm.stats) => {
            if let Some(t) = tele.as_deref() {
                t.instant("warm-first-pass-reused", vec![]);
            }
            FirstPass::Done(Arc::clone(warm))
        }
        _ => FirstPass::NotRun,
    };
    let mut first_pass_runs = 0usize;
    let mut first_pass_stats: Option<SolverStats> = None;
    let mut salvaged: Option<PointsToResult> = None;
    let mut completed: Option<(usize, PointsToResult)> = None;

    for (i, rung) in cfg.ladder.rungs.iter().enumerate() {
        if external.as_ref().is_some_and(CancelToken::is_cancelled) {
            break;
        }
        // Exactly one rung-span per *attempted* rung: opened after the
        // cancellation check, and it also covers the exhausted-by-proxy
        // `continue` path below (the guard closes on every loop exit).
        let rung_span = crate::telemetry::span_opt(&tele, "rung");
        if let Some(span) = &rung_span {
            span.arg("index", i);
            span.arg("spec", rung.spec());
        }
        // Fresh token per rung: a watchdog firing on rung i must not
        // instantly cancel rung i+1.
        let rung_token = CancelToken::new();
        // A warm summary table (resident service) is injected into
        // `summaries` rungs; `Flavor::prepare_config` then reuses it
        // instead of recomputing the bottom-up pass.
        let rung_flavor = match &rung.kind {
            RungKind::Direct(flavor) => *flavor,
            RungKind::Introspective { flavor, .. } => *flavor,
        };
        let warm_summaries = (rung_flavor == Flavor::Summaries)
            .then(|| cfg.warm_summaries.clone())
            .flatten();
        if warm_summaries.is_some() {
            if let Some(t) = tele.as_deref() {
                t.instant("warm-summaries-reused", vec![]);
            }
        }
        let rung_config = SolverConfig {
            budget: cfg.budget,
            cancel: Some(rung_token.clone()),
            summaries: warm_summaries,
            ..cfg.solver.clone()
        };
        // The watchdog's token is read only by the solver's per-step stop
        // check, like the solver's own deadline, so it cannot interrupt a
        // stalled step. What it adds is one deadline for the whole rung —
        // pre-pass, first pass and selection included, where the solver's
        // deadline restarts with each solve — and the relay of external
        // cancellation.
        let deadline = cfg.budget.max_duration;
        let _watchdog = (deadline.is_some() || external.is_some())
            .then(|| Watchdog::arm(rung_token.clone(), deadline, external.clone(), tele.clone()));

        let mut ran_first_pass = false;
        let (result, selection_time) = match &rung.kind {
            RungKind::Direct(flavor) => (
                analyze_flavor(program, hierarchy, *flavor, &rung_config),
                None,
            ),
            RungKind::Introspective { flavor, heuristic } => {
                if matches!(first_pass, FirstPass::NotRun) {
                    let fp_span = crate::telemetry::span_opt(&tele, "first-pass");
                    // Only the refined pass feeds a client: the first pass
                    // keeps no per-context dump.
                    let fp_config = SolverConfig {
                        record_contexts: false,
                        ..rung_config.clone()
                    };
                    let fp = analyze(program, hierarchy, &Insensitive, &fp_config);
                    if let Some(span) = &fp_span {
                        span.arg("outcome", format!("{:?}", fp.outcome));
                    }
                    drop(fp_span);
                    first_pass_runs += 1;
                    ran_first_pass = true;
                    first_pass_stats = Some(fp.stats.clone());
                    first_pass = if fp.outcome.is_complete() {
                        FirstPass::Done(Arc::new(fp))
                    } else {
                        // Even the insensitive pass exhausted: keep its
                        // partial facts as salvage and skip the second pass.
                        keep_better_salvage(&mut salvaged, fp);
                        FirstPass::Exhausted
                    };
                }
                match &first_pass {
                    FirstPass::Done(fp) => {
                        let run = analyze_introspective_from(
                            program,
                            hierarchy,
                            *flavor,
                            heuristic.as_dyn(),
                            &rung_config,
                            Arc::clone(fp),
                        );
                        (run.result, Some(run.selection_time))
                    }
                    FirstPass::NotRun | FirstPass::Exhausted => {
                        // Report the rung as exhausted-by-proxy: its
                        // prerequisite could not be computed in budget.
                        attempts.push(RungReport {
                            rung: *rung,
                            analysis: format!(
                                "intro({}+{})",
                                heuristic.letter(),
                                flavor.spec_name()
                            ),
                            outcome: Outcome::BudgetExhausted,
                            exhaustion: salvaged.as_ref().and_then(|s| s.exhaustion),
                            stats: first_pass_stats.clone().unwrap_or_default(),
                            salvaged: salvaged.as_ref().map(SalvagedFacts::of).unwrap_or(
                                SalvagedFacts {
                                    vars_with_facts: 0,
                                    var_pts_tuples: 0,
                                    resolved_call_sites: 0,
                                    reachable_methods: 0,
                                },
                            ),
                            selection_time: None,
                            ran_first_pass,
                        });
                        continue;
                    }
                }
            }
        };

        let report = RungReport {
            rung: *rung,
            analysis: result.analysis.clone(),
            outcome: result.outcome,
            exhaustion: result.exhaustion,
            stats: result.stats.clone(),
            salvaged: SalvagedFacts::of(&result),
            selection_time,
            ran_first_pass,
        };
        let is_complete = result.outcome.is_complete();
        attempts.push(report);
        if is_complete {
            completed = Some((i, result));
            break;
        }
        if let Some(t) = tele.as_deref() {
            t.instant(
                "rung-degraded",
                vec![
                    ("rung".to_owned(), rung.spec()),
                    (
                        "cause".to_owned(),
                        result
                            .exhaustion
                            .map(|c| format!("{c:?}"))
                            .unwrap_or_default(),
                    ),
                ],
            );
        }
        if keep_better_salvage(&mut salvaged, result) {
            if let Some(t) = tele.as_deref() {
                t.instant("salvage-kept", vec![("rung".to_owned(), rung.spec())]);
            }
        }
    }

    let (verdict, completed_rung, result) = match completed {
        Some((0, r)) => (SupervisionVerdict::Complete, Some(0), Some(r)),
        Some((i, r)) => (SupervisionVerdict::Degraded, Some(i), Some(r)),
        None => (SupervisionVerdict::Exhausted, None, None),
    };

    SupervisedRun {
        attempts,
        verdict,
        completed_rung,
        result,
        salvaged: if verdict == SupervisionVerdict::Exhausted {
            salvaged
        } else {
            None
        },
        first_pass_runs,
        first_pass_stats,
        total_duration: start.elapsed(),
    }
}

/// Keeps whichever partial result carries more salvageable facts
/// (projected tuples, then resolved call sites as a tiebreak). Returns
/// whether the candidate replaced the previous best.
fn keep_better_salvage(best: &mut Option<PointsToResult>, candidate: PointsToResult) -> bool {
    let better = match best {
        None => true,
        Some(b) => {
            let (bn, cn) = (SalvagedFacts::of(b), SalvagedFacts::of(&candidate));
            (cn.var_pts_tuples, cn.resolved_call_sites)
                > (bn.var_pts_tuples, bn.resolved_call_sites)
        }
    };
    if better {
        *best = Some(candidate);
    }
    better
}
