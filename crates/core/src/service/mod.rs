//! Analysis-as-a-service: the resident `rudoopd` engine.
//!
//! The batch CLI pays the full load-intern-warm cost on every invocation;
//! a resident service pays it once and then answers queries under
//! per-request budgets. The paper's own framing — introspection as a
//! *defense* against pathological context blowup under a hard resource
//! wall — is an overload-protection story, and this module is where it
//! becomes one literally: every request runs under the
//! [`crate::supervisor`] degradation ladder with its own [`Budget`] and a
//! [`CancelToken`] wired to client disconnect.
//!
//! The layering, bottom to top:
//!
//! - [`protocol`] — length-prefixed single-line JSON frames and the
//!   request/response documents,
//! - [`admission`] — the bounded admission queue: a request is either
//!   *accepted* (it will run) or *shed* with a typed `busy` response and a
//!   `retry_after_ms` hint — never accepted and then dropped,
//! - [`faults`] — the deterministic fault-injection plan (`--inject`)
//!   that lets tests force stalls, garbage frames, truncated responses
//!   and mid-rung cancellations at exact request ordinals,
//! - [`server`] — the TCP listener, per-connection threads, and the
//!   disconnect monitor,
//! - [`client`] — the query client with bounded exponential backoff and
//!   SplitMix64 jitter (deterministic under a seed).
//!
//! Responses reuse the exact renderers the batch CLI prints, so a
//! daemon-served document is byte-identical to batch stdout for the same
//! program, flavor and query — the property the e2e suite pins.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rudoop_ir::{ClassHierarchy, Program, TaintSpec};

use crate::driver::Flavor;
use crate::policy::Insensitive;
use crate::races::supervised_races_traced;
use crate::solver::{analyze, Budget, CancelToken, PointsToResult, SolverConfig};
use crate::stats::{render_dump, render_pts, ResultStats};
use crate::summaries::SummaryTable;
use crate::supervisor::{supervise, LadderSpec, RungKind, SupervisedRun, SupervisorConfig};
use crate::taint::supervised_taint_traced;
use crate::telemetry::TelemetryHandle;

pub mod admission;
pub mod client;
pub mod faults;
pub mod protocol;
pub mod server;

use admission::Admission;
use faults::FaultPlan;
use protocol::{DocFormat, QueryRequest, Response};

/// Everything the daemon decides once at startup.
pub struct ServiceConfig {
    /// Worker slots: at most this many requests analyze concurrently.
    pub workers: usize,
    /// Queue slots: at most this many accepted requests wait for a worker.
    pub queue: usize,
    /// The flavor whose canonical ladder serves queries without an
    /// explicit `ladder` field.
    pub flavor: Flavor,
    /// Explicit default ladder (overrides `flavor`'s canonical one).
    pub ladder: Option<LadderSpec>,
    /// Assign-cast filtering for every request (a per-daemon choice: it
    /// changes the warm first pass).
    pub filter_casts: bool,
    /// Taint specification; `taint` queries error without one.
    pub taint_spec: Option<TaintSpec>,
    /// The deterministic fault-injection plan (empty in production).
    pub faults: FaultPlan,
    /// Service-layer telemetry. Per-request *analysis* telemetry stays
    /// off: the span stack is per-lane and concurrent supervised runs
    /// would interleave on it. The service records its own sequential
    /// spans on per-connection lanes instead.
    pub telemetry: TelemetryHandle,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue: 4,
            flavor: Flavor::OBJ2H,
            ladder: None,
            filter_casts: false,
            taint_spec: None,
            faults: FaultPlan::default(),
            telemetry: None,
        }
    }
}

/// An extension query evaluated over the warm program and a completed
/// points-to result. The daemon binary registers one per extra query kind
/// (e.g. `lints`, which lives above this crate), keeping the core free of
/// upward dependencies.
pub trait QueryHandler: Send + Sync {
    /// Renders the response document for one request.
    fn handle(
        &self,
        program: &Program,
        hierarchy: &ClassHierarchy,
        result: &PointsToResult,
        format: DocFormat,
    ) -> Result<String, String>;
}

/// Monotonic counters the server folds into the deterministic counter
/// stream at shutdown (one push per counter, fixed order — concurrent
/// increments never interleave in the stream).
#[derive(Default)]
pub struct ServiceCounters {
    /// Requests that got a worker slot (immediately or after queueing).
    pub accepted: AtomicU64,
    /// Requests shed with a typed `busy` response.
    pub shed: AtomicU64,
    /// Accepted requests whose ladder verdict was degraded or exhausted.
    pub degraded: AtomicU64,
    /// Summaries-flavored requests that reused the warm summary table.
    pub summary_cache_hits: AtomicU64,
    /// Summaries-flavored requests that had to compute the summary table
    /// (at most 1 per resident program: the table is cached forever).
    pub summary_cache_misses: AtomicU64,
}

impl ServiceCounters {
    /// Pushes the counters into `tele`'s deterministic counter stream in
    /// a fixed order.
    pub fn flush(&self, tele: &TelemetryHandle) {
        if let Some(t) = tele.as_deref() {
            t.counter(
                "service.requests_accepted",
                self.accepted.load(Ordering::Relaxed),
            );
            t.counter("service.requests_shed", self.shed.load(Ordering::Relaxed));
            t.counter(
                "service.requests_degraded",
                self.degraded.load(Ordering::Relaxed),
            );
            t.counter(
                "service.summary_cache_hits",
                self.summary_cache_hits.load(Ordering::Relaxed),
            );
            t.counter(
                "service.summary_cache_misses",
                self.summary_cache_misses.load(Ordering::Relaxed),
            );
        }
    }
}

/// The resident state: the program loaded and interned once, its class
/// hierarchy, the warm insensitive first pass, and the extension query
/// handlers.
pub struct ServiceState {
    /// The program every query runs against.
    pub program: Program,
    /// Its class hierarchy.
    pub hierarchy: ClassHierarchy,
    /// Startup configuration.
    pub config: ServiceConfig,
    /// Service counters (flushed to telemetry at shutdown).
    pub counters: ServiceCounters,
    warm: Option<Arc<PointsToResult>>,
    warm_summary_table: Mutex<Option<Arc<SummaryTable>>>,
    handlers: HashMap<String, Box<dyn QueryHandler>>,
    admission: Admission,
    ordinal: AtomicU64,
}

/// What one executed query produced: the wire response plus the ladder
/// verdict (when the request ran an analysis).
pub struct Executed {
    /// The response to frame back to the client.
    pub response: Response,
    /// True when the ladder completed below its top rung or exhausted.
    pub degraded: bool,
}

impl ServiceState {
    /// Loads the resident state: interns the program, builds the
    /// hierarchy, and warms the insensitive first pass (the pass every
    /// introspective rung needs). The warm pass is computed with the
    /// daemon's solver settings and an unlimited budget, so it is the
    /// same result a cold batch run's completed first pass reaches —
    /// [`SupervisorConfig::warm_first_pass`] only admits it into requests
    /// whose budget it fits, keeping warm and cold runs byte-identical.
    pub fn new(program: Program, config: ServiceConfig) -> ServiceState {
        let hierarchy = ClassHierarchy::new(&program);
        let warm_cfg = SolverConfig {
            filter_casts: config.filter_casts,
            ..SolverConfig::default()
        };
        let warm = analyze(&program, &hierarchy, &Insensitive, &warm_cfg);
        let warm = warm.outcome.is_complete().then(|| Arc::new(warm));
        let admission = Admission::new(config.workers, config.queue);
        ServiceState {
            program,
            hierarchy,
            config,
            counters: ServiceCounters::default(),
            warm,
            warm_summary_table: Mutex::new(None),
            handlers: HashMap::new(),
            admission,
            ordinal: AtomicU64::new(0),
        }
    }

    /// The admission gate.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Registers an extension query handler for `kind` (e.g. `lints`).
    pub fn register_handler(&mut self, kind: &str, handler: Box<dyn QueryHandler>) {
        self.handlers.insert(kind.to_owned(), handler);
    }

    /// Assigns the next global request ordinal (1-based). Every decoded
    /// query consumes one — including queries that are then shed — so
    /// `@req=K` fault specs address requests by arrival order.
    pub fn next_ordinal(&self) -> u64 {
        self.ordinal.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The warm first pass, when the program completed one.
    pub fn warm_first_pass(&self) -> Option<&Arc<PointsToResult>> {
        self.warm.as_ref()
    }

    /// The warm summary table for ladders that contain a `summaries`
    /// rung — the daemon's first *context-sensitive* warm cache.
    ///
    /// The first summaries-flavored request pays the bottom-up SCC pass
    /// (`service.summary_cache_misses`); every later one reuses the table
    /// (`service.summary_cache_hits`). The table is a pure function of
    /// the resident program, so warm and cold runs are byte-identical by
    /// construction. Ladders without a summaries rung return `None`
    /// without touching the cache or its counters.
    pub fn warm_summaries(&self, ladder: &LadderSpec) -> Option<Arc<SummaryTable>> {
        let wants = ladder.rungs.iter().any(|rung| {
            matches!(
                rung.kind,
                RungKind::Direct(Flavor::Summaries)
                    | RungKind::Introspective {
                        flavor: Flavor::Summaries,
                        ..
                    }
            )
        });
        if !wants {
            return None;
        }
        let mut slot = self
            .warm_summary_table
            .lock()
            .expect("summary cache poisoned");
        match &*slot {
            Some(table) => {
                self.counters
                    .summary_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(table))
            }
            None => {
                self.counters
                    .summary_cache_misses
                    .fetch_add(1, Ordering::Relaxed);
                let table = Arc::new(SummaryTable::compute(&self.program, &self.hierarchy));
                *slot = Some(Arc::clone(&table));
                Some(table)
            }
        }
    }

    /// Runs one accepted query under the supervisor and renders its
    /// response document. `cancel` is the per-request token (wired to
    /// client disconnect and to the `cancel-mid-rung` fault).
    pub fn execute(&self, query: &QueryRequest, cancel: CancelToken) -> Executed {
        let ladder = match &query.ladder {
            Some(spec) => match LadderSpec::parse(spec) {
                Ok(l) => l,
                Err(e) => return Executed::error(format!("bad ladder spec: {e}")),
            },
            None => self
                .config
                .ladder
                .clone()
                .unwrap_or_else(|| LadderSpec::default_for(self.config.flavor)),
        };
        let mut budget = Budget::unlimited();
        if let Some(n) = query.budget.derivations {
            budget = budget.and_derivations(n);
        }
        if let Some(n) = query.budget.bytes {
            budget = budget.and_bytes(n);
        }
        if let Some(ms) = query.budget.ms {
            budget = budget.and_duration(Duration::from_millis(ms));
        }
        let warm_summaries = self.warm_summaries(&ladder);
        let cfg = SupervisorConfig {
            ladder,
            budget,
            solver: SolverConfig {
                filter_casts: self.config.filter_casts,
                cancel: Some(cancel),
                // The taint and race clients walk per-context points-to
                // facts — mirror the batch CLI's record_contexts switch
                // so their documents match its output byte for byte.
                record_contexts: matches!(query.kind.as_str(), "taint" | "races"),
                ..SolverConfig::default()
            },
            warm_first_pass: self.warm.clone(),
            warm_summaries,
        };
        let run = supervise(&self.program, &self.hierarchy, &cfg);
        // The degraded flag tracks the ladder verdict, not the rendering:
        // a cancelled run that has nothing to render still counts.
        let degraded = run.exit_code() != 0;
        let doc = match self.render_doc(query, &run) {
            Ok(doc) => doc,
            Err(message) => {
                return Executed {
                    response: Response::Error { message },
                    degraded,
                }
            }
        };
        Executed {
            response: Response::Doc {
                status: run.verdict.to_string(),
                exit_code: run.exit_code(),
                analysis: run.final_analysis().map(str::to_owned),
                doc,
            },
            degraded,
        }
    }

    /// Renders the document for a completed run — the exact bytes the
    /// batch CLI prints on stdout for the same query.
    fn render_doc(&self, query: &QueryRequest, run: &SupervisedRun) -> Result<String, String> {
        let none = TelemetryHandle::default();
        match query.kind.as_str() {
            "taint" => {
                let spec = self
                    .config
                    .taint_spec
                    .as_ref()
                    .ok_or("daemon started without --taint-spec; taint queries unavailable")?;
                let taint = supervised_taint_traced(&self.program, spec, run, &none);
                Ok(match query.format {
                    DocFormat::Json => crate::taint::render_json(&self.program, &taint),
                    DocFormat::Text => crate::taint::render_text(&self.program, &taint),
                })
            }
            "races" => {
                let races = supervised_races_traced(&self.program, run, &none);
                Ok(match query.format {
                    DocFormat::Json => crate::races::render_json(&self.program, &races),
                    DocFormat::Text => crate::races::render_text(&races),
                })
            }
            "stats" => {
                let result = run.best_result().ok_or(
                    "no facts to report: every rung \
                     exhausted before salvaging anything",
                )?;
                Ok(ResultStats::compute(&self.program, result, 10).render(&self.program))
            }
            "dump" => {
                let result = run.best_result().ok_or(
                    "no facts to report: every rung \
                     exhausted before salvaging anything",
                )?;
                Ok(render_dump(&self.program, result))
            }
            "pts" => {
                let var = query.var.as_deref().ok_or("pts query requires a var")?;
                let result = run.best_result().ok_or(
                    "no facts to report: every rung \
                     exhausted before salvaging anything",
                )?;
                render_pts(&self.program, result, var)
                    .ok_or_else(|| format!("no variable matches {var:?}"))
            }
            other => {
                let handler = self
                    .handlers
                    .get(other)
                    .ok_or_else(|| format!("unknown query kind {other:?}"))?;
                let result = run.result.as_ref().ok_or(
                    "analysis did not complete: \
                     extension queries need a completed rung",
                )?;
                handler.handle(&self.program, &self.hierarchy, result, query.format)
            }
        }
    }
}

impl Executed {
    fn error(message: String) -> Executed {
        Executed {
            response: Response::Error { message },
            degraded: false,
        }
    }
}
