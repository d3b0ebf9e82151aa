//! The `service` workload: the real `rudoopd` daemon, serving `@pmd` with
//! the taint and race batteries on, driven by a closed loop of two
//! connections from this process through a fixed seeded script.
//!
//! Set-up is the time from spawning the daemon until its port file
//! appears, which covers program generation, validation and the warm
//! insensitive first pass; it is timed in samples of consecutive start-ups
//! and the median sample's time per start-up reported. Every
//! response is compared byte for byte with the batch document for the same
//! query, computed in this process before the timed script starts.

use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rudoop_analyses::{LintContext, LintRegistry};
use rudoop_core::driver::Flavor;
use rudoop_core::races::supervised_races;
use rudoop_core::service::protocol::{
    self, BudgetSpec, DocFormat, QueryRequest, Request, Response, MAX_RESPONSE_FRAME,
};
use rudoop_core::stats::{render_dump, render_pts, ResultStats};
use rudoop_core::taint::supervised_taint;
use rudoop_core::{supervise, Budget, LadderSpec, SolverConfig, SupervisorConfig};
use rudoop_ir::rng::SplitMix64;
use rudoop_ir::{ClassHierarchy, Program, TaintSpec};

use crate::{geomean, median, peak_rss_mb, quantile, Args, Report, END_TO_END, PER_LAYER};

/// Closed-loop clients, one connection each.
const CONNECTIONS: usize = 2;
/// Set-up samples per run, each of `STARTS_PER_SAMPLE` consecutive daemon
/// start-ups (spawn to port file; the shutdowns between them are not
/// timed). One start-up takes 40–60 ms, too short to time on its own; a
/// sample takes about 0.2 s. `SETUP_SAMPLES_BEFORE` samples precede the
/// script and the rest follow it: every start-up is a fresh process, and
/// the host's speed drifts over seconds, so a median over both ends of the
/// run follows it less than one over its first second.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLES_BEFORE: usize = 3;
const STARTS_PER_SAMPLE: usize = 4;
/// The tight per-request derivation budget: `2objH` and `introB:2objH`
/// exhaust it on `pmd`, `introA:2objH` completes, so the request degrades.
const TIGHT_BUDGET: u64 = 300_000;

/// The ladders the script mixes, with their shares of each block.
const LADDERS: &[(Option<&str>, Option<u64>, usize)] = &[
    // The default 2objH ladder: a cold 2objH solve per request.
    (None, None, 3),
    // The warm summary table after the first request.
    (Some("summaries"), None, 3),
    // Introspective first rung: reuses the warm first pass.
    (Some("introA:2objH,insens"), None, 3),
    // Degrades to introA under the tight budget.
    (None, Some(TIGHT_BUDGET), 1),
];

const KINDS: &[&str] = &["stats", "pts", "dump", "taint", "races", "lints"];

/// Blocks per script. A block holds every (ladder share, kind) pair once:
/// 10 × 6 = 60 requests, so a script is 300 requests, 30 beyond p90.
const BLOCKS: usize = 5;

struct Resident {
    program: Program,
    hierarchy: ClassHierarchy,
    taint: TaintSpec,
}

/// The seeded request script: `blocks` copies of every (ladder share,
/// kind) pair, so every seed asks for the same work, in a seeded order
/// and with seeded `pts` variables.
fn script(program: &Program, seed: u64, blocks: usize) -> Vec<QueryRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5e41_ce00_0000);
    let vars: Vec<String> = (0..4)
        .map(|_| program.var_display(rudoop_ir::VarId(rng.below(program.vars.len()) as u32)))
        .collect();
    let mut requests = Vec::new();
    for _ in 0..blocks {
        for &(ladder, budget, share) in LADDERS {
            for _ in 0..share {
                for &kind in KINDS {
                    requests.push(QueryRequest {
                        kind: kind.to_owned(),
                        var: (kind == "pts").then(|| vars[rng.below(vars.len())].clone()),
                        format: if matches!(kind, "taint" | "races" | "lints") {
                            DocFormat::Json
                        } else {
                            DocFormat::Text
                        },
                        ladder: ladder.map(str::to_owned),
                        budget: BudgetSpec {
                            derivations: budget,
                            ..BudgetSpec::default()
                        },
                    });
                }
            }
        }
    }
    // Fisher-Yates.
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.below(i + 1));
    }
    requests
}

/// The batch document for `q`: a cold supervised run rendered by the same
/// functions the batch CLIs print with. Returns the exit code and the doc.
fn batch_doc(r: &Resident, q: &QueryRequest) -> Result<(u8, String), String> {
    let ladder = match &q.ladder {
        Some(spec) => LadderSpec::parse(spec)?,
        None => LadderSpec::default_for(Flavor::OBJ2H),
    };
    let cfg = SupervisorConfig {
        ladder,
        budget: q
            .budget
            .derivations
            .map_or(Budget::unlimited(), Budget::derivations),
        solver: SolverConfig {
            record_contexts: matches!(q.kind.as_str(), "taint" | "races"),
            ..SolverConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let (p, h) = (&r.program, &r.hierarchy);
    let run = supervise(p, h, &cfg);
    let best = || run.best_result().ok_or("no facts to report");
    let doc = match q.kind.as_str() {
        "taint" => rudoop_core::taint::render_json(p, &supervised_taint(p, &r.taint, &run)),
        "races" => rudoop_core::races::render_json(p, &supervised_races(p, &run)),
        "stats" => ResultStats::compute(p, best()?, 10).render(p),
        "dump" => render_dump(p, best()?),
        "pts" => {
            let var = q.var.as_deref().ok_or("pts without a var")?;
            render_pts(p, best()?, var).ok_or("no such var")?
        }
        "lints" => {
            let result = run.result.as_ref().ok_or("no completed rung")?;
            let diags = LintRegistry::with_defaults().run(&LintContext {
                program: p,
                hierarchy: h,
                points_to: Some(result),
                taint: None,
                races: None,
            });
            rudoop_analyses::render_json(p, &diags)
        }
        other => return Err(format!("unknown kind {other}")),
    };
    Ok((run.exit_code(), doc))
}

/// A spawned daemon; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns `rudoopd` and waits for its port file; returns the daemon and
/// the time from spawn to port file.
fn spawn(args: &Args, program: &str, telemetry: bool, n: usize) -> Result<(Daemon, f64), String> {
    let port_file = args.run_dir.join(format!("rudoopd-{n}.port"));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(&args.rudoopd);
    cmd.arg(format!("@{program}"))
        .args(["--taint-spec", "builtin", "--races", "--workers", "2"])
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if telemetry {
        cmd.arg("--telemetry").stderr(Stdio::piped());
    } else {
        cmd.stderr(Stdio::null());
    }
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", args.rudoopd.display()))?;
    let mut daemon = Daemon {
        child,
        addr: String::new(),
    };
    loop {
        if let Some(addr) = read_port_file(&port_file) {
            daemon.addr = addr;
            return Ok((daemon, start.elapsed().as_secs_f64()));
        }
        if let Ok(Some(status)) = daemon.child.try_wait() {
            return Err(format!("rudoopd exited before listening: {status}"));
        }
        if start.elapsed() > Duration::from_secs(60) {
            return Err("rudoopd did not write its port file within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn read_port_file(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.parse::<std::net::SocketAddr>().ok().map(|_| text)
}

/// Stops the daemon with a `shutdown` request and waits for it; returns
/// its stderr (the telemetry summary, when it was spawned with it).
fn shutdown(mut d: Daemon) -> Result<String, String> {
    let ack = rudoop_core::service::client::send_once(&d.addr, &Request::Shutdown)?;
    if ack != Response::Ok {
        return Err(format!("shutdown not acknowledged: {ack:?}"));
    }
    let mut stderr = String::new();
    if let Some(mut pipe) = d.child.stderr.take() {
        pipe.read_to_string(&mut stderr)
            .map_err(|e| format!("read rudoopd stderr: {e}"))?;
    }
    let status = d.child.wait().map_err(|e| format!("wait rudoopd: {e}"))?;
    if !status.success() {
        return Err(format!("rudoopd exited with {status}"));
    }
    Ok(stderr)
}

/// One request as the client saw it.
struct Sample {
    latency_ms: f64,
    send_ms: f64,
    first_byte_ms: f64,
    read_ms: f64,
    bytes: usize,
    /// `None` when the response matched the batch document.
    failure: Option<String>,
}

/// Sends one request on `stream` and reads the response; with `split`, it
/// also times the send, the wait for the first byte and the read.
fn exchange(
    stream: &mut TcpStream,
    payload: &[u8],
    split: bool,
) -> Result<(Sample, Vec<u8>), String> {
    let t0 = Instant::now();
    protocol::write_frame(stream, payload).map_err(|e| format!("send: {e}"))?;
    let (mut t1, mut t2) = (t0, t0);
    if split {
        t1 = Instant::now();
        let mut first = [0u8; 1];
        stream
            .peek(&mut first)
            .map_err(|e| format!("receive: {e}"))?;
        t2 = Instant::now();
    }
    let body =
        protocol::read_frame(stream, MAX_RESPONSE_FRAME).map_err(|e| format!("receive: {e}"))?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok((
        Sample {
            latency_ms: ms(t0, t3),
            send_ms: ms(t0, t1),
            first_byte_ms: ms(t1, t2),
            read_ms: ms(t2, t3),
            bytes: body.len() + 4,
            failure: None,
        },
        body,
    ))
}

fn check(body: &[u8], want: &Result<(u8, String), String>) -> Option<String> {
    let want = match want {
        Ok(w) => w,
        Err(e) => return Some(format!("batch document unavailable: {e}")),
    };
    match Response::parse(body) {
        Ok(Response::Doc { exit_code, doc, .. }) => {
            if exit_code == 4 {
                Some("exhausted".into())
            } else if exit_code != want.0 {
                Some(format!("exit code {exit_code}, batch {}", want.0))
            } else if doc != want.1 {
                Some(format!(
                    "document differs from batch ({} vs {} bytes)",
                    doc.len(),
                    want.1.len()
                ))
            } else {
                None
            }
        }
        Ok(other) => Some(format!("response {other:?}")),
        Err(e) => Some(format!("bad response frame: {e}")),
    }
}

/// Runs the script through `CONNECTIONS` closed-loop clients; returns the
/// samples in script order and the wall time.
fn drive(
    addr: &str,
    requests: &[(Vec<u8>, usize)],
    expected: &[Result<(u8, String), String>],
    split: bool,
) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<(usize, Sample)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    stream.set_nodelay(true).ok();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((payload, key)) = requests.get(i) else {
                            break;
                        };
                        let (mut sample, body) = exchange(&mut stream, payload, split)?;
                        sample.failure = check(&body, &expected[*key]);
                        out.push((i, sample));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for conn in per_conn {
        samples.extend(conn?);
    }
    samples.sort_by_key(|s| s.0);
    Ok((samples.into_iter().map(|s| s.1).collect(), wall))
}

/// The value of `name = N` in the daemon's telemetry summary.
fn telemetry_counter(summary: &str, name: &str) -> f64 {
    summary
        .lines()
        .find_map(|l| {
            l.trim()
                .strip_prefix(name)?
                .trim()
                .strip_prefix('=')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let name = "pmd";
    let blocks = if args.tiny { 1 } else { BLOCKS };
    let (before, after, per_sample) = if args.tiny {
        (1, 1, 1)
    } else {
        (
            SETUP_SAMPLES_BEFORE,
            SETUP_SAMPLES - SETUP_SAMPLES_BEFORE,
            STARTS_PER_SAMPLE,
        )
    };
    std::fs::create_dir_all(&args.run_dir)
        .map_err(|e| format!("{}: {e}", args.run_dir.display()))?;

    // What `rudoopd @pmd --taint-spec builtin --races` resides on.
    let (program, taint) = rudoop::cli::load_program(&format!("@{name}"), true, true)?;
    let resident = Resident {
        hierarchy: ClassHierarchy::new(&program),
        taint: taint.expect("the builtin taint spec of a @benchmark"),
        program,
    };

    // The script and its batch documents, outside every timed region.
    let queries = script(&resident.program, args.seed, blocks);
    let mut keys: HashMap<String, usize> = HashMap::new();
    let mut expected = Vec::new();
    let mut requests = Vec::new();
    let mut classes = Vec::new();
    for q in queries {
        classes.push(class(&q));
        let wire = Request::Query(q.clone()).render();
        let key = *keys.entry(wire.clone()).or_insert_with(|| {
            expected.push(batch_doc(&resident, &q));
            expected.len() - 1
        });
        requests.push((wire.into_bytes(), key));
    }

    // Set-up: every daemon but the last is stopped again; the last one
    // serves the script.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut starts = 0;
    for _ in 0..before {
        let mut sample = 0.0;
        for _ in 0..per_sample {
            if let Some(d) = daemon.take() {
                shutdown(d)?;
            }
            let (d, s) = spawn(args, name, false, starts)?;
            starts += 1;
            sample += s;
            daemon = Some(d);
        }
        setup_s.push(sample / per_sample as f64);
    }
    let mut daemon = daemon.expect("at least one start-up");

    let mut report = Report::default();
    let mut values: HashMap<String, f64> = HashMap::new();
    let (samples, wall) = drive(&daemon.addr, &requests, &expected, false)?;
    if args.trace {
        // The untraced script above is the baseline; the traced one runs on
        // a fresh daemon with its telemetry on and the client split timed.
        shutdown(daemon)?;
        let (d, _) = spawn(args, name, true, starts)?;
        daemon = d;
        let (traced, traced_wall) = drive(&daemon.addr, &requests, &expected, true)?;
        let col = |f: fn(&Sample) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
        values.insert("service.send_ms".into(), median(&col(|s| s.send_ms)));
        values.insert(
            "service.first_byte_ms".into(),
            median(&col(|s| s.first_byte_ms)),
        );
        values.insert("service.read_ms".into(), median(&col(|s| s.read_ms)));
        values.insert(
            "service.response_bytes".into(),
            traced.iter().map(|s| s.bytes as f64).sum(),
        );
        values.insert("trace.wall_s".into(), traced_wall);
        values.insert("trace.overhead_s".into(), traced_wall - wall);
        let busy: f64 = col(|s| s.latency_ms).iter().sum::<f64>() / 1e3;
        values.insert(
            "trace.remainder_s".into(),
            traced_wall - busy / CONNECTIONS as f64,
        );
        values.insert(
            "trace.peak_rss_mb".into(),
            peak_rss_mb(&daemon.child.id().to_string())?,
        );
        tally(&mut report, &traced, &requests);
        let summary = shutdown(daemon)?;
        let c = |k: &str| telemetry_counter(&summary, k);
        let lookups = c("service.summary_cache_hits") + c("service.summary_cache_misses");
        let accepted = c("service.requests_accepted");
        values.insert(
            "service.summary_cache_hit_frac".into(),
            if lookups > 0.0 {
                c("service.summary_cache_hits") / lookups
            } else {
                0.0
            },
        );
        values.insert(
            "service.degraded_frac".into(),
            if accepted > 0.0 {
                c("service.requests_degraded") / accepted
            } else {
                0.0
            },
        );
        tally(&mut report, &samples, &requests);
        report.set_metrics(PER_LAYER, &values);
    } else {
        let rss = peak_rss_mb(&daemon.child.id().to_string())?;
        shutdown(daemon)?;
        for _ in 0..after {
            let mut sample = 0.0;
            for _ in 0..per_sample {
                let (d, s) = spawn(args, name, false, starts)?;
                starts += 1;
                sample += s;
                shutdown(d)?;
            }
            setup_s.push(sample / per_sample as f64);
        }
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        values.insert("setup_s".into(), median(&setup_s));
        values.insert("wall_s".into(), wall);
        values.insert("job_geomean_ms".into(), geomean(&latencies));
        values.insert("request_p50_ms".into(), quantile(&latencies, 0.5));
        values.insert("request_p90_ms".into(), quantile(&latencies, 0.9));
        values.insert("peak_rss_mb".into(), rss);
        let beyond = latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize;
        eprintln!("setup_s per sample: {setup_s:.5?}");
        eprintln!(
            "samples: setup_s={} samples of {per_sample} daemon start-ups, requests={} \
             ({} beyond p90), distinct queries={}",
            setup_s.len(),
            latencies.len(),
            beyond,
            expected.len()
        );
        let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for (s, q) in samples.iter().zip(&classes) {
            by_class.entry(q.clone()).or_default().push(s.latency_ms);
        }
        for (class, xs) in &by_class {
            eprintln!("  {class:<40} n={:<3} p50={:.1} ms", xs.len(), median(xs));
        }
        tally(&mut report, &samples, &requests);
        report.set_metrics(END_TO_END, &values);
    }
    Ok(report)
}

/// `kind ladder` of a request, for the per-class latency report.
fn class(q: &QueryRequest) -> String {
    let ladder = match (&q.ladder, q.budget.derivations) {
        (Some(l), _) => l.as_str(),
        (None, Some(_)) => "default, tight budget",
        (None, None) => "default",
    };
    format!("{} [{ladder}]", q.kind)
}

fn tally(report: &mut Report, samples: &[Sample], requests: &[(Vec<u8>, usize)]) {
    for (s, (payload, _)) in samples.iter().zip(requests) {
        report.attempted += 1;
        if let Some(why) = &s.failure {
            report.fail(format!("{}: {why}", String::from_utf8_lossy(payload)));
        }
    }
}
