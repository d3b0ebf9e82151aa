//! Sequential-vs-sharded benchmark: measures wall-clock time of the
//! parallel propagation engine against the sequential solver and writes
//! `BENCH_parallel.json` (schema below) to the current directory.
//!
//! Run with: `cargo run --release --example bench_parallel [out.json]`
//!
//! Every run asserts canonical-stats equality against the sequential
//! reference before its time is recorded, so the file doubles as an
//! equivalence receipt. Each configuration is timed `REPEATS` times with
//! telemetry off, thread counts alternating within each round, and the
//! median is reported; one extra traced run per sharded configuration
//! supplies the epoch profile. `host_cpus` records what the host could
//! actually parallelize: with one CPU the threads time-slice one core and
//! pay the epoch-barrier overhead, so no speedup is possible.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rudoop::analysis::driver::{analyze_flavor, Flavor};
use rudoop::analysis::solver::{Budget, SolverConfig};
use rudoop::analysis::{Parallelism, Telemetry, TelemetryHandle};
use rudoop::ir::ClassHierarchy;
use rudoop::workloads::dacapo;

struct Run {
    workload: String,
    scale: usize,
    flavor: &'static str,
    threads: usize,
    seconds: f64,
    derivations: u64,
    imbalance: Option<f64>,
    speedup_vs_seq: f64,
    epoch_p50_us: Option<u64>,
    epoch_p95_us: Option<u64>,
    barrier_wait_frac: Option<f64>,
}

/// p50/p95 over the per-epoch durations and the fraction of epoch time
/// spent inside coordinator barriers (routing + bookkeeping), from the
/// run's telemetry spans. All `None` for sequential runs (no epochs).
fn epoch_profile(tele: &TelemetryHandle) -> (Option<u64>, Option<u64>, Option<f64>) {
    let Some(t) = tele.as_deref() else {
        return (None, None, None);
    };
    let spans = t.spans();
    let mut epochs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "epoch")
        .map(|s| s.dur_us())
        .collect();
    if epochs.is_empty() {
        return (None, None, None);
    }
    epochs.sort_unstable();
    let pct = |q: f64| epochs[((epochs.len() - 1) as f64 * q).round() as usize];
    let barrier: u64 = spans
        .iter()
        .filter(|s| s.name == "barrier")
        .map(|s| s.dur_us())
        .sum();
    let total: u64 = epochs.iter().sum();
    let frac = if total > 0 {
        barrier as f64 / total as f64
    } else {
        0.0
    };
    (Some(pct(0.5)), Some(pct(0.95)), Some(frac))
}

/// Timed runs per configuration.
const REPEATS: usize = 5;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".to_owned());
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut runs: Vec<Run> = Vec::new();

    const INSENS: (Flavor, &str) = (Flavor::Insensitive, "insens");
    const OBJ2H: (Flavor, &str) = (Flavor::OBJ2H, "2objH");
    let scaled_antlr = {
        let mut s = dacapo::antlr();
        s.scale = 4;
        s
    };
    let cases = vec![
        (dacapo::antlr(), 1, vec![INSENS, OBJ2H]),
        (dacapo::lusearch(), 1, vec![INSENS, OBJ2H]),
        (dacapo::pmd(), 1, vec![INSENS, OBJ2H]),
        (dacapo::bloat(), 1, vec![OBJ2H]),
        (dacapo::xalan(), 1, vec![OBJ2H]),
        (scaled_antlr, 4, vec![INSENS, OBJ2H]),
    ];
    const THREADS: [usize; 3] = [1, 2, 4];

    for (spec, scale, flavors) in cases {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        for (flavor, name) in flavors {
            let run = |threads: usize, tele: TelemetryHandle| {
                let config = SolverConfig {
                    budget: Budget::unlimited(),
                    parallelism: Parallelism::threads(threads),
                    telemetry: tele,
                    ..SolverConfig::default()
                };
                let start = Instant::now();
                let result = analyze_flavor(&program, &hierarchy, flavor, &config);
                let seconds = start.elapsed().as_secs_f64();
                assert!(
                    result.outcome.is_complete(),
                    "{}/{name} must complete",
                    spec.name
                );
                (result, seconds)
            };
            let mut seq_stats = None;
            let mut times: Vec<Vec<f64>> = vec![Vec::new(); THREADS.len()];
            let mut last = Vec::new();
            for round in 0..REPEATS {
                for (k, &threads) in THREADS.iter().enumerate() {
                    let (result, seconds) = run(threads, None);
                    let canonical = result.stats.canonical();
                    match &seq_stats {
                        None => seq_stats = Some(canonical),
                        Some(reference) => assert_eq!(
                            reference, &canonical,
                            "{}/{name}/t{threads}: engines disagree",
                            spec.name
                        ),
                    }
                    times[k].push(seconds);
                    if round + 1 == REPEATS {
                        last.push(result);
                    }
                }
            }
            let seq_time = median(&mut times[0]);
            for (k, &threads) in THREADS.iter().enumerate() {
                let result = &last[k];
                let seconds = median(&mut times[k]);
                let imbalance = result.shard_work.as_ref().map(|work| {
                    let max = *work.iter().max().unwrap_or(&0) as f64;
                    let mean = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
                    if mean > 0.0 {
                        max / mean
                    } else {
                        1.0
                    }
                });
                println!(
                    "{:<10} scale={} {:<7} threads={}  {:>8.3}s  {:>10} derivations  speedup {:.2}x",
                    spec.name,
                    scale,
                    name,
                    threads,
                    seconds,
                    result.stats.derivations,
                    seq_time / seconds
                );
                let tele: TelemetryHandle = (threads > 1).then(|| Arc::new(Telemetry::new()));
                if tele.is_some() {
                    run(threads, tele.clone());
                }
                let (epoch_p50_us, epoch_p95_us, barrier_wait_frac) = epoch_profile(&tele);
                runs.push(Run {
                    workload: spec.name.clone(),
                    scale,
                    flavor: name,
                    threads,
                    seconds,
                    derivations: result.stats.derivations,
                    imbalance,
                    speedup_vs_seq: seq_time / seconds,
                    epoch_p50_us,
                    epoch_p95_us,
                    barrier_wait_frac,
                });
            }
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"note\": \"seconds is the median wall-clock of {REPEATS} untraced runs per \
         configuration (thread counts alternating within each round); epoch_* and \
         barrier_wait_frac come from one extra traced run; every run is asserted \
         byte-identical (canonical stats) to its sequential reference; sustained speedup > 1 \
         at threads > 1 requires host_cpus > 1\","
    );
    json.push_str("  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let imbalance = match r.imbalance {
            Some(x) => format!("{x:.3}"),
            None => "null".to_owned(),
        };
        let opt_u64 = |v: Option<u64>| v.map_or("null".to_owned(), |x| x.to_string());
        let frac = match r.barrier_wait_frac {
            Some(x) => format!("{x:.4}"),
            None => "null".to_owned(),
        };
        let _ = write!(
            json,
            "\n    {{\"workload\":\"{}\",\"scale\":{},\"flavor\":\"{}\",\"threads\":{},\
             \"seconds\":{:.4},\"derivations\":{},\"imbalance\":{},\"speedup_vs_seq\":{:.3},\
             \"epoch_p50_us\":{},\"epoch_p95_us\":{},\"barrier_wait_frac\":{}}}",
            r.workload,
            r.scale,
            r.flavor,
            r.threads,
            r.seconds,
            r.derivations,
            imbalance,
            r.speedup_vs_seq,
            opt_u64(r.epoch_p50_us),
            opt_u64(r.epoch_p95_us),
            frac
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
}
