//! The rudoop benchmark harness: one process per run, one workload per
//! process, results as a single JSON line on stdout.
//!
//! ```text
//! rudoop-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  --rudoopd PATH --run-dir DIR --expected FILE
//!                  [--size full|tiny] [--setup-sample N]
//! ```
//!
//! `perfbench/run.py` builds this binary and `rudoopd`, then runs it. See
//! `perfbench/README.md` for the workloads, metrics and checks. With
//! `--setup-sample N`, the process only loads a batch workload's programs
//! N times and prints the time per load: a batch run starts such children
//! to sample `setup_s` in fresh processes.

mod batch;
mod service;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub rudoopd: PathBuf,
    pub run_dir: PathBuf,
    pub expected: PathBuf,
    pub setup_sample: Option<usize>,
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_geomean_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer that does not run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.build_s", "s"),
    ("load.validate_s", "s"),
    ("load.hierarchy_s", "s"),
    ("load.instructions", "count"),
    ("first_pass.s", "s"),
    ("first_pass.derivations", "count"),
    ("introspection.metrics_s", "s"),
    ("introspection.select_s", "s"),
    ("introspection.not_refined_frac", "ratio"),
    ("cutshortcut.pass_s", "s"),
    ("cutshortcut.cut_points", "count"),
    ("cutshortcut.methods_cut_frac", "ratio"),
    ("summaries.pass_s", "s"),
    ("summaries.distilled_frac", "ratio"),
    ("summaries.atoms", "count"),
    ("solve.2objH_s", "s"),
    ("solve.introA_s", "s"),
    ("solve.introB_s", "s"),
    ("solve.insens_s", "s"),
    ("solve.cutshortcut_s", "s"),
    ("solve.summaries_s", "s"),
    ("solve.derivations", "count"),
    ("solve.derivations_per_s", "1/s"),
    ("solve.contexts", "count"),
    ("solve.project_s", "s"),
    ("solve.bytes_estimate_mb", "MB"),
    ("clients.precision_s", "s"),
    ("taint.s", "s"),
    ("taint.leaks", "count"),
    ("races.s", "s"),
    ("races.races", "count"),
    ("lints.s", "s"),
    ("lints.diagnostics", "count"),
    ("render.s", "s"),
    ("render.bytes", "bytes"),
    ("service.send_ms", "ms"),
    ("service.first_byte_ms", "ms"),
    ("service.read_ms", "ms"),
    ("service.response_bytes", "bytes"),
    ("service.summary_cache_hit_frac", "ratio"),
    ("service.degraded_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.peak_rss_mb", "MB"),
];

/// What a run prints as its last line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions, printed to stderr (the first few).
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Fills the metric list from `values` in the order of `schema`
    /// (`END_TO_END` or `PER_LAYER`); names absent from `values` read 0.
    pub fn set_metrics(&mut self, schema: &[(&str, &'static str)], values: &HashMap<String, f64>) {
        self.metrics = schema
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_owned(),
                    values.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect();
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("rudoop-perfbench: {msg}");
    eprintln!(
        "usage: rudoop-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         --rudoopd PATH --run-dir DIR --expected FILE [--size full|tiny] \
         [--setup-sample N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let get = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut rudoopd, mut run_dir, mut expected) = (None, None, None);
    let (mut tiny, mut setup_sample) = (false, None);
    while let Some(flag) = it.next() {
        let value = get(&flag, &mut it);
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--rudoopd" => rudoopd = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            "--expected" => expected = Some(PathBuf::from(value)),
            "--size" => tiny = value == "tiny",
            "--setup-sample" => {
                setup_sample = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--setup-sample must be positive")),
                )
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
        rudoopd: rudoopd.unwrap_or_else(|| usage("--rudoopd is required")),
        run_dir: run_dir.unwrap_or_else(|| usage("--run-dir is required")),
        expected: expected.unwrap_or_else(|| usage("--expected is required")),
        setup_sample,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(n) = args.setup_sample {
        let Some(workload) = batch::Workload::parse(&args.workload) else {
            usage("--setup-sample needs a batch workload");
        };
        return match batch::setup_sample(workload, &args, n) {
            Ok(per_load) => {
                println!("{per_load:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rudoop-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match args.workload.as_str() {
        "service" => service::run(&args),
        name => match batch::Workload::parse(name) {
            Some(workload) => batch::run(workload, &args),
            None => usage(&format!("unknown workload {name:?}")),
        },
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rudoop-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for why in report.failures.iter().take(20) {
        eprintln!("FAILED: {why}");
    }
    eprintln!(
        "ops: attempted={} failed={} fail_frac={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The nearest-rank `q`-quantile of `xs` (0 for an empty slice): always a
/// measured sample, never an interpolation between two unlike jobs.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The geometric mean of positive `xs` (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// FNV-1a over a stream of `u64` words: the projection digests compared
/// against `expected.tsv`.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
