//! Regenerates `EXPERIMENTS.md`: the paper's Figure 1, the Figure 4
//! table, the Figure 5–7 grids and the §4 overhead accounting, plus the
//! cut-shortcut / summaries head-to-head, as paper-vs-measured tables.
//!
//! Run with: `cargo run --release --example reproduce [out.md]`
//!
//! Every analysis runs under one derivation budget, the deterministic
//! stand-in for the paper's 90-minute timeout, so the derivation,
//! percentage and precision cells are identical on every host; only the
//! two-decimal seconds cells vary from run to run. Wall-clock medians and
//! per-layer times are `perfbench/run.py`'s job, not this file's.

use std::fmt::Write as _;
use std::time::Duration;

use rudoop::analysis::driver::{analyze_flavor, analyze_introspective_from, Flavor};
use rudoop::analysis::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic, RefinementStats};
use rudoop::analysis::solver::{Budget, PointsToResult, SolverConfig};
use rudoop::analysis::{IntrospectionMetrics, PrecisionMetrics};
use rudoop::ir::{ClassHierarchy, Program};
use rudoop::workloads::{dacapo, WorkloadSpec};

/// The standard derivation budget, playing the role of the paper's
/// 90-minute timeout on a 24 GB machine.
const BUDGET: u64 = 30_000_000;

/// One analysis configuration of the evaluation grid.
#[derive(Clone, Copy)]
enum Variant {
    /// A plain single-pass analysis (`insens` included).
    Full(Flavor),
    /// Introspective with Heuristic A (paper constants).
    IntroA(Flavor),
    /// Introspective with Heuristic B (paper constants).
    IntroB(Flavor),
}

const INSENS: Variant = Variant::Full(Flavor::Insensitive);

/// One measured cell of an evaluation figure.
struct Run {
    analysis: String,
    complete: bool,
    derivations: u64,
    /// Wall-clock of the final pass (the second, for introspective runs).
    duration: Duration,
    precision: PrecisionMetrics,
    /// Metric computation plus selection time (introspective runs only).
    selection: Option<Duration>,
}

/// A built benchmark with its shared context-insensitive first pass.
struct Bench {
    name: String,
    program: Program,
    hierarchy: ClassHierarchy,
    insens: PointsToResult,
}

fn config() -> SolverConfig {
    SolverConfig {
        budget: Budget::derivations(BUDGET),
        ..SolverConfig::default()
    }
}

impl Bench {
    fn new(spec: WorkloadSpec) -> Self {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let insens = analyze_flavor(&program, &hierarchy, Flavor::Insensitive, &config());
        Bench {
            name: spec.name,
            program,
            hierarchy,
            insens,
        }
    }

    /// Runs `variant`; introspective variants reuse the shared first pass,
    /// as the paper's §4 discussion describes.
    fn run(&self, variant: Variant) -> Run {
        let (p, h) = (&self.program, &self.hierarchy);
        let (analysis, result, selection) = match variant {
            Variant::Full(flavor) => (
                flavor.spec_name(),
                analyze_flavor(p, h, flavor, &config()),
                None,
            ),
            Variant::IntroA(flavor) | Variant::IntroB(flavor) => {
                let (suffix, heuristic): (_, Box<dyn RefinementHeuristic>) = match variant {
                    Variant::IntroA(_) => ("IntroA", Box::new(HeuristicA::default())),
                    _ => ("IntroB", Box::new(HeuristicB::default())),
                };
                let run = analyze_introspective_from(
                    p,
                    h,
                    flavor,
                    heuristic.as_ref(),
                    &config(),
                    self.insens.clone(),
                );
                (
                    format!("{}-{suffix}", flavor.spec_name()),
                    run.result,
                    Some(run.selection_time),
                )
            }
        };
        Run {
            analysis,
            complete: result.outcome.is_complete(),
            derivations: result.stats.derivations,
            duration: result.stats.duration,
            precision: PrecisionMetrics::compute(p, h, &result),
            selection,
        }
    }
}

fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

fn mega(n: u64) -> String {
    format!("{:.1}M", n as f64 / 1e6)
}

/// Derivations, or `>BUDGET` for the paper's non-terminating bars.
fn cost_cell(run: &Run) -> String {
    if run.complete {
        mega(run.derivations)
    } else {
        format!(">{}", mega(BUDGET))
    }
}

/// A precision cell: absent for budget-exhausted runs, like the paper's
/// missing precision bars.
fn precision_cell(run: &Run, value: impl ToString) -> String {
    if run.complete {
        value.to_string()
    } else {
        "-".to_owned()
    }
}

fn md_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(out, "|{}|", vec!["---"; headers.len()].join("|"));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    let _ = writeln!(out);
}

/// One table of a grid: a row per benchmark, a column per variant.
fn grid_table(
    out: &mut String,
    title: &str,
    grid: &[(&Bench, Vec<Run>)],
    cell: fn(&Run) -> String,
) {
    let _ = writeln!(out, "**{title}**");
    let _ = writeln!(out);
    let mut headers = vec!["benchmark"];
    headers.extend(grid[0].1.iter().map(|r| r.analysis.as_str()));
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|(bench, runs)| {
            let mut row = vec![bench.name.clone()];
            row.extend(runs.iter().map(cell));
            row
        })
        .collect();
    md_table(out, &headers, &rows);
}

/// Figures 5–7: the insens / IntroA / IntroB / full grid for one flavor
/// over the hard six, as a cost table and three precision tables.
fn family_section(out: &mut String, fig: &str, flavor: Flavor, hard_six: &[&Bench]) {
    let grid: Vec<(&Bench, Vec<Run>)> = hard_six
        .iter()
        .map(|&b| {
            let variants = [
                INSENS,
                Variant::IntroA(flavor),
                Variant::IntroB(flavor),
                Variant::Full(flavor),
            ];
            (b, variants.map(|v| b.run(v)).into())
        })
        .collect();
    grid_table(
        out,
        &format!(
            "{fig} — cost (derivations; `>…` = budget exhausted, the paper's non-terminating bars)"
        ),
        &grid,
        cost_cell,
    );
    grid_table(
        out,
        &format!("{fig} — calls that cannot be devirtualized (lower = more precise)"),
        &grid,
        |r| precision_cell(r, r.precision.polymorphic_call_sites),
    );
    grid_table(out, &format!("{fig} — reachable methods"), &grid, |r| {
        precision_cell(r, r.precision.reachable_methods)
    });
    grid_table(
        out,
        &format!("{fig} — reachable casts that may fail"),
        &grid,
        |r| precision_cell(r, r.precision.casts_may_fail),
    );

    let timeouts: Vec<String> = grid
        .iter()
        .flat_map(|(b, runs)| {
            runs.iter()
                .filter(|r| !r.complete)
                .map(|r| format!("{} under {}", b.name, r.analysis))
        })
        .collect();
    let _ = writeln!(
        out,
        "Budget-exhausted cells ({} family): {}.",
        flavor.spec_name(),
        if timeouts.is_empty() {
            "none".to_owned()
        } else {
            timeouts.join(", ")
        }
    );
    let _ = writeln!(out);
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "EXPERIMENTS.md".to_owned());
    let nine: Vec<Bench> = dacapo::all_nine().into_iter().map(Bench::new).collect();
    let pick = |specs: Vec<WorkloadSpec>| -> Vec<&Bench> {
        specs
            .iter()
            .map(|s| {
                nine.iter()
                    .find(|b| b.name == s.name)
                    .expect("one of the nine")
            })
            .collect()
    };
    let hard_six = pick(dacapo::hard_six());

    let mut out = String::new();
    let _ = writeln!(out, "# Experiments: paper vs. measured");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Regenerated by `cargo run --release --example reproduce`.\n\
         Standard budget: {} derivations (the deterministic stand-in for the\n\
         paper's 90-minute / 24 GB timeout — see DESIGN.md). Absolute numbers are\n\
         not comparable to the paper's (different substrate, different machine,\n\
         synthetic workloads); *shapes* are: which analyses scale on which\n\
         benchmarks, who wins, and by roughly what factor.",
        mega(BUDGET)
    );
    let _ = writeln!(out);

    // ---------------- Figure 1 ----------------
    eprintln!("figure 1...");
    let _ = writeln!(out, "## Figure 1 — insens vs 2objH, nine benchmarks");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: insensitive times vary little; 2objH explodes on hsqldb and jython\n\
         (non-termination at 90 min) while most others finish in minutes."
    );
    let _ = writeln!(out);
    let mut rows = Vec::new();
    let mut insens_range = (u64::MAX, 0u64);
    let mut objh_timeouts = Vec::new();
    for bench in &nine {
        let base = bench.run(INSENS);
        let obj = bench.run(Variant::Full(Flavor::OBJ2H));
        insens_range = (
            insens_range.0.min(base.derivations),
            insens_range.1.max(base.derivations),
        );
        if !obj.complete {
            objh_timeouts.push(bench.name.clone());
        }
        rows.push(vec![
            bench.name.clone(),
            cost_cell(&base),
            secs(base.duration),
            cost_cell(&obj),
            if obj.complete {
                secs(obj.duration)
            } else {
                "timeout".into()
            },
        ]);
    }
    md_table(
        &mut out,
        &[
            "benchmark",
            "insens derivs",
            "insens s",
            "2objH derivs",
            "2objH s",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "Measured: insens spans {}–{}; 2objH exhausts the budget on: {}.",
        mega(insens_range.0),
        mega(insens_range.1),
        objh_timeouts.join(", ")
    );
    let _ = writeln!(out);

    // ---------------- Figure 4 ----------------
    eprintln!("figure 4...");
    let _ = writeln!(out, "## Figure 4 — elements selected to NOT be refined");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper averages: Heuristic A ≈ 21.8% of call sites / 14.4% of objects;\n\
         Heuristic B ≈ 1.2% of call sites / 9.0% of objects."
    );
    let _ = writeln!(out);
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    let seven = pick(dacapo::figure4_seven());
    for bench in &seven {
        let (p, insens) = (&bench.program, &bench.insens);
        let metrics = IntrospectionMetrics::compute(p, insens);
        let a = HeuristicA::default().select(p, &metrics, insens);
        let b = HeuristicB::default().select(p, &metrics, insens);
        let sa = RefinementStats::compute(p, insens, &a);
        let sb = RefinementStats::compute(p, insens, &b);
        let cells = [
            sa.call_site_pct(),
            sb.call_site_pct(),
            sa.object_pct(),
            sb.object_pct(),
        ];
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
        let mut row = vec![bench.name.clone()];
        row.extend(cells.iter().map(|c| format!("{c:.1} %")));
        rows.push(row);
    }
    let n = seven.len() as f64;
    let mut average = vec!["**average**".to_owned()];
    average.extend(sums.iter().map(|s| format!("{:.2} %", s / n)));
    rows.push(average);
    md_table(
        &mut out,
        &[
            "benchmark",
            "call sites A",
            "call sites B",
            "objects A",
            "objects B",
        ],
        &rows,
    );

    // ---------------- Figures 5-7 ----------------
    for (fig, flavor, paper) in [
        (
            "Figure 5",
            Flavor::OBJ2H,
            "2objH times out on hsqldb and jython; IntroB also times out on jython; \
             IntroA scales to all benchmarks; IntroB keeps ≥ 2/3 of 2objH's precision gain.",
        ),
        (
            "Figure 6",
            Flavor::TYPE2H,
            "2typeH times out only on jython; IntroB scales to all with near-full precision; \
             IntroA has near-perfect scalability with smaller gains.",
        ),
        (
            "Figure 7",
            Flavor::CALL2H,
            "2callH times out on 4 of 6 (all but chart and eclipse); IntroA scales to all; \
             IntroB to 5 of 6 (not jython) and matches full 2callH precision where it runs.",
        ),
    ] {
        let name = flavor.spec_name();
        eprintln!("{fig} ({name})...");
        let _ = writeln!(out, "## {fig} — the {name} family");
        let _ = writeln!(out);
        let _ = writeln!(out, "Paper: {paper}");
        let _ = writeln!(out);
        family_section(&mut out, fig, flavor, &hard_six);
    }

    // ---------------- Overheads ----------------
    eprintln!("overhead...");
    let _ = writeln!(out, "## §4 Discussion — introspection overheads");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper: pass-1 + selection overheads are ~constant (~100 s) per benchmark\n\
         and are factored out of the figures; they amortize to once per benchmark."
    );
    let _ = writeln!(out);
    let rows: Vec<Vec<String>> = hard_six
        .iter()
        .map(|bench| {
            let run = bench.run(Variant::IntroA(Flavor::OBJ2H));
            vec![
                bench.name.clone(),
                secs(bench.insens.stats.duration),
                secs(run.selection.expect("introspective")),
                secs(run.duration),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["benchmark", "pass 1 (s)", "selection (s)", "pass 2 (s)"],
        &rows,
    );

    // ---------------- Pre-analysis head-to-head ----------------
    eprintln!("cut-shortcut / summaries head-to-head...");
    let _ = writeln!(
        out,
        "## Beyond the paper — cut-shortcut and summaries vs introspection, head-to-head"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "The `cutshortcut` flavor (DESIGN.md §13) attacks the same\n\
         scalability/precision trade-off as introspection from the opposite\n\
         end: instead of selectively *disabling* context where it would\n\
         explode, it keeps **no** context at all and recovers precision with\n\
         a flow-graph pre-analysis that cuts interprocedural flow through\n\
         transparent identity/setter/getter callees, replacing it with\n\
         caller-side shortcut edges. The `summaries` flavor (DESIGN.md §14)\n\
         takes a third route: a bottom-up pass over the condensed call graph\n\
         distills returning methods to chain-safe summary atoms, and the\n\
         context-free main pass instantiates those atoms at call sites\n\
         instead of joining through `ret` variables. Cost below is\n\
         derivations of the single pass (introspective columns exclude the\n\
         shared first pass, as in the figures above; the cutshortcut and\n\
         summaries columns likewise exclude their flow-graph/distillation\n\
         pre-analyses); precision pairs are `polymorphic virtual calls /\n\
         casts that may fail` (lower = more precise). Derivations count\n\
         work, not time: wall-clock medians for insens, cutshortcut and\n\
         summaries come from the `perfbench` workload `context-free`\n\
         (`first_pass.s`, `solve.cutshortcut_s`, `solve.summaries_s`, and\n\
         the pre-analyses `cutshortcut.pass_s` and `summaries.pass_s`)."
    );
    let _ = writeln!(out);
    let variants = [
        INSENS,
        Variant::Full(Flavor::CutShortcut),
        Variant::Full(Flavor::Summaries),
        Variant::Full(Flavor::OBJ2H),
        Variant::IntroA(Flavor::OBJ2H),
        Variant::IntroB(Flavor::OBJ2H),
    ];
    let grid: Vec<(&Bench, Vec<Run>)> = nine
        .iter()
        .map(|b| (b, variants.map(|v| b.run(v)).into()))
        .collect();
    let count = |pred: fn(&[Run]) -> bool| grid.iter().filter(|(_, runs)| pred(runs)).count();
    let cut_cheaper_than_obj = count(|r| r[1].derivations < r[3].derivations);
    let cut_more_precise_than_insens = count(|r| {
        r[1].precision.casts_may_fail < r[0].precision.casts_may_fail
            && r[1].precision.polymorphic_call_sites < r[0].precision.polymorphic_call_sites
    });
    let sum_cheaper_than_obj = count(|r| r[2].derivations < r[3].derivations);
    let sum_cheaper_than_insens = count(|r| r[2].derivations < r[0].derivations);
    let total = grid.len();
    grid_table(
        &mut out,
        "cost (derivations; `>…` = budget exhausted)",
        &grid,
        cost_cell,
    );
    grid_table(
        &mut out,
        "precision (polymorphic virtual calls / casts that may fail)",
        &grid,
        |r| {
            let p = &r.precision;
            precision_cell(
                r,
                format!("{} / {}", p.polymorphic_call_sites, p.casts_may_fail),
            )
        },
    );
    let _ = writeln!(
        out,
        "Measured: cutshortcut needs fewer derivations than 2objH on\n\
         {cut_cheaper_than_obj}/{total} benchmarks and is strictly more precise than\n\
         insens (both clients) on {cut_more_precise_than_insens}/{total}; summaries needs\n\
         fewer derivations than 2objH on {sum_cheaper_than_obj}/{total} and does less\n\
         main-pass work than plain insens (fewer derivations — distilled\n\
         `ret` joins are replaced by direct atom edges) on {sum_cheaper_than_insens}/{total}. The\n\
         differential suites (`crates/datalog/tests/cutshortcut_differential.rs`,\n\
         `crates/datalog/tests/summaries_differential.rs`) pin both engines\n\
         byte-identical to their Datalog reference models with the soundness\n\
         chains `pts/leaks/races(2objH) ⊆ pts/leaks/races(cutshortcut|summaries)\n\
         ⊆ pts/leaks/races(insens)`."
    );
    let _ = writeln!(out);

    std::fs::write(&out_path, &out).expect("write EXPERIMENTS.md");
    eprintln!("wrote {out_path}");
}
