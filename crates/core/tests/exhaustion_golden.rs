//! Exact-order golden test for budget-exhausted runs.
//!
//! A run that stops on its derivation budget keeps exactly the tuples the
//! solver derived first, so its partial result pins the *order* in which
//! the propagation engine derives them, not just the fixpoint. Every
//! differential suite compares completed runs (or, for the sharded
//! engine, replays exhaustion on the sequential solver), so none of them
//! notices a change of propagation order; this test does. It runs antlr
//! and bloat under `2objH` and `2objH-IntroB` at several derivation stop
//! points and pins each run's canonical stats plus a digest of every
//! context-sensitive tuple, in the order the solver recorded it.
//!
//! The expected table is `tests/fixtures/exhaustion_golden.tsv`. To
//! refresh it after an intentional change of propagation order, set
//! `UPDATE_GOLDEN=1` and re-run.

use std::fmt::Write as _;
use std::path::PathBuf;

use rudoop_core::driver::{analyze_flavor, analyze_introspective_from, Flavor};
use rudoop_core::heuristics::HeuristicB;
use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, Budget, CsDump, PointsToResult, SolverConfig};
use rudoop_ir::ClassHierarchy;
use rudoop_workloads::dacapo;

/// Derivation budgets: the first two stop antlr's `2objH` solve part-way,
/// all of them stop bloat's, and the last lets antlr complete.
const BUDGETS: [u64; 4] = [50_000, 200_000, 1_000_000, 5_000_000];

/// FNV-1a over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A digest of every recorded tuple, relation by relation, in recording
/// order.
fn dump_digest(dump: &CsDump) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(dump.var_points_to().count() as u32);
    for (v, c, a, hc) in dump.var_points_to() {
        [v.0, c.0, a.0, hc.0].into_iter().for_each(|w| h.word(w));
    }
    h.word(dump.field_points_to().count() as u32);
    for (b, bc, f, a, hc) in dump.field_points_to() {
        [b.0, bc.0, f.0, a.0, hc.0]
            .into_iter()
            .for_each(|w| h.word(w));
    }
    h.word(dump.call_graph().count() as u32);
    for (i, c, m, mc) in dump.call_graph() {
        [i.0, c.0, m.0, mc.0].into_iter().for_each(|w| h.word(w));
    }
    h.word(dump.reachable().count() as u32);
    for (m, c) in dump.reachable() {
        [m.0, c.0].into_iter().for_each(|w| h.word(w));
    }
    h.0
}

fn row(out: &mut String, program: &str, flavor: &str, budget: &str, r: &PointsToResult) {
    let s = r.stats.canonical();
    let dump = r.cs_dump.as_ref().expect("contexts are recorded");
    writeln!(
        out,
        "{program}\t{flavor}\t{budget}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
        r.outcome,
        s.derivations,
        s.cs_var_points_to,
        s.cs_field_points_to,
        s.call_graph_edges,
        s.reachable_contexts,
        s.contexts,
        s.heap_contexts,
        s.nodes,
        s.edges,
        dump_digest(dump),
    )
    .unwrap();
}

fn config(budget: Budget) -> SolverConfig {
    SolverConfig {
        budget,
        record_contexts: true,
        ..SolverConfig::default()
    }
}

/// The whole table: per program, the unbudgeted insensitive first pass,
/// then `2objH` and `2objH-IntroB` (refined from that first pass) at each
/// budget.
fn table() -> String {
    let mut out = String::from(
        "program\tflavor\tbudget\toutcome\tderivations\tcs_var\tcs_field\tcall_edges\t\
         reachable\tcontexts\theap_contexts\tnodes\tedges\tdump_digest\n",
    );
    for spec in [dacapo::antlr(), dacapo::bloat()] {
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let first = analyze(
            &program,
            &hierarchy,
            &Insensitive,
            &config(Budget::unlimited()),
        );
        row(&mut out, &spec.name, "insens", "-", &first);
        for n in BUDGETS {
            let budget = Budget::derivations(n);
            let obj = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config(budget));
            row(&mut out, &spec.name, "2objH", &n.to_string(), &obj);
            let intro = analyze_introspective_from(
                &program,
                &hierarchy,
                Flavor::OBJ2H,
                &HeuristicB::default(),
                &config(budget),
                first.clone(),
            );
            row(
                &mut out,
                &spec.name,
                &intro.result.analysis,
                &n.to_string(),
                &intro.result,
            );
        }
    }
    out
}

#[test]
fn exhausted_runs_keep_their_exact_stop_points() {
    let actual = table();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/exhaustion_golden.tsv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    // Row by row, so a failure names the run whose stop point moved.
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "a run's stop point or derivation order changed");
    }
    assert_eq!(actual, expected, "the run table changed shape");
    // The table must exercise what it claims: runs stopped by the budget.
    assert!(
        expected.contains("\tBudgetExhausted\t") && expected.contains("\tComplete\t"),
        "the budgets no longer straddle the stop points"
    );
}
