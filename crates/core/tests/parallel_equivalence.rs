//! Engine-equivalence suite: the sharded parallel propagation engine must
//! be *observationally identical* to the sequential solver — not "same
//! modulo ordering", but byte-identical canonical stats, projections,
//! exhaustion outcomes, and taint leak sets at every thread count, on the
//! DaCapo-shaped workloads across the context-sensitivity spectrum.
//!
//! This is the contract that makes `--threads` safe to flip on anywhere:
//! reproducibility tests, golden fixtures, and the supervisor's
//! budget-driven degradation ladder all keep working because the parallel
//! engine never produces an answer the sequential solver wouldn't.

use rudoop_core::driver::{analyze_flavor, analyze_introspective, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use rudoop_core::solver::{analyze, Budget, PointsToResult, SolverConfig};
use rudoop_core::{analyze_taint, Parallelism};
use rudoop_ir::{ClassHierarchy, Program, TaintSpec};
use rudoop_workloads::dacapo;

fn config(threads: usize, budget: Budget, record: bool) -> SolverConfig {
    SolverConfig {
        budget,
        record_contexts: record,
        parallelism: Parallelism::threads(threads),
        ..SolverConfig::default()
    }
}

/// Every observable except wall-clock time and the per-shard work split
/// must match.
fn assert_same(tag: &str, seq: &PointsToResult, par: &PointsToResult) {
    assert_eq!(seq.analysis, par.analysis, "{tag}: analysis name");
    assert_eq!(seq.outcome, par.outcome, "{tag}: outcome");
    assert_eq!(seq.exhaustion, par.exhaustion, "{tag}: exhaustion cause");
    assert_eq!(
        seq.stats.canonical(),
        par.stats.canonical(),
        "{tag}: canonical stats"
    );
    assert_eq!(seq.var_pts, par.var_pts, "{tag}: var projections");
    assert_eq!(seq.field_pts, par.field_pts, "{tag}: field projections");
    assert_eq!(seq.global_pts, par.global_pts, "{tag}: global projections");
    assert_eq!(seq.call_targets, par.call_targets, "{tag}: call graph");
    assert_eq!(
        seq.reachable_methods, par.reachable_methods,
        "{tag}: reachable methods"
    );
}

fn check_flavor(program: &Program, name: &str, flavor: Flavor, budget: Budget, threads: &[usize]) {
    check_flavor_config(program, name, flavor, &config(1, budget, false), threads);
}

/// [`check_flavor`] from an arbitrary sequential configuration: each
/// sharded run differs from it only in the thread count.
fn check_flavor_config(
    program: &Program,
    name: &str,
    flavor: Flavor,
    base: &SolverConfig,
    threads: &[usize],
) {
    let hierarchy = ClassHierarchy::new(program);
    let seq = analyze_flavor(program, &hierarchy, flavor, base);
    for &t in threads {
        let par_config = SolverConfig {
            parallelism: Parallelism::threads(t),
            ..base.clone()
        };
        let par = analyze_flavor(program, &hierarchy, flavor, &par_config);
        assert_same(&format!("{name}/{flavor:?}/t{t}"), &seq, &par);
    }
}

fn check_introspective(
    program: &Program,
    name: &str,
    heuristic: &dyn RefinementHeuristic,
    budget: Budget,
    threads: &[usize],
) {
    let hierarchy = ClassHierarchy::new(program);
    let seq = analyze_introspective(
        program,
        &hierarchy,
        Flavor::OBJ2H,
        heuristic,
        &config(1, budget, false),
    );
    for &t in threads {
        let par = analyze_introspective(
            program,
            &hierarchy,
            Flavor::OBJ2H,
            heuristic,
            &config(t, budget, false),
        );
        let tag = format!("{name}/intro{}/t{t}", heuristic.label());
        assert_same(&tag, &seq.result, &par.result);
        assert_eq!(
            seq.refinement_stats, par.refinement_stats,
            "{tag}: refinement selection"
        );
    }
}

/// The cut-shortcut flavor also completes unbudgeted everywhere (it costs
/// about what the insensitive baseline costs). Its caller-side shortcut
/// loads/stores are registered at coordinator barriers, so this pins the
/// sharded engine's cut handling to the sequential solver's.
#[test]
fn cutshortcut_is_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        check_flavor(
            &program,
            &spec.name,
            Flavor::CutShortcut,
            Budget::unlimited(),
            &[2, 4],
        );
    }
}

/// The summaries flavor completes unbudgeted everywhere (it costs about
/// what the insensitive baseline costs). Both layers are exercised at
/// once: the bottom-up table is computed level-parallel when `--threads`
/// is set, and the atoms are instantiated at coordinator barriers in the
/// sharded engine — stats, projections, and exit conditions must still be
/// byte-identical to the fully sequential run at every thread count.
#[test]
fn summaries_are_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        check_flavor(
            &program,
            &spec.name,
            Flavor::Summaries,
            Budget::unlimited(),
            &[2, 4, 8],
        );
    }
}

/// The insensitive baseline completes unbudgeted everywhere: pure
/// complete-fixpoint equivalence over all nine workloads.
#[test]
fn insensitive_is_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        check_flavor(
            &program,
            &spec.name,
            Flavor::Insensitive,
            Budget::unlimited(),
            &[2, 4],
        );
    }
}

/// Assign-cast filtering adds cast-filtered copy edges, which the sharded
/// engine drains on their own path; insens and budgeted `2objH` with
/// filtering on must match the sequential solver on all nine workloads.
#[test]
fn filtered_casts_are_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        let name = format!("{}/filter-casts", spec.name);
        for (flavor, budget) in [
            (Flavor::Insensitive, Budget::unlimited()),
            (Flavor::OBJ2H, Budget::derivations(150_000)),
        ] {
            let base = SolverConfig {
                filter_casts: true,
                ..config(1, budget, false)
            };
            check_flavor_config(&program, &name, flavor, &base, &[2, 4]);
        }
    }
}

/// `2objH` under a uniform derivation budget: the easy workloads complete,
/// the explosive ones exhaust — and both outcomes (including the exact
/// exhaustion point) must be engine-invariant.
#[test]
fn two_obj_h_is_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        check_flavor(
            &program,
            &spec.name,
            Flavor::OBJ2H,
            Budget::derivations(150_000),
            &[2, 4],
        );
    }
}

/// Both introspective heuristics over `2objH` (two sharded passes plus an
/// engine-invariant refinement selection in between).
#[test]
fn introspective_heuristics_are_identical_on_all_nine() {
    for spec in dacapo::all_nine() {
        let program = spec.build();
        check_introspective(
            &program,
            &spec.name,
            &HeuristicA::default(),
            Budget::derivations(150_000),
            &[2],
        );
        check_introspective(
            &program,
            &spec.name,
            &HeuristicB::default(),
            Budget::derivations(150_000),
            &[2],
        );
    }
}

/// High thread counts (more shards than cores) on well-behaved workloads,
/// unbudgeted, across the whole flavor spectrum.
#[test]
fn eight_shards_match_on_well_behaved_workloads() {
    for spec in [dacapo::antlr(), dacapo::pmd()] {
        let program = spec.build();
        for flavor in [Flavor::Insensitive, Flavor::OBJ2H] {
            check_flavor(&program, &spec.name, flavor, Budget::unlimited(), &[8]);
        }
        check_introspective(
            &program,
            &spec.name,
            &HeuristicA::default(),
            Budget::unlimited(),
            &[8],
        );
        check_introspective(
            &program,
            &spec.name,
            &HeuristicB::default(),
            Budget::unlimited(),
            &[8],
        );
    }
}

/// Budget exhaustion must stop at the *same derivation* regardless of the
/// thread count — the sharded engine detects the overrun, discards its
/// attempt, and replays sequentially, so partial facts match exactly.
#[test]
fn budget_exhaustion_point_is_engine_invariant() {
    let program = dacapo::hsqldb().build();
    let hierarchy = ClassHierarchy::new(&program);
    for budget in [60_000u64, 123_456] {
        let seq = analyze_flavor(
            &program,
            &hierarchy,
            Flavor::OBJ2H,
            &config(1, Budget::derivations(budget), false),
        );
        assert!(
            seq.outcome.is_partial(),
            "budget {budget} must bite on hsqldb/2objH"
        );
        for t in [2, 4, 8] {
            let par = analyze_flavor(
                &program,
                &hierarchy,
                Flavor::OBJ2H,
                &config(t, Budget::derivations(budget), false),
            );
            assert_same(&format!("hsqldb/2objH/budget{budget}/t{t}"), &seq, &par);
        }
    }
}

/// Taint leak sets — and the rendered shortest-derivation traces, which
/// depend on context numbering — must be byte-identical across engines.
#[test]
fn taint_leaks_and_traces_are_engine_invariant() {
    for mut spec in [dacapo::antlr(), dacapo::lusearch(), dacapo::pmd()] {
        spec.taint_flows = spec.taint_flows.max(1);
        let program = spec.build();
        let taint_spec =
            TaintSpec::parse(rudoop_workloads::WorkloadSpec::TAINT_SPEC_TEXT, &program)
                .expect("canonical spec resolves");
        let hierarchy = ClassHierarchy::new(&program);
        let seq = analyze_flavor(
            &program,
            &hierarchy,
            Flavor::OBJ2H,
            &config(1, Budget::unlimited(), true),
        );
        let seq_taint = analyze_taint(&program, &taint_spec, &seq).expect("complete run");
        for t in [2, 4, 8] {
            let par = analyze_flavor(
                &program,
                &hierarchy,
                Flavor::OBJ2H,
                &config(t, Budget::unlimited(), true),
            );
            let par_taint = analyze_taint(&program, &taint_spec, &par).expect("complete run");
            let tag = format!("{}/taint/t{t}", spec.name);
            assert_eq!(seq_taint.leak_set(), par_taint.leak_set(), "{tag}: leaks");
            assert_eq!(
                seq_taint.sanitizer_calls, par_taint.sanitizer_calls,
                "{tag}: sanitizer witnesses"
            );
            assert_eq!(
                seq_taint.sanitized_sources, par_taint.sanitized_sources,
                "{tag}: sanitized sources"
            );
            for (ls, lp) in seq_taint.leaks.iter().zip(&par_taint.leaks) {
                assert_eq!(ls.trace, lp.trace, "{tag}: trace");
                assert_eq!(ls.heap_steps, lp.heap_steps, "{tag}: heap steps");
                assert_eq!(
                    ls.merged_heap_step, lp.merged_heap_step,
                    "{tag}: merged step"
                );
            }
        }
    }
}

/// Race witnesses — thread labels, per-thread shortest traces, guard and
/// escape observations — must be byte-identical across engines. This is
/// the renumbering-twin check for the race client: the parallel engine
/// discovers contexts in a different order, so raw context ids differ
/// between runs, and only the canonical content-ranked numbering keeps
/// witness selection (which breaks ties by context rank) stable.
#[test]
fn race_witnesses_and_traces_are_engine_invariant() {
    for mut spec in [dacapo::antlr(), dacapo::pmd()] {
        spec.concurrency = 2;
        let program = spec.build();
        let hierarchy = ClassHierarchy::new(&program);
        let seq = analyze_flavor(
            &program,
            &hierarchy,
            Flavor::OBJ2H,
            &config(1, Budget::unlimited(), true),
        );
        let seq_races = rudoop_core::analyze_races(&program, &seq).expect("complete run");
        assert!(
            !seq_races.races.is_empty(),
            "{}: concurrency battery must race",
            spec.name
        );
        for t in [2, 4, 8] {
            let par = analyze_flavor(
                &program,
                &hierarchy,
                Flavor::OBJ2H,
                &config(t, Budget::unlimited(), true),
            );
            let par_races = rudoop_core::analyze_races(&program, &par).expect("complete run");
            let tag = format!("{}/races/t{t}", spec.name);
            assert_eq!(seq_races.races, par_races.races, "{tag}: witnesses");
            assert_eq!(seq_races.threads, par_races.threads, "{tag}: threads");
            assert_eq!(
                seq_races.access_sites, par_races.access_sites,
                "{tag}: access sites"
            );
            assert_eq!(
                seq_races.guarded_sites, par_races.guarded_sites,
                "{tag}: guarded sites"
            );
            assert_eq!(
                seq_races.suspect_guards, par_races.suspect_guards,
                "{tag}: suspect guards"
            );
            assert_eq!(
                seq_races.dead_regions, par_races.dead_regions,
                "{tag}: dead regions"
            );
            assert_eq!(seq_races.escapes, par_races.escapes, "{tag}: escapes");
        }
    }
}

/// Two runs of the *same* parallel configuration must agree with each
/// other (schedule independence), not just with the sequential engine.
#[test]
fn parallel_runs_are_schedule_independent() {
    let program = dacapo::antlr().build();
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = config(4, Budget::unlimited(), true);
    let a = analyze(
        &program,
        &hierarchy,
        &rudoop_core::ObjectSensitive::new(2, 1),
        &cfg,
    );
    let b = analyze(
        &program,
        &hierarchy,
        &rudoop_core::ObjectSensitive::new(2, 1),
        &cfg,
    );
    assert_same("antlr/2obj/rerun", &a, &b);
    assert_eq!(
        a.shard_work, b.shard_work,
        "even the per-shard work split is deterministic"
    );
}

/// The `scale` workload knob feeds the sharded engine bigger programs out
/// of the same recipes; equivalence must hold there too. The hub patterns
/// grow quadratically with `scale`, so the run is derivation-budgeted:
/// what this checks is that partitioning a 50k-instruction program over
/// four shards reproduces the sequential exhaustion point exactly.
#[test]
fn scaled_workload_matches_across_engines() {
    let mut spec = dacapo::antlr();
    spec.scale = 14;
    let program = spec.build();
    assert!(
        program.instruction_count() >= 50_000,
        "scale 14 antlr should clear 50k instructions, got {}",
        program.instruction_count()
    );
    check_flavor(
        &program,
        "antlr@14",
        Flavor::Insensitive,
        Budget::derivations(150_000),
        &[4],
    );
}
