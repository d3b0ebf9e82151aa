//! Supervisor integration tests: the degradation ladder end to end.
//!
//! The scenario mirrors the paper's evaluation shape in miniature: a
//! program on which full `2objH` blows past the budget (a hub method
//! called on many distinct receiver objects, each context replicating a
//! large points-to set), while introspective refinement — which analyzes
//! exactly the hub insensitively — completes comfortably.

use rudoop_core::driver::{analyze_flavor, Flavor};
use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, Budget, CancelToken, ExhaustionCause, Outcome, SolverConfig};
use rudoop_core::supervisor::{
    supervise, LadderSpec, RungKind, SupervisionVerdict, SupervisorConfig,
};
use rudoop_ir::{ClassHierarchy, Program, ProgramBuilder};

/// A hub/fan-out program: `mixer` aggregates `objs` allocation sites and
/// is fed to `consume` on `receivers` distinct receiver objects. Under
/// `2objH` each receiver context replicates the mixer's points-to set
/// (`receivers × objs` tuples); insensitively it exists once. The mixer's
/// set exceeds Heuristic A's `method_max_var_field_pts` cutoff (200), so
/// introspective-A analyzes `consume` insensitively and stays cheap.
fn hub_program(receivers: usize, objs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let hub = b.class("Hub", Some(obj));
    let f = b.field(hub, "f");
    let consume = b.method(hub, "consume", &["x"], false);
    {
        let this = b.this(consume);
        let x = b.param(consume, 0);
        let y = b.var(consume, "y");
        b.store(consume, this, f, x);
        b.load(consume, y, this, f);
        b.ret(consume, y);
    }
    let main = b.method(obj, "main", &[], true);
    let mixer = b.var(main, "mixer");
    for i in 0..objs {
        let v = b.var(main, &format!("o{i}"));
        b.alloc(main, v, obj);
        b.mov(main, mixer, v);
    }
    for i in 0..receivers {
        let r = b.var(main, &format!("r{i}"));
        b.alloc(main, r, hub);
        b.vcall(main, None, r, "consume", &[mixer]);
    }
    b.entry(main);
    b.finish()
}

/// A budget between the introspective-A cost and the full `2objH` cost of
/// [`hub_program`]`(100, 250)`, established by the cost asserts in
/// [`ladder_degrades_to_introspective`].
const LADDER_BUDGET: u64 = 60_000;

#[test]
fn ladder_degrades_to_introspective() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);

    // Sanity-check the scenario itself: full 2objH must cost more than
    // the budget, the insensitive pass far less.
    let unbounded = SolverConfig::default();
    let full = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &unbounded);
    assert!(
        full.stats.derivations > LADDER_BUDGET,
        "2objH too cheap for the scenario: {}",
        full.stats.derivations
    );
    let insens = analyze(&program, &hierarchy, &Insensitive, &unbounded);
    assert!(
        insens.stats.derivations < LADDER_BUDGET * 3 / 4,
        "insens too costly for the scenario: {}",
        insens.stats.derivations
    );

    let cfg = SupervisorConfig {
        ladder: LadderSpec::default_for(Flavor::OBJ2H),
        budget: Budget::derivations(LADDER_BUDGET),
        solver: SolverConfig::default(),
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);

    // Rung 0 (2objH) exhausts; a later introspective rung completes.
    assert_eq!(run.attempts[0].rung.spec(), "2objH");
    assert_eq!(run.attempts[0].outcome, Outcome::BudgetExhausted);
    assert_eq!(
        run.attempts[0].exhaustion,
        Some(ExhaustionCause::Derivations)
    );
    assert_eq!(run.verdict, SupervisionVerdict::Degraded);
    let completed = run.completed_rung.expect("a rung completed");
    assert!(completed > 0);
    assert!(matches!(
        run.attempts[completed].rung.kind,
        RungKind::Introspective { .. }
    ));
    assert_eq!(run.attempts[completed].outcome, Outcome::Complete);
    assert!(run.result.is_some());
    assert_eq!(run.exit_code(), 3);

    // The insensitive first pass ran exactly once, shared across the
    // introspective rungs, and matches an independent insensitive run's
    // derivation count.
    assert_eq!(run.first_pass_runs, 1);
    let fp_stats = run.first_pass_stats.as_ref().expect("first pass ran");
    assert_eq!(fp_stats.derivations, insens.stats.derivations);
    let first_pass_rungs: Vec<usize> = run
        .attempts
        .iter()
        .enumerate()
        .filter(|(_, a)| a.ran_first_pass)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        first_pass_rungs,
        vec![1],
        "only rung 1 computes the first pass"
    );

    // Exhausted rungs still salvage facts.
    assert!(run.attempts[0].salvaged.vars_with_facts > 0);
    assert!(run.attempts[0].salvaged.reachable_methods > 0);
}

#[test]
fn supervised_run_is_reproducible() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = SupervisorConfig {
        ladder: LadderSpec::default_for(Flavor::OBJ2H),
        budget: Budget::derivations(LADDER_BUDGET),
        solver: SolverConfig::default(),
        warm_first_pass: None,
        warm_summaries: None,
    };
    let a = supervise(&program, &hierarchy, &cfg);
    let b = supervise(&program, &hierarchy, &cfg);

    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.completed_rung, b.completed_rung);
    assert_eq!(a.final_analysis(), b.final_analysis());
    assert_eq!(a.attempts.len(), b.attempts.len());
    for (x, y) in a.attempts.iter().zip(&b.attempts) {
        assert_eq!(x.rung.spec(), y.rung.spec());
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.exhaustion, y.exhaustion);
        assert_eq!(x.stats.canonical(), y.stats.canonical());
        assert_eq!(x.salvaged, y.salvaged);
    }
    let (ra, rb) = (a.result.unwrap(), b.result.unwrap());
    assert_eq!(ra.var_pts, rb.var_pts);
    assert_eq!(ra.call_targets, rb.call_targets);
}

#[test]
fn exhausted_partial_results_are_deterministic() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        budget: Budget::derivations(10_000),
        ..SolverConfig::default()
    };
    let a = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    let b = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    assert_eq!(a.outcome, Outcome::BudgetExhausted);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.exhaustion, b.exhaustion);
    assert_eq!(a.stats.canonical(), b.stats.canonical());
    assert_eq!(a.var_pts, b.var_pts, "identical partial var-points-to");
}

#[test]
fn all_rungs_exhausted_salvages_best_partial() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = SupervisorConfig {
        ladder: LadderSpec::default_for(Flavor::OBJ2H),
        // Too small even for the insensitive pass.
        budget: Budget::derivations(200),
        solver: SolverConfig::default(),
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    assert_eq!(run.verdict, SupervisionVerdict::Exhausted);
    assert_eq!(run.exit_code(), 4);
    assert!(run.result.is_none());
    assert_eq!(run.attempts.len(), 5, "every rung was attempted");
    let salvaged = run.salvaged.expect("best partial kept");
    assert!(salvaged.outcome.is_partial());
    // Even the first pass only runs once when it exhausts.
    assert_eq!(run.first_pass_runs, 1);
}

#[test]
fn complete_first_rung_is_verdict_complete() {
    let program = hub_program(4, 4);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = SupervisorConfig {
        ladder: LadderSpec::default_for(Flavor::OBJ2H),
        budget: Budget::unlimited(),
        solver: SolverConfig::default(),
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    assert_eq!(run.verdict, SupervisionVerdict::Complete);
    assert_eq!(run.completed_rung, Some(0));
    assert_eq!(run.exit_code(), 0);
    assert_eq!(run.first_pass_runs, 0, "no introspective rung ever ran");
    assert_eq!(run.attempts.len(), 1);
}

#[test]
fn tiny_node_capacity_degrades_instead_of_panicking() {
    let program = hub_program(20, 20);
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        max_nodes: Some(10),
        ..SolverConfig::default()
    };
    let r = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    assert_eq!(r.outcome, Outcome::CapacityExceeded);
    assert_eq!(r.exhaustion, Some(ExhaustionCause::NodeTable));
}

#[test]
fn tiny_context_capacity_degrades_instead_of_panicking() {
    let program = hub_program(20, 20);
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        max_contexts: Some(3),
        ..SolverConfig::default()
    };
    let r = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    assert_eq!(r.outcome, Outcome::CapacityExceeded);
    assert_eq!(r.exhaustion, Some(ExhaustionCause::ContextTable));
}

#[test]
fn ladder_recovers_from_capacity_exceeded() {
    let program = hub_program(20, 20);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = SupervisorConfig {
        ladder: LadderSpec::parse("2objH,insens").unwrap(),
        budget: Budget::unlimited(),
        solver: SolverConfig {
            max_contexts: Some(3),
            ..SolverConfig::default()
        },
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    // 2objH trips the context cap; insens needs no new contexts and
    // completes under the same cap.
    assert_eq!(run.attempts[0].outcome, Outcome::CapacityExceeded);
    assert_eq!(run.verdict, SupervisionVerdict::Degraded);
    assert_eq!(run.final_analysis(), Some("insens"));
}

#[test]
fn memory_budget_stops_the_solver() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let config = SolverConfig {
        budget: Budget::bytes(100_000),
        ..SolverConfig::default()
    };
    let r = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    assert_eq!(r.outcome, Outcome::BudgetExhausted);
    assert_eq!(r.exhaustion, Some(ExhaustionCause::Memory));
    let unbounded = analyze_flavor(
        &program,
        &hierarchy,
        Flavor::OBJ2H,
        &SolverConfig::default(),
    );
    assert!(r.stats.bytes_estimate() < unbounded.stats.bytes_estimate());
}

#[test]
fn pre_cancelled_token_stops_immediately() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let token = CancelToken::new();
    token.cancel();
    let config = SolverConfig {
        cancel: Some(token),
        ..SolverConfig::default()
    };
    let r = analyze_flavor(&program, &hierarchy, Flavor::OBJ2H, &config);
    assert_eq!(r.outcome, Outcome::BudgetExhausted);
    assert_eq!(r.exhaustion, Some(ExhaustionCause::Cancelled));
    assert!(r.stats.derivations < 100, "stopped at the first check");
}

/// The program is sized so its full `2objH` solve (~12M derivations) runs
/// far past the 30 ms deadline even in an optimized build.
#[test]
fn watchdog_enforces_wall_clock_deadline() {
    let program = hub_program(1000, 4000);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = SupervisorConfig {
        ladder: LadderSpec::parse("2objH").unwrap(),
        budget: Budget::duration(std::time::Duration::from_millis(30)),
        solver: SolverConfig::default(),
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    // Either the in-loop wall-clock check or the watchdog stops the rung;
    // both surface as a structured exhaustion, never a hang.
    assert_eq!(run.verdict, SupervisionVerdict::Exhausted);
    assert!(matches!(
        run.attempts[0].exhaustion,
        Some(ExhaustionCause::WallClock | ExhaustionCause::Cancelled)
    ));
}

#[test]
fn external_cancellation_skips_remaining_rungs() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let token = CancelToken::new();
    token.cancel();
    let cfg = SupervisorConfig {
        ladder: LadderSpec::default_for(Flavor::OBJ2H),
        budget: Budget::unlimited(),
        solver: SolverConfig {
            cancel: Some(token),
            ..SolverConfig::default()
        },
        warm_first_pass: None,
        warm_summaries: None,
    };
    let run = supervise(&program, &hierarchy, &cfg);
    assert_eq!(run.verdict, SupervisionVerdict::Exhausted);
    assert!(
        run.attempts.is_empty(),
        "no rung started after cancellation"
    );
}

#[test]
fn ladder_spec_parses_and_round_trips() {
    let ladder = LadderSpec::parse("2objH, introB:2objH ,introA:2objH,insens").unwrap();
    assert_eq!(ladder.spec(), "2objH,introB:2objH,introA:2objH,insens");

    // `default` and the canonical expansion of a lone introspective rung.
    // The default ladder lands on cutshortcut before the insensitive
    // floor: near-insens cost, strictly better precision when cuts exist.
    assert_eq!(
        LadderSpec::parse("default").unwrap().spec(),
        "2objH,introB:2objH,introA:2objH,cutshortcut,insens"
    );
    assert_eq!(
        LadderSpec::parse("introspectiveB:2objH").unwrap().spec(),
        "2objH,introB:2objH,insens"
    );

    assert!(LadderSpec::parse("").is_err());
    assert!(LadderSpec::parse("3frob").is_err());
    assert!(LadderSpec::parse("introC:2objH").is_err());
    assert!(LadderSpec::parse("introA").is_err());
}

/// A resident service's warm insensitive pass substitutes for the shared
/// first pass: no first-pass run happens, and the outcome is identical to
/// a cold run's.
#[test]
fn warm_first_pass_is_reused_when_budget_admits_it() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let warm = analyze(&program, &hierarchy, &Insensitive, &SolverConfig::default());
    assert!(warm.outcome.is_complete());
    assert!(warm.stats.derivations < LADDER_BUDGET);

    let cfg = |warm_first_pass| SupervisorConfig {
        ladder: LadderSpec::parse("introA:2objH,insens").unwrap(),
        budget: Budget::derivations(LADDER_BUDGET),
        solver: SolverConfig::default(),
        warm_first_pass,
        warm_summaries: None,
    };
    let warm_run = supervise(&program, &hierarchy, &cfg(Some(std::sync::Arc::new(warm))));
    let cold_run = supervise(&program, &hierarchy, &cfg(None));

    assert_eq!(warm_run.first_pass_runs, 0, "the warm pass was reused");
    assert_eq!(cold_run.first_pass_runs, 1, "the cold run computed its own");
    assert_eq!(warm_run.verdict, cold_run.verdict);
    assert_eq!(warm_run.completed_rung, cold_run.completed_rung);
    let (w, c) = (
        warm_run.result.expect("warm run completed"),
        cold_run.result.expect("cold run completed"),
    );
    assert_eq!(w.analysis, c.analysis);
    assert_eq!(
        w.stats.canonical(),
        c.stats.canonical(),
        "warm reuse must not change the result"
    );
    assert_eq!(w.var_pts, c.var_pts, "projections identical");
}

/// A warm pass whose recorded cost exceeds this run's budget is *not*
/// admitted: the run recomputes (and exhausts) exactly where a cold run
/// would, keeping warm and cold byte-identical under any budget.
#[test]
fn warm_first_pass_is_rejected_when_budget_would_not_admit_it() {
    let program = hub_program(100, 250);
    let hierarchy = ClassHierarchy::new(&program);
    let warm = analyze(&program, &hierarchy, &Insensitive, &SolverConfig::default());
    assert!(warm.outcome.is_complete());
    let tight = warm.stats.derivations - 1;

    let cfg = |warm_first_pass| SupervisorConfig {
        ladder: LadderSpec::parse("introA:2objH,insens").unwrap(),
        budget: Budget::derivations(tight),
        solver: SolverConfig::default(),
        warm_first_pass,
        warm_summaries: None,
    };
    let warm_run = supervise(&program, &hierarchy, &cfg(Some(std::sync::Arc::new(warm))));
    let cold_run = supervise(&program, &hierarchy, &cfg(None));

    assert_eq!(
        warm_run.first_pass_runs, 1,
        "an inadmissible warm pass must not be reused"
    );
    assert_eq!(cold_run.first_pass_runs, 1);
    assert_eq!(warm_run.verdict, cold_run.verdict);
    assert_eq!(warm_run.attempts.len(), cold_run.attempts.len());
    for (w, c) in warm_run.attempts.iter().zip(&cold_run.attempts) {
        assert_eq!(w.outcome, c.outcome);
        assert_eq!(w.exhaustion, c.exhaustion);
    }
}
