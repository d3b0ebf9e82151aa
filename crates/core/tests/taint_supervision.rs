//! Supervisor × taint interaction: the degradation contract for the taint
//! client.
//!
//! A completed rung — even one reached by degrading — is a sound points-to
//! abstraction and taint runs on it. An exhausted ladder salvages partial
//! points-to facts for inspection, but taint is *skipped*: a leak list
//! computed from partial facts would silently under-report, which for a
//! security client is the worst possible failure mode.

use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, Budget, SolverConfig};
use rudoop_core::supervisor::{supervise, LadderSpec, SupervisionVerdict, SupervisorConfig};
use rudoop_core::taint::{analyze_taint, supervised_taint, SupervisedTaint};
use rudoop_ir::{ClassHierarchy, Program, ProgramBuilder, TaintSpec};

/// A hub/fan-out program (each of `receivers` hub contexts replicates the
/// `objs`-sized mixer set under `2objH`) with one direct taint flow in
/// `main`: `t = Kit.source(); Kit.sink(t)`.
fn tainted_hub(receivers: usize, objs: usize) -> (Program, TaintSpec) {
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
    let kit = b.class("Kit", Some(obj));
    let source = b.method(kit, "source", &[], true);
    {
        let v = b.var(source, "v");
        b.alloc(source, v, kit);
        b.ret(source, v);
    }
    let sink = b.method(kit, "sink", &["x"], true);
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
    let t = b.var(main, "t");
    b.scall(main, Some(t), source, &[]);
    b.scall(main, None, sink, &[t]);
    b.entry(main);
    let program = b.finish();

    let mut spec = TaintSpec::new();
    spec.add_source(source);
    spec.add_sink(sink, Some(0));
    (program, spec)
}

fn supervisor_config(ladder: &str, budget: Budget) -> SupervisorConfig {
    SupervisorConfig {
        ladder: LadderSpec::parse(ladder).unwrap(),
        budget,
        solver: SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        },
        warm_first_pass: None,
        warm_summaries: None,
    }
}

#[test]
fn exhausted_ladder_salvages_facts_but_skips_taint() {
    let (program, spec) = tainted_hub(60, 150);
    let hierarchy = ClassHierarchy::new(&program);
    // A budget no rung can meet: the single 2objH rung exhausts.
    let cfg = supervisor_config("2objH", Budget::derivations(500));
    let run = supervise(&program, &hierarchy, &cfg);

    assert_eq!(run.verdict, SupervisionVerdict::Exhausted);
    assert_eq!(run.exit_code(), 4);
    assert!(run.result.is_none(), "no rung completed");
    let salvaged = run.salvaged.as_ref().expect("partial facts are salvaged");
    assert!(
        salvaged.var_pts.iter().any(|(_, pts)| !pts.is_empty()),
        "salvage must retain some points-to facts"
    );

    // The taint client must refuse the salvaged partial facts: the direct
    // source→sink leak in `main` exists, and a partial run might miss it.
    match supervised_taint(&program, &spec, &run) {
        SupervisedTaint::Skipped { reason } => {
            assert!(reason.contains("exhausted"), "reason: {reason}");
        }
        SupervisedTaint::Analyzed(t) => {
            panic!(
                "taint must not run on an exhausted ladder; got {} leak(s)",
                t.leaks.len()
            )
        }
    }
}

#[test]
fn degraded_ladder_runs_taint_on_the_completed_rung() {
    let (program, spec) = tainted_hub(60, 150);
    let hierarchy = ClassHierarchy::new(&program);
    // 2objH exhausts under this budget; the insensitive rung completes.
    let cfg = supervisor_config("2objH,insens", Budget::derivations(20_000));
    let run = supervise(&program, &hierarchy, &cfg);

    assert_eq!(run.verdict, SupervisionVerdict::Degraded);
    assert_eq!(run.exit_code(), 3);
    let taint = match supervised_taint(&program, &spec, &run) {
        SupervisedTaint::Analyzed(t) => t,
        SupervisedTaint::Skipped { reason } => panic!("skipped on a completed rung: {reason}"),
    };
    assert_eq!(taint.analysis, "insens");

    // The degraded rung is complete, so its leak list is the full (sound)
    // insensitive answer — identical to running that analysis directly.
    let direct = analyze(
        &program,
        &hierarchy,
        &Insensitive,
        &SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        },
    );
    let expected = analyze_taint(&program, &spec, &direct).unwrap();
    assert_eq!(taint.leak_set(), expected.leak_set());
    assert_eq!(taint.leaks.len(), 1, "exactly the direct flow");
}

#[test]
fn complete_ladder_reports_the_leak_with_exit_zero() {
    let (program, spec) = tainted_hub(4, 4);
    let hierarchy = ClassHierarchy::new(&program);
    let cfg = supervisor_config("2objH", Budget::unlimited());
    let run = supervise(&program, &hierarchy, &cfg);

    assert_eq!(run.verdict, SupervisionVerdict::Complete);
    assert_eq!(run.exit_code(), 0);
    let taint = supervised_taint(&program, &spec, &run);
    let taint = taint.as_analyzed().expect("taint runs on a complete rung");
    assert_eq!(taint.leaks.len(), 1);
    assert!(!taint.leaks[0].trace.is_empty());
}
