//! Differential testing of the data-race client: the optimized detector
//! in `rudoop-core` must produce a race set *byte-identical* to the
//! Datalog reference model, on hand-seeded concurrent programs and on
//! DaCapo-shaped workloads with the concurrency battery enabled, for the
//! insensitive, `2objH`, and introspective-A/B flavors.
//!
//! The suite also asserts the soundness/precision contract as supersets —
//! not just logs it: a coarser abstraction can only *add* races, so
//!
//! ```text
//! races(2objH)  ⊆  races(introspective 2objH)  ⊆  races(insensitive)
//! ```
//!
//! and at least one committed workload demonstrates the paper's
//! across-the-board claim on this client: `2objH` eliminates a false race
//! the insensitive analysis reports (per-thread worker state merged under
//! context insensitivity).

use rudoop_core::driver::{analyze_introspective, Flavor};
use rudoop_core::heuristics::{HeuristicA, HeuristicB, RefinementHeuristic};
use rudoop_core::policy::{ContextPolicy, Insensitive, ObjectSensitive, RefinementSet};
use rudoop_core::races::{analyze_races, RaceKey};
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_datalog::run_race_model;
use rudoop_ir::{ClassHierarchy, MethodId, Program, ProgramBuilder};
use rudoop_workloads::{dacapo, WorkloadSpec};

type RaceSet = Vec<(RaceKey, (MethodId, usize), (MethodId, usize))>;

fn record_config() -> SolverConfig {
    SolverConfig {
        record_contexts: true,
        ..SolverConfig::default()
    }
}

/// Optimized race set under a plain (non-introspective) policy.
fn core_races(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
) -> RaceSet {
    let r = analyze(program, hierarchy, policy, &record_config());
    assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
    analyze_races(program, &r).unwrap().race_set()
}

/// Reference race set for the same plain policy.
fn model_races(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
) -> RaceSet {
    let refine_all = RefinementSet::refine_all(program);
    run_race_model(program, hierarchy, &Insensitive, policy, &refine_all)
        .unwrap()
        .races
}

/// Optimized + reference race sets for introspective `2objH` under the
/// given heuristic; the model consumes the exact refinement the two-pass
/// driver selected.
fn introspective_races(
    program: &Program,
    hierarchy: &ClassHierarchy,
    heuristic: &dyn RefinementHeuristic,
) -> (RaceSet, RaceSet) {
    let run = analyze_introspective(
        program,
        hierarchy,
        Flavor::OBJ2H,
        heuristic,
        &record_config(),
    );
    assert!(run.result.outcome.is_complete());
    let core = analyze_races(program, &run.result).unwrap().race_set();
    let model = run_race_model(
        program,
        hierarchy,
        &Insensitive,
        &ObjectSensitive::new(2, 1),
        &run.refinement,
    )
    .unwrap()
    .races;
    (core, model)
}

fn assert_subset(finer: &RaceSet, coarser: &RaceSet, what: &str) {
    for race in finer {
        assert!(
            coarser.binary_search(race).is_ok(),
            "{what}: race {race:?} reported by the finer analysis is missing from the \
             coarser one — soundness violated"
        );
    }
}

/// The full check battery for one program. Returns the insensitive race
/// count (so callers can assert fixtures actually race).
fn check_program(name: &str, program: &Program) -> usize {
    let hierarchy = ClassHierarchy::new(program);

    let insens_core = core_races(program, &hierarchy, &Insensitive);
    let insens_model = model_races(program, &hierarchy, &Insensitive);
    assert_eq!(insens_core, insens_model, "{name}: insensitive");

    let obj = ObjectSensitive::new(2, 1);
    let obj_core = core_races(program, &hierarchy, &obj);
    let obj_model = model_races(program, &hierarchy, &obj);
    assert_eq!(obj_core, obj_model, "{name}: 2objH");

    let (ia_core, ia_model) = introspective_races(program, &hierarchy, &HeuristicA::default());
    assert_eq!(ia_core, ia_model, "{name}: introspective-A");
    let (ib_core, ib_model) = introspective_races(program, &hierarchy, &HeuristicB::default());
    assert_eq!(ib_core, ib_model, "{name}: introspective-B");

    // Soundness chain: the finer analysis must never see a race the
    // coarser one misses.
    assert_subset(&obj_core, &ia_core, &format!("{name}: 2objH ⊆ introA"));
    assert_subset(&obj_core, &ib_core, &format!("{name}: 2objH ⊆ introB"));
    assert_subset(&ia_core, &insens_core, &format!("{name}: introA ⊆ insens"));
    assert_subset(&ib_core, &insens_core, &format!("{name}: introB ⊆ insens"));

    insens_core.len()
}

// ---------------------------------------------------------------- seeded
//
// Seven hand-seeded concurrent programs, each stressing a different clause
// of the race formulation: unguarded sharing, per-thread state that only
// context sensitivity separates, common-lock exclusion, join ordering,
// interprocedural must-locks, static slots, multi-target locks, and a
// thread that runs in parallel with itself.

/// Two workers bump the same counter field with no guard: one real race
/// under every flavor.
fn shared_counter_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let counter = b.class("Counter", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let hits = b.field(counter, "hits");
    let cfld = b.field(worker, "c");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rc = b.var(runm, "rc");
    let rv = b.var(runm, "rv");
    b.load(runm, rc, this, cfld);
    b.alloc(runm, rv, obj);
    b.store(runm, rc, hits, rv);
    let main = b.method(obj, "main", &[], true);
    let c = b.var(main, "c");
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    b.alloc(main, c, counter);
    b.alloc(main, w1, worker);
    b.alloc(main, w2, worker);
    b.store(main, w1, cfld, c);
    b.store(main, w2, cfld, c);
    b.spawn(main, w1);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// Each worker bumps its *own* counter: context insensitivity merges the
/// two worker objects (`this.c` points at both counters from both
/// threads), manufacturing a false race that `2objH` eliminates.
fn private_counters_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let counter = b.class("Counter", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let hits = b.field(counter, "hits");
    let cfld = b.field(worker, "c");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rc = b.var(runm, "rc");
    let rv = b.var(runm, "rv");
    b.load(runm, rc, this, cfld);
    b.alloc(runm, rv, obj);
    b.store(runm, rc, hits, rv);
    let main = b.method(obj, "main", &[], true);
    let c1 = b.var(main, "c1");
    let c2 = b.var(main, "c2");
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    b.alloc(main, c1, counter);
    b.alloc(main, c2, counter);
    b.alloc(main, w1, worker);
    b.alloc(main, w2, worker);
    b.store(main, w1, cfld, c1);
    b.store(main, w2, cfld, c2);
    b.spawn(main, w1);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// Both workers write a shared cache slot under one shared lock object:
/// the common must-lock suppresses the race under every flavor, while an
/// unguarded sibling field keeps the program racy.
fn guarded_cache_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let cache = b.class("Cache", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let val = b.field(cache, "val");
    let stat = b.field(cache, "stat");
    let cfld = b.field(worker, "cache");
    let lfld = b.field(worker, "lock");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rc = b.var(runm, "rc");
    let rl = b.var(runm, "rl");
    let rv = b.var(runm, "rv");
    let rs = b.var(runm, "rs");
    b.load(runm, rc, this, cfld);
    b.load(runm, rl, this, lfld);
    b.alloc(runm, rv, obj);
    b.monitor_enter(runm, rl);
    b.store(runm, rc, val, rv);
    b.monitor_exit(runm, rl);
    b.alloc(runm, rs, obj);
    b.store(runm, rc, stat, rs);
    let main = b.method(obj, "main", &[], true);
    let c = b.var(main, "c");
    let lk = b.var(main, "lk");
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    b.alloc(main, c, cache);
    b.alloc(main, lk, obj);
    b.alloc(main, w1, worker);
    b.alloc(main, w2, worker);
    b.store(main, w1, cfld, c);
    b.store(main, w1, lfld, lk);
    b.store(main, w2, cfld, c);
    b.store(main, w2, lfld, lk);
    b.spawn(main, w1);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// Main spawns a worker, joins it, and only then writes the same slot the
/// worker wrote — the join orders main's write against that worker, and
/// writing *before* the second spawn orders it against the other. The one
/// surviving race is worker-vs-worker (the detector does not track
/// transitive happens-before through the join, by design).
fn join_ordering_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let cell = b.class("Cell", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let slot = b.field(cell, "slot");
    let cfld = b.field(worker, "cell");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rc = b.var(runm, "rc");
    let rv = b.var(runm, "rv");
    b.load(runm, rc, this, cfld);
    b.alloc(runm, rv, obj);
    b.store(runm, rc, slot, rv);
    let main = b.method(obj, "main", &[], true);
    let c = b.var(main, "c");
    let w = b.var(main, "w");
    let w2 = b.var(main, "w2");
    let mv = b.var(main, "mv");
    b.alloc(main, c, cell);
    b.alloc(main, w, worker);
    b.store(main, w, cfld, c);
    b.spawn(main, w);
    b.join(main, w);
    b.alloc(main, mv, obj);
    b.store(main, c, slot, mv);
    b.alloc(main, w2, worker);
    b.store(main, w2, cfld, c);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// The lock is taken in `run` but the write happens in a callee: the
/// interprocedural must-lock fixpoint has to carry the held lock across
/// the call edge for the exclusion to hold.
fn lock_ladder_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let cell = b.class("Cell", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let slot = b.field(cell, "slot");
    let open = b.field(cell, "open");
    let cfld = b.field(worker, "cell");
    let lfld = b.field(worker, "lock");
    let stepm = b.method(worker, "step", &[], false);
    let sthis = b.this(stepm);
    let sc = b.var(stepm, "sc");
    let sv = b.var(stepm, "sv");
    let so = b.var(stepm, "so");
    b.load(stepm, sc, sthis, cfld);
    b.alloc(stepm, sv, obj);
    b.store(stepm, sc, slot, sv);
    b.alloc(stepm, so, obj);
    b.store(stepm, sc, open, so);
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rl = b.var(runm, "rl");
    b.load(runm, rl, this, lfld);
    b.monitor_enter(runm, rl);
    b.vcall(runm, None, this, "step", &[]);
    b.monitor_exit(runm, rl);
    let main = b.method(obj, "main", &[], true);
    let c = b.var(main, "c");
    let lk = b.var(main, "lk");
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    b.alloc(main, c, cell);
    b.alloc(main, lk, obj);
    b.alloc(main, w1, worker);
    b.alloc(main, w2, worker);
    b.store(main, w1, cfld, c);
    b.store(main, w1, lfld, lk);
    b.store(main, w2, cfld, c);
    b.store(main, w2, lfld, lk);
    b.spawn(main, w1);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// Static slots always conflict (no base aliasing required), and a lock
/// variable that resolves to *two* allocation sites provides no must-alias
/// exclusion: both clauses on one program.
fn static_and_many_locks_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let registry = b.class("Registry", Some(obj));
    let worker = b.class("Worker", Some(obj));
    let all = b.global(registry, "all");
    let lfld = b.field(worker, "lock");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rl = b.var(runm, "rl");
    let rv = b.var(runm, "rv");
    b.load(runm, rl, this, lfld);
    b.monitor_enter(runm, rl);
    b.alloc(runm, rv, obj);
    b.store_global(runm, all, rv);
    b.monitor_exit(runm, rl);
    let main = b.method(obj, "main", &[], true);
    let l1 = b.var(main, "l1");
    let l2 = b.var(main, "l2");
    let w1 = b.var(main, "w1");
    let w2 = b.var(main, "w2");
    // Each worker's lock field gets *both* lock objects: every load of the
    // lock sees two targets, so no singleton must-alias guard exists.
    b.alloc(main, l1, obj);
    b.alloc(main, l2, obj);
    b.alloc(main, w1, worker);
    b.alloc(main, w2, worker);
    b.store(main, w1, lfld, l1);
    b.store(main, w1, lfld, l2);
    b.store(main, w2, lfld, l1);
    b.store(main, w2, lfld, l2);
    b.spawn(main, w1);
    b.spawn(main, w2);
    b.entry(main);
    b.finish()
}

/// One worker thread whose spawn site sits in a helper `main` calls twice:
/// the spawn executes twice, so the thread is parallel with itself, and
/// its unguarded write in `run` races with the same write in the other
/// execution. No other pair races: `main` touches no field.
fn self_parallel_seed() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let worker = b.class("Worker", Some(obj));
    let hits = b.field(worker, "hits");
    let runm = b.method(worker, "run", &[], false);
    let this = b.this(runm);
    let rv = b.var(runm, "rv");
    b.alloc(runm, rv, obj);
    b.store(runm, this, hits, rv);
    let start = b.method(obj, "start", &["w"], true);
    let sw = b.param(start, 0);
    b.spawn(start, sw);
    let main = b.method(obj, "main", &[], true);
    let w = b.var(main, "w");
    b.alloc(main, w, worker);
    b.scall(main, None, start, &[w]);
    b.scall(main, None, start, &[w]);
    b.entry(main);
    b.finish()
}

/// A named seed program and its minimum insensitive race count.
type Seed = (&'static str, fn() -> Program, usize);

#[test]
fn seeded_concurrent_programs_agree_across_flavors() {
    let seeds: [Seed; 6] = [
        ("shared_counter", shared_counter_seed, 1),
        ("private_counters", private_counters_seed, 1),
        ("guarded_cache", guarded_cache_seed, 1),
        ("join_ordering", join_ordering_seed, 1),
        ("lock_ladder", lock_ladder_seed, 0),
        ("static_and_many_locks", static_and_many_locks_seed, 1),
    ];
    for (name, build, min_insens) in seeds {
        let program = build();
        let n = check_program(name, &program);
        assert!(
            n >= min_insens,
            "{name}: expected ≥ {min_insens} insensitive race(s), got {n}"
        );
    }
}

/// The only race of `self_parallel_seed` pairs the write in `run` with
/// itself, under every flavor, in the detector and the model alike.
#[test]
fn self_parallel_thread_races_with_itself() {
    let program = self_parallel_seed();
    check_program("self_parallel", &program);
    let hierarchy = ClassHierarchy::new(&program);
    for policy in [
        &Insensitive as &dyn ContextPolicy,
        &ObjectSensitive::new(2, 1),
    ] {
        let races = core_races(&program, &hierarchy, policy);
        assert_eq!(races.len(), 1, "{}: {races:?}", policy.name());
        let (_, a, b) = races[0];
        assert_eq!(a, b, "the race pairs one write with itself: {races:?}");
    }
    let (intro, _) = introspective_races(&program, &hierarchy, &HeuristicA::default());
    assert_eq!(intro.len(), 1, "introspective-A: {intro:?}");
}

#[test]
fn context_sensitivity_eliminates_the_private_counter_false_race() {
    // The across-the-board claim on this client, in miniature: insens
    // merges the per-thread counters into a false race, 2objH separates
    // the worker contexts and the race vanishes — in the optimized
    // detector *and* in the reference model.
    let program = private_counters_seed();
    let hierarchy = ClassHierarchy::new(&program);
    let insens = core_races(&program, &hierarchy, &Insensitive);
    let obj = core_races(&program, &hierarchy, &ObjectSensitive::new(2, 1));
    assert!(!insens.is_empty(), "insens should report the false race");
    assert!(obj.is_empty(), "2objH should eliminate it: {obj:?}");
    assert_eq!(
        model_races(&program, &hierarchy, &Insensitive),
        insens,
        "model disagrees under insens"
    );
    assert_eq!(
        model_races(&program, &hierarchy, &ObjectSensitive::new(2, 1)),
        obj,
        "model disagrees under 2objH"
    );
}

// ------------------------------------------------------------ workloads

/// A DaCapo-shaped spec shrunk to reference-model scale (the Datalog
/// engine evaluates rules tuple-at-a-time), with the concurrency battery
/// switched on: every shrunk clone keeps each pattern of the original
/// enabled, just smaller.
fn shrink(mut spec: WorkloadSpec) -> WorkloadSpec {
    fn cap(v: &mut usize, at: usize) {
        *v = (*v).min(at);
    }
    cap(&mut spec.pool_values, 8);
    cap(&mut spec.pool_readers, 6);
    cap(&mut spec.wrapper_classes, 2);
    cap(&mut spec.creator_classes, 2);
    cap(&mut spec.creator_instances, 3);
    cap(&mut spec.allocator_classes, 2);
    cap(&mut spec.wrapper_sites_per_class, 2);
    cap(&mut spec.process_steps, 2);
    cap(&mut spec.deep_pool_values, 6);
    cap(&mut spec.deep_creator_classes, 2);
    cap(&mut spec.deep_allocator_classes, 2);
    cap(&mut spec.deep_instances, 2);
    cap(&mut spec.deep_sites_per_class, 2);
    cap(&mut spec.deep_steps, 2);
    cap(&mut spec.util_consumers, 3);
    cap(&mut spec.util_dists, 2);
    cap(&mut spec.util_chain, 2);
    cap(&mut spec.util_moves, 2);
    cap(&mut spec.medium_pool, 6);
    cap(&mut spec.probes_clean, 2);
    cap(&mut spec.probes_type_friendly, 2);
    cap(&mut spec.probes_medium, 2);
    cap(&mut spec.listeners, 2);
    cap(&mut spec.visitor_nodes, 2);
    cap(&mut spec.visitor_kinds, 2);
    cap(&mut spec.stream_depth, 2);
    cap(&mut spec.app_classes, 2);
    cap(&mut spec.app_casts, 2);
    spec.concurrency = 2;
    spec
}

#[test]
fn dacapo_concurrency_workloads_agree_across_flavors() {
    for base in dacapo::all_nine() {
        let spec = shrink(base);
        let program = spec.build();
        let races = check_program(&spec.name, &program);
        // Every workload carries the concurrency battery: the shared
        // counter race is real under every flavor, so even the insensitive
        // superset in hand here must be non-empty.
        assert!(races >= 1, "{}: expected ≥ 1 race, got {races}", spec.name);
    }
}

#[test]
fn concurrency_battery_separates_flavors() {
    // On the concurrency battery, the insensitive analysis must report
    // strictly more races than 2objH: the farm workers' per-thread state
    // writes only race when context merging conflates the worker objects.
    let spec = shrink(dacapo::antlr());
    let program = spec.build();
    let hierarchy = ClassHierarchy::new(&program);
    let insens = core_races(&program, &hierarchy, &Insensitive);
    let obj = core_races(&program, &hierarchy, &ObjectSensitive::new(2, 1));
    assert!(
        !obj.is_empty(),
        "the shared-counter race must survive 2objH"
    );
    assert!(
        obj.len() < insens.len(),
        "2objH ({}) should be strictly more precise than insensitive ({})",
        obj.len(),
        insens.len()
    );
}
