//! Property tests over generator-produced programs: the lint suite must
//! never panic, and must never report hard errors (`Severity::Error`) on a
//! valid program — at default levels, errors are reserved for validity
//! violations, which the generator never produces.

use rudoop_analyses::diagnostics::Severity;
use rudoop_analyses::{validate_diagnostics, LintContext, LintRegistry};
use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::ClassHierarchy;

const CASES: u64 = 96;

#[test]
fn lints_run_clean_of_errors_on_generated_programs() {
    let shape = ProgramShape::default();
    let registry = LintRegistry::with_defaults();
    for seed in 0..CASES {
        let program = generate(&shape, seed);
        assert!(
            validate_diagnostics(&program).is_empty(),
            "generator produced an invalid program at seed {seed}"
        );
        let hierarchy = ClassHierarchy::new(&program);
        let result = analyze(&program, &hierarchy, &Insensitive, &SolverConfig::default());
        let cx = LintContext {
            program: &program,
            hierarchy: &hierarchy,
            points_to: Some(&result),
            taint: None,
            races: None,
        };
        let diags = registry.run(&cx);
        for d in &diags {
            assert_ne!(
                d.severity,
                Severity::Error,
                "seed {seed}: lint {} reported a hard error on a valid program: {}",
                d.code,
                d.message
            );
        }
    }
}

#[test]
fn tier1_alone_never_panics_and_is_deterministic() {
    let shape = ProgramShape::default();
    let registry = LintRegistry::with_defaults();
    for seed in 0..CASES {
        let program = generate(&shape, seed);
        let hierarchy = ClassHierarchy::new(&program);
        let cx = LintContext {
            program: &program,
            hierarchy: &hierarchy,
            points_to: None,
            taint: None,
            races: None,
        };
        let first = registry.run(&cx);
        let second = registry.run(&cx);
        assert_eq!(
            first, second,
            "non-deterministic lint output at seed {seed}"
        );
        assert!(
            first.iter().all(|d| d.code.starts_with('L')),
            "seed {seed}: tier-2 finding without points-to facts"
        );
    }
}

#[test]
fn rendering_generated_diagnostics_never_panics() {
    let shape = ProgramShape {
        max_body: 16,
        ..ProgramShape::default()
    };
    let registry = LintRegistry::with_defaults();
    for seed in 0..CASES / 4 {
        let program = generate(&shape, seed);
        let hierarchy = ClassHierarchy::new(&program);
        let result = analyze(&program, &hierarchy, &Insensitive, &SolverConfig::default());
        let cx = LintContext {
            program: &program,
            hierarchy: &hierarchy,
            points_to: Some(&result),
            taint: None,
            races: None,
        };
        let diags = registry.run(&cx);
        let text = rudoop_analyses::render(&program, &diags);
        assert!(text.lines().count() >= diags.len(), "seed {seed}");
    }
}
