//! Property tests over generator-produced programs: the lint suite must
//! never panic, and must never report hard errors (`Severity::Error`) on a
//! valid program — at default levels, errors are reserved for validity
//! violations, which the generator never produces. The def/use lints
//! L001–L003 must also agree with a naive per-method reference.

use std::collections::HashSet;

use rudoop_analyses::diagnostics::{sort_diagnostics, Severity};
use rudoop_analyses::{validate_diagnostics, Diagnostic, LintContext, LintRegistry};
use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::{
    ClassHierarchy, Instruction, InvokeKind, MethodId, Program, ProgramBuilder, VarId,
};

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

/// The variables an instruction reads, and the one it writes, spelled out
/// per variant independently of `Instruction::uses`/`def`.
fn naive_uses_def(p: &Program, instr: &Instruction) -> (Vec<VarId>, Option<VarId>) {
    match *instr {
        Instruction::Alloc { var, .. } => (vec![], Some(var)),
        Instruction::Move { to, from } | Instruction::Cast { to, from, .. } => {
            (vec![from], Some(to))
        }
        Instruction::Load { to, base, .. } => (vec![base], Some(to)),
        Instruction::Store { base, from, .. } => (vec![base, from], None),
        Instruction::LoadGlobal { to, .. } => (vec![], Some(to)),
        Instruction::StoreGlobal { from, .. } => (vec![from], None),
        Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
            let inv = &p.invokes[invoke];
            let mut uses = match inv.kind {
                InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => vec![base],
                InvokeKind::Static { .. } => vec![],
            };
            uses.extend_from_slice(&inv.args);
            (uses, inv.result)
        }
        Instruction::Join { var }
        | Instruction::MonitorEnter { var }
        | Instruction::MonitorExit { var }
        | Instruction::Return { var } => (vec![var], None),
    }
}

fn naive_entry_defined(p: &Program, mid: MethodId) -> HashSet<VarId> {
    let m = &p.methods[mid];
    m.this
        .iter()
        .chain(&m.params)
        .chain(&m.ret)
        .copied()
        .collect()
}

/// L001–L003 by the per-method algorithm: a defined set per method, a
/// forward scan from each store, and a walk of every variable per method.
fn naive_def_use_lints(p: &Program) -> [Vec<Diagnostic>; 3] {
    let (mut l001, mut l002, mut l003) = (Vec::new(), Vec::new(), Vec::new());
    let mut used = HashSet::new();
    for (mid, method) in p.methods.iter() {
        let effects: Vec<_> = method.body.iter().map(|i| naive_uses_def(p, i)).collect();
        let mut defined = naive_entry_defined(p, mid);
        let mut reported = HashSet::new();
        for (i, (uses, def)) in effects.iter().enumerate() {
            used.extend(uses.iter().copied());
            for &u in uses {
                if p.vars[u].method == mid && !defined.contains(&u) && reported.insert(u) {
                    l001.push(
                        Diagnostic::new(
                            "L001",
                            Severity::Warning,
                            format!(
                                "variable `{}` is read before any assignment",
                                p.vars[u].name
                            ),
                        )
                        .at_instr(p, mid, i)
                        .note("an unassigned reference is null here"),
                    );
                }
            }
            defined.extend(*def);
            let Some(v) = *def else { continue };
            for (j, (later_uses, redef)) in effects.iter().enumerate().skip(i + 1) {
                if later_uses.contains(&v) {
                    break;
                }
                if *redef == Some(v) {
                    let at = method.span_of(j);
                    let where_ = if at.is_known() {
                        format!("at {at}")
                    } else {
                        format!("at #{j}")
                    };
                    l002.push(
                        Diagnostic::new(
                            "L002",
                            Severity::Warning,
                            format!("value assigned to `{}` is never read", p.vars[v].name),
                        )
                        .at_instr(p, mid, i)
                        .note(format!("overwritten {where_} before any read")),
                    );
                    break;
                }
            }
        }
    }
    for (mid, _) in p.methods.iter() {
        let exempt = naive_entry_defined(p, mid);
        for (vid, var) in p.vars.iter() {
            if var.method == mid && !exempt.contains(&vid) && !used.contains(&vid) {
                l003.push(
                    Diagnostic::new(
                        "L003",
                        Severity::Warning,
                        format!("variable `{}` is never read", var.name),
                    )
                    .in_method(p, mid),
                );
            }
        }
    }
    [l001, l002, l003]
}

/// Cases the generator never emits: a read of the formal return variable,
/// and variables read and written outside their method (an invalid
/// program, on which L001 and L002 must still keep to one body at a time).
fn edge_case_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let fld = b.field(obj, "f");
    let before = b.method(obj, "before", &[], true);
    let m = b.method(obj, "m", &["a"], false);
    let after = b.method(obj, "after", &[], true);
    let (t, a, r) = (b.this(m), b.param(m, 0), b.ret_var(m));
    let [x, y] = ["x", "y"].map(|n| b.var(m, n));
    let z = b.var(before, "z");
    b.alloc(before, y, obj); // foreign write of `m`'s `y`
    b.mov(before, z, x); // foreign read of `m`'s `x`
    b.alloc(m, x, obj);
    b.store(m, t, fld, y); // `y` read before any write in `m`
    b.mov(m, y, r); // the formal return variable is assigned on entry
    b.store(m, x, fld, a);
    b.ret(m, y);
    b.alloc(after, x, obj); // foreign write after `m`'s last write of `x`
    b.finish()
}

/// Runs L001–L003 on `program` and asserts each agrees with the naive
/// reference; returns how many findings each reported.
fn assert_matches_reference(program: &Program, label: &str) -> [usize; 3] {
    let hierarchy = ClassHierarchy::new(program);
    let cx = LintContext {
        program,
        hierarchy: &hierarchy,
        points_to: None,
        taint: None,
        races: None,
    };
    let mut counts = [0; 3];
    let expected = naive_def_use_lints(program);
    for ((lint, mut want), n) in rudoop_analyses::intra::lints()
        .into_iter()
        .zip(expected)
        .zip(&mut counts)
    {
        let mut got = Vec::new();
        lint.check(&cx, &mut got);
        sort_diagnostics(&mut got);
        sort_diagnostics(&mut want);
        assert_eq!(got, want, "{label}: {} disagrees", lint.code());
        *n = got.len();
    }
    counts
}

#[test]
fn def_use_lints_match_the_naive_reference() {
    let shape = ProgramShape::default();
    let mut fired = [0; 3];
    for seed in 0..CASES {
        let counts = assert_matches_reference(&generate(&shape, seed), &format!("seed {seed}"));
        for (total, n) in fired.iter_mut().zip(counts) {
            *total += n;
        }
    }
    for (code, n) in ["L001", "L002", "L003"].iter().zip(fired) {
        assert!(n > 0, "{code} never fired on seeds 0..{CASES}");
    }
    let edge = assert_matches_reference(&edge_case_program(), "edge cases");
    assert_eq!(edge, [1, 0, 1], "edge cases: L001/L002/L003 counts");
}
