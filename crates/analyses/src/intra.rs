//! Tier-1 lints: purely syntactic, per-method, no points-to facts needed.
//!
//! The IL is flow-insensitive for the *analysis* — instruction order never
//! changes points-to results — but method bodies are straight-line
//! instruction lists, so textual order is still meaningful to a human
//! reader. These lints treat the body as executing top to bottom, which is
//! exactly how the frontends emit it.
//!
//! | code | name | finding |
//! |------|------|---------|
//! | `L001` | `use-before-def` | a local is read before any assignment |
//! | `L002` | `dead-store` | an assignment is overwritten before any read |
//! | `L003` | `unused-variable` | a local is never read anywhere in its method |
//! | `L004` | `unreachable-code` | instructions follow a `return` |
//! | `L005` | `self-move` | `x = x` |

use rudoop_ir::{Idx, Instruction, MethodId};

use crate::diagnostics::{Diagnostic, Severity};
use crate::lint::{Lint, LintContext};

/// All tier-1 lints, in code order.
pub fn lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(UseBeforeDef),
        Box::new(DeadStore),
        Box::new(UnusedVariable),
        Box::new(UnreachableCode),
        Box::new(SelfMove),
    ]
}

/// `L001`: a local variable is read before any instruction assigns it.
/// `this`, the formals and the formal return variable (written implicitly
/// by `return` flow) are assigned on entry. Reported once per variable, at
/// its first premature read. Foreign variables (used outside their
/// declaring method) are `E002`'s territory and skipped here.
pub struct UseBeforeDef;

impl Lint for UseBeforeDef {
    fn code(&self) -> &'static str {
        "L001"
    }
    fn name(&self) -> &'static str {
        "use-before-def"
    }
    fn description(&self) -> &'static str {
        "a local variable is read before any assignment to it"
    }
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = cx.program;
        // A variable is settled once assigned or reported. Only variables
        // of the method being walked are marked, so one table serves the
        // whole program without a reset.
        let mut settled = vec![false; p.vars.len()];
        for (mid, method) in p.methods.iter() {
            let entry = method.this.iter().chain(&method.params).chain(&method.ret);
            for &v in entry.filter(|&&v| p.vars[v].method == mid) {
                settled[v.index()] = true;
            }
            for (i, instr) in method.body.iter().enumerate() {
                for u in instr.uses(p) {
                    if p.vars[u].method == mid && !std::mem::replace(&mut settled[u.index()], true)
                    {
                        out.push(
                            Diagnostic::new(
                                self.code(),
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
                if let Some(d) = instr.def(p).filter(|&d| p.vars[d].method == mid) {
                    settled[d.index()] = true;
                }
            }
        }
    }
}

/// `L002`: an assignment whose value is overwritten by a later assignment
/// with no intervening read — the first write is dead. Each body is walked
/// once, backwards.
pub struct DeadStore;

impl Lint for DeadStore {
    fn code(&self) -> &'static str {
        "L002"
    }
    fn name(&self) -> &'static str {
        "dead-store"
    }
    fn description(&self) -> &'static str {
        "an assignment is overwritten before the value is ever read"
    }
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = cx.program;
        // `next_write[v]` is `(method, j)` when the next access to `v` after
        // the current instruction of `method`'s body writes it at `j`; a read
        // clears it. Entries left by another body never match its method.
        let mut next_write: Vec<Option<(MethodId, usize)>> = vec![None; p.vars.len()];
        for (mid, method) in p.methods.iter() {
            for (i, instr) in method.body.iter().enumerate().rev() {
                if let Some(v) = instr.def(p) {
                    if let Some((m, j)) = next_write[v.index()] {
                        if m == mid {
                            let at = method.span_of(j);
                            let where_ = if at.is_known() {
                                format!("at {at}")
                            } else {
                                format!("at #{j}")
                            };
                            out.push(
                                Diagnostic::new(
                                    self.code(),
                                    Severity::Warning,
                                    format!("value assigned to `{}` is never read", p.vars[v].name),
                                )
                                .at_instr(p, mid, i)
                                .note(format!("overwritten {where_} before any read")),
                            );
                        }
                    }
                    next_write[v.index()] = Some((mid, i));
                }
                // An instruction reads its operands before it writes.
                for u in instr.uses(p) {
                    next_write[u.index()] = None;
                }
            }
        }
    }
}

/// `L003`: a local variable that no instruction ever reads. `this`, formals
/// and the formal return variable are exempt (they are part of the
/// method's interface). One mark over all bodies, then one pass over the
/// variable table.
pub struct UnusedVariable;

impl Lint for UnusedVariable {
    fn code(&self) -> &'static str {
        "L003"
    }
    fn name(&self) -> &'static str {
        "unused-variable"
    }
    fn description(&self) -> &'static str {
        "a local variable is never read anywhere in its method"
    }
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = cx.program;
        let mut used = vec![false; p.vars.len()];
        for instr in p.methods.values().flat_map(|m| &m.body) {
            for u in instr.uses(p) {
                used[u.index()] = true;
            }
        }
        for (vid, var) in p.vars.iter() {
            let m = &p.methods[var.method];
            let interface = m.this == Some(vid) || m.ret == Some(vid) || m.params.contains(&vid);
            if !used[vid.index()] && !interface {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warning,
                        format!("variable `{}` is never read", var.name),
                    )
                    .in_method(p, var.method),
                );
            }
        }
    }
}

/// `L004`: instructions after the first `return` in a body. Bodies are
/// straight-line, so nothing after a `return` can execute. One diagnostic
/// per method, anchored at the first unreachable instruction.
pub struct UnreachableCode;

impl Lint for UnreachableCode {
    fn code(&self) -> &'static str {
        "L004"
    }
    fn name(&self) -> &'static str {
        "unreachable-code"
    }
    fn description(&self) -> &'static str {
        "instructions follow a return and can never execute"
    }
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = cx.program;
        for (mid, method) in p.methods.iter() {
            let Some(ret_at) = method
                .body
                .iter()
                .position(|i| matches!(i, Instruction::Return { .. }))
            else {
                continue;
            };
            let trailing = method.body.len() - ret_at - 1;
            if trailing > 0 {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warning,
                        format!("{trailing} instruction(s) after `return` can never execute"),
                    )
                    .at_instr(p, mid, ret_at + 1),
                );
            }
        }
    }
}

/// `L005`: `x = x`. Harmless to the analysis (points-to is idempotent under
/// self-moves) but always a typo in source.
pub struct SelfMove;

impl Lint for SelfMove {
    fn code(&self) -> &'static str {
        "L005"
    }
    fn name(&self) -> &'static str {
        "self-move"
    }
    fn description(&self) -> &'static str {
        "a variable is moved to itself"
    }
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = cx.program;
        for (mid, method) in p.methods.iter() {
            for (i, instr) in method.body.iter().enumerate() {
                if let Instruction::Move { to, from } = *instr {
                    if to == from {
                        out.push(
                            Diagnostic::new(
                                self.code(),
                                Severity::Warning,
                                format!("move of `{}` to itself has no effect", p.vars[to].name),
                            )
                            .at_instr(p, mid, i),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::{ClassHierarchy, Program, ProgramBuilder};

    fn run_on(p: &Program) -> Vec<Diagnostic> {
        let h = ClassHierarchy::new(p);
        let cx = LintContext {
            program: p,
            hierarchy: &h,
            points_to: None,
            taint: None,
            races: None,
        };
        let mut out = Vec::new();
        for lint in lints() {
            lint.check(&cx, &mut out);
        }
        out
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        let mut c: Vec<_> = diags.iter().map(|d| d.code).collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn clean_method_produces_nothing() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let f = b.field(obj, "f");
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, obj);
        b.mov(main, y, x);
        b.store(main, y, f, x);
        b.entry(main);
        assert_eq!(run_on(&b.finish()), vec![]);
    }

    #[test]
    fn use_before_def_fires_once_per_variable() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let f = b.field(obj, "f");
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.mov(main, y, x); // x read, never assigned before
        b.store(main, y, f, x); // second premature read of x: not re-reported
        b.entry(main);
        let diags = run_on(&b.finish());
        assert_eq!(diags.iter().filter(|d| d.code == "L001").count(), 1);
        assert_eq!(diags[0].instr, Some(0));
    }

    #[test]
    fn params_and_this_are_defined_on_entry() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let fld = b.field(obj, "f");
        let m = b.method(obj, "f", &["a"], false);
        let a = b.param(m, 0);
        let t = b.this(m);
        let x = b.var(m, "x");
        b.mov(m, x, a);
        b.store(m, x, fld, t);
        let diags = run_on(&b.finish());
        assert!(!codes(&diags).contains(&"L001"), "{diags:?}");
    }

    #[test]
    fn dead_store_detects_overwrite_without_read() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let f = b.field(obj, "f");
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, obj); // dead: overwritten at #1
        b.alloc(main, x, a);
        b.mov(main, y, x);
        b.store(main, y, f, y);
        b.entry(main);
        let diags = run_on(&b.finish());
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "L002").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].instr, Some(0));
    }

    #[test]
    fn intervening_read_keeps_store_alive() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let f = b.field(obj, "f");
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, obj);
        b.mov(main, y, x); // read of x between the two stores
        b.alloc(main, x, obj);
        b.store(main, y, f, x);
        b.entry(main);
        let diags = run_on(&b.finish());
        assert!(!codes(&diags).contains(&"L002"), "{diags:?}");
    }

    #[test]
    fn unused_variable_is_reported_but_interface_vars_are_not() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "f", &["a"], true);
        let _unused = b.var(m, "scratch");
        let diags = run_on(&b.finish());
        let unused: Vec<_> = diags.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("scratch"));
    }

    #[test]
    fn unreachable_after_return_is_reported() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "f", &[], true);
        let x = b.var(m, "x");
        b.alloc(m, x, obj);
        b.ret(m, x);
        b.alloc(m, x, obj); // unreachable
        b.alloc(m, x, obj); // unreachable
        let diags = run_on(&b.finish());
        let hits: Vec<_> = diags.iter().filter(|d| d.code == "L004").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].instr, Some(2));
        assert!(hits[0].message.contains('2'));
    }

    #[test]
    fn self_move_is_reported() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let f = b.field(obj, "f");
        let m = b.method(obj, "f", &[], true);
        let x = b.var(m, "x");
        b.alloc(m, x, obj);
        b.mov(m, x, x);
        b.store(m, x, f, x);
        let diags = run_on(&b.finish());
        assert_eq!(diags.iter().filter(|d| d.code == "L005").count(), 1);
    }
}
