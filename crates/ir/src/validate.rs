//! Well-formedness checking for [`Program`]s.
//!
//! The analyses assume structural invariants (acyclic hierarchy, variables
//! used in the method that declares them, arities matching). Workload
//! generators and the parser funnel through [`validate`] in tests so a
//! malformed program is rejected with a precise error instead of producing
//! nonsense analysis results.

use std::fmt;

use crate::ids::{ClassId, MethodId, VarId};
use crate::program::{Instruction, InvokeKind, Program};

/// A well-formedness violation found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The superclass chain of the class revisits itself.
    CyclicHierarchy(ClassId),
    /// A variable is used by an instruction of a method other than its own.
    ForeignVariable {
        /// The method containing the offending instruction.
        method: MethodId,
        /// The variable that belongs elsewhere.
        var: VarId,
    },
    /// A call site passes a number of arguments different from the callee's
    /// (or signature's) arity.
    ArityMismatch {
        /// The offending invocation's enclosing method.
        method: MethodId,
        /// Expected arity.
        expected: usize,
        /// Passed arguments.
        found: usize,
    },
    /// A `Special` or `Static` call targets a method of the wrong kind.
    WrongCallKind {
        /// The offending invocation's enclosing method.
        method: MethodId,
        /// The miscalled target.
        target: MethodId,
    },
    /// An allocation site instantiates an abstract class.
    AbstractAllocation(ClassId),
    /// An entry-point method is an instance method (entry points are seeded
    /// without a receiver, so they must be static).
    InstanceEntryPoint(MethodId),
    /// A `Return` occurs in a method without a formal return variable.
    ReturnWithoutFormal(MethodId),
    /// An id stored in a table points past the end of its target table.
    DanglingId {
        /// Which table the bad reference was found in.
        table: &'static str,
        /// Raw value of the dangling id.
        raw: u32,
    },
    /// A `Spawn` instruction's invoke site is not the implied `var.run()`
    /// shape: a virtual call of an arity-0 signature named `run`, with no
    /// arguments and no result.
    MalformedSpawn(MethodId),
    /// A method body's `monitorenter`/`monitorexit` instructions do not
    /// bracket properly: an exit without a matching open region on the same
    /// variable, or a region left open at the end of the body.
    UnbalancedMonitor {
        /// The method with the broken bracketing.
        method: MethodId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::CyclicHierarchy(c) => {
                write!(f, "class {c} participates in a superclass cycle")
            }
            ValidateError::ForeignVariable { method, var } => {
                write!(
                    f,
                    "method {method} uses variable {var} belonging to another method"
                )
            }
            ValidateError::ArityMismatch {
                method,
                expected,
                found,
            } => {
                write!(
                    f,
                    "call in {method} passes {found} arguments, callee expects {expected}"
                )
            }
            ValidateError::WrongCallKind { method, target } => {
                write!(
                    f,
                    "call in {method} targets {target} with the wrong call kind"
                )
            }
            ValidateError::AbstractAllocation(c) => {
                write!(f, "allocation of abstract class {c}")
            }
            ValidateError::InstanceEntryPoint(m) => {
                write!(f, "entry point {m} is an instance method")
            }
            ValidateError::ReturnWithoutFormal(m) => {
                write!(
                    f,
                    "method {m} returns a value but has no formal return variable"
                )
            }
            ValidateError::DanglingId { table, raw } => {
                write!(f, "dangling id {raw} in table {table}")
            }
            ValidateError::MalformedSpawn(m) => {
                write!(
                    f,
                    "spawn in {m} must carry a virtual run/0 call with no args and no result"
                )
            }
            ValidateError::UnbalancedMonitor { method } => {
                write!(
                    f,
                    "method {method} has unbalanced monitorenter/monitorexit bracketing"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks every structural invariant the analyses rely on.
///
/// # Errors
///
/// Returns the list of **all** violations found, not just the first (empty ≠
/// returned: a well-formed program yields `Ok(())`). The only exception is
/// id integrity: when any [`ValidateError::DanglingId`] is found, the
/// per-instruction checks are skipped — they index the very tables the
/// dangling ids point past — and the dangling-id errors (plus any hierarchy
/// cycles) are reported alone.
pub fn validate(program: &Program) -> Result<(), Vec<ValidateError>> {
    let mut errors = Vec::new();

    check_hierarchy(program, &mut errors);
    check_ids(program, &mut errors);
    if errors
        .iter()
        .any(|e| matches!(e, ValidateError::DanglingId { .. }))
    {
        // Id integrity failed: the per-instruction checks below index tables.
        return Err(errors);
    }
    check_bodies(program, &mut errors);
    check_invokes(program, &mut errors);
    check_allocs(program, &mut errors);
    check_entries(program, &mut errors);

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check_hierarchy(program: &Program, errors: &mut Vec<ValidateError>) {
    for (cid, _) in program.classes.iter() {
        // Floyd-free simple walk with a step bound.
        let mut cur = Some(cid);
        let mut steps = 0usize;
        while let Some(c) = cur {
            if steps > program.classes.len() {
                errors.push(ValidateError::CyclicHierarchy(cid));
                break;
            }
            steps += 1;
            cur = program.classes.get(c).and_then(|cl| cl.superclass);
        }
    }
}

fn check_ids(program: &Program, errors: &mut Vec<ValidateError>) {
    let nc = program.classes.len();
    let nm = program.methods.len();
    let nv = program.vars.len();
    let nf = program.fields.len();
    let ng = program.globals.len();
    let na = program.allocs.len();
    let ni = program.invokes.len();
    let ns = program.sigs.len();
    let mut bad = |table: &'static str, raw: u32, len: usize| {
        if raw as usize >= len {
            errors.push(ValidateError::DanglingId { table, raw });
        }
    };
    for class in program.classes.values() {
        if let Some(sup) = class.superclass {
            bad("classes.superclass", sup.0, nc);
        }
        for &m in &class.methods {
            bad("classes.methods", m.0, nm);
        }
    }
    for method in program.methods.values() {
        bad("methods.sig", method.sig.0, ns);
        bad("methods.class", method.class.0, nc);
        for v in method
            .this
            .iter()
            .chain(method.params.iter())
            .chain(method.ret.iter())
        {
            bad("methods.vars", v.0, nv);
        }
        for instr in &method.body {
            match *instr {
                Instruction::Alloc { var, alloc } => {
                    bad("body.vars", var.0, nv);
                    bad("body.allocs", alloc.0, na);
                }
                Instruction::Move { to, from } => {
                    bad("body.vars", to.0, nv);
                    bad("body.vars", from.0, nv);
                }
                Instruction::Cast { to, from, class } => {
                    bad("body.vars", to.0, nv);
                    bad("body.vars", from.0, nv);
                    bad("body.classes", class.0, nc);
                }
                Instruction::Load { to, base, field } => {
                    bad("body.vars", to.0, nv);
                    bad("body.vars", base.0, nv);
                    bad("body.fields", field.0, nf);
                }
                Instruction::Store { base, field, from } => {
                    bad("body.vars", base.0, nv);
                    bad("body.vars", from.0, nv);
                    bad("body.fields", field.0, nf);
                }
                Instruction::LoadGlobal { to, global } => {
                    bad("body.vars", to.0, nv);
                    bad("body.globals", global.0, ng);
                }
                Instruction::StoreGlobal { global, from } => {
                    bad("body.vars", from.0, nv);
                    bad("body.globals", global.0, ng);
                }
                Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                    bad("body.invokes", invoke.0, ni)
                }
                Instruction::Join { var }
                | Instruction::MonitorEnter { var }
                | Instruction::MonitorExit { var } => bad("body.vars", var.0, nv),
                Instruction::Return { var } => bad("body.vars", var.0, nv),
            }
        }
    }
    for var in program.vars.values() {
        bad("vars.method", var.method.0, nm);
    }
    for field in program.fields.values() {
        bad("fields.class", field.class.0, nc);
    }
    for global in program.globals.values() {
        bad("globals.class", global.class.0, nc);
    }
    for alloc in program.allocs.values() {
        bad("allocs.class", alloc.class.0, nc);
        bad("allocs.method", alloc.method.0, nm);
    }
    for invoke in program.invokes.values() {
        bad("invokes.method", invoke.method.0, nm);
        for &a in &invoke.args {
            bad("invokes.args", a.0, nv);
        }
        if let Some(r) = invoke.result {
            bad("invokes.result", r.0, nv);
        }
        match invoke.kind {
            InvokeKind::Virtual { base, sig } => {
                bad("invokes.base", base.0, nv);
                bad("invokes.sig", sig.0, ns);
            }
            InvokeKind::Special { base, target } => {
                bad("invokes.base", base.0, nv);
                bad("invokes.target", target.0, nm);
            }
            InvokeKind::Static { target } => bad("invokes.target", target.0, nm),
        }
    }
    for &m in &program.entry_points {
        bad("entry_points", m.0, nm);
    }
}

fn check_bodies(program: &Program, errors: &mut Vec<ValidateError>) {
    let check_var = |mid: MethodId, var: VarId, errors: &mut Vec<ValidateError>| {
        if program.vars[var].method != mid {
            errors.push(ValidateError::ForeignVariable { method: mid, var });
        }
    };
    for (mid, method) in program.methods.iter() {
        // Open monitor regions, innermost last. Exits must match the top of
        // the stack exactly (proper nesting on the same variable) and every
        // region must be closed before the body ends.
        let mut monitors: Vec<VarId> = Vec::new();
        let mut monitor_reported = false;
        for instr in &method.body {
            match *instr {
                Instruction::Alloc { var, .. }
                | Instruction::LoadGlobal { to: var, .. }
                | Instruction::StoreGlobal { from: var, .. } => check_var(mid, var, errors),
                Instruction::Move { to, from } | Instruction::Cast { to, from, .. } => {
                    check_var(mid, to, errors);
                    check_var(mid, from, errors);
                }
                Instruction::Load { to, base, .. } => {
                    check_var(mid, to, errors);
                    check_var(mid, base, errors);
                }
                Instruction::Store { base, from, .. } => {
                    check_var(mid, base, errors);
                    check_var(mid, from, errors);
                }
                Instruction::Call { invoke } => {
                    let inv = &program.invokes[invoke];
                    for &a in &inv.args {
                        check_var(mid, a, errors);
                    }
                    if let Some(r) = inv.result {
                        check_var(mid, r, errors);
                    }
                    match inv.kind {
                        InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => {
                            check_var(mid, base, errors)
                        }
                        InvokeKind::Static { .. } => {}
                    }
                }
                Instruction::Spawn { invoke } => {
                    let inv = &program.invokes[invoke];
                    let shape_ok = matches!(
                        inv.kind,
                        InvokeKind::Virtual { sig, .. }
                            if program.sigs[sig].name == "run" && program.sigs[sig].arity == 0
                    ) && inv.args.is_empty()
                        && inv.result.is_none();
                    if !shape_ok {
                        errors.push(ValidateError::MalformedSpawn(mid));
                    }
                    if let InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } =
                        inv.kind
                    {
                        check_var(mid, base, errors);
                    }
                }
                Instruction::Join { var } => check_var(mid, var, errors),
                Instruction::MonitorEnter { var } => {
                    check_var(mid, var, errors);
                    monitors.push(var);
                }
                Instruction::MonitorExit { var } => {
                    check_var(mid, var, errors);
                    if monitors.last() == Some(&var) {
                        monitors.pop();
                    } else if !monitor_reported {
                        errors.push(ValidateError::UnbalancedMonitor { method: mid });
                        monitor_reported = true;
                    }
                }
                Instruction::Return { var } => {
                    check_var(mid, var, errors);
                    if method.ret.is_none() {
                        errors.push(ValidateError::ReturnWithoutFormal(mid));
                    }
                }
            }
        }
        if !monitors.is_empty() && !monitor_reported {
            errors.push(ValidateError::UnbalancedMonitor { method: mid });
        }
    }
}

fn check_invokes(program: &Program, errors: &mut Vec<ValidateError>) {
    for invoke in program.invokes.values() {
        match invoke.kind {
            InvokeKind::Virtual { sig, .. } => {
                let arity = program.sigs[sig].arity;
                if invoke.args.len() != arity {
                    errors.push(ValidateError::ArityMismatch {
                        method: invoke.method,
                        expected: arity,
                        found: invoke.args.len(),
                    });
                }
            }
            InvokeKind::Special { target, .. } => {
                let callee = &program.methods[target];
                if callee.is_static {
                    errors.push(ValidateError::WrongCallKind {
                        method: invoke.method,
                        target,
                    });
                }
                if invoke.args.len() != callee.params.len() {
                    errors.push(ValidateError::ArityMismatch {
                        method: invoke.method,
                        expected: callee.params.len(),
                        found: invoke.args.len(),
                    });
                }
            }
            InvokeKind::Static { target } => {
                let callee = &program.methods[target];
                if !callee.is_static {
                    errors.push(ValidateError::WrongCallKind {
                        method: invoke.method,
                        target,
                    });
                }
                if invoke.args.len() != callee.params.len() {
                    errors.push(ValidateError::ArityMismatch {
                        method: invoke.method,
                        expected: callee.params.len(),
                        found: invoke.args.len(),
                    });
                }
            }
        }
    }
}

fn check_allocs(program: &Program, errors: &mut Vec<ValidateError>) {
    for alloc in program.allocs.values() {
        if program.classes[alloc.class].is_abstract {
            errors.push(ValidateError::AbstractAllocation(alloc.class));
        }
    }
}

fn check_entries(program: &Program, errors: &mut Vec<ValidateError>) {
    for &m in &program.entry_points {
        if !program.methods[m].is_static {
            errors.push(ValidateError::InstanceEntryPoint(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::IdxVec;

    #[test]
    fn well_formed_program_validates() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn cyclic_hierarchy_is_rejected() {
        let mut b = ProgramBuilder::new();
        let a = b.class("A", None);
        let c = b.class("B", Some(a));
        let mut p = b.finish();
        p.classes[a].superclass = Some(c);
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::CyclicHierarchy(_))));
    }

    #[test]
    fn foreign_variable_is_rejected() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m1 = b.method(obj, "f", &[], true);
        let m2 = b.method(obj, "g", &[], true);
        let x1 = b.var(m1, "x");
        let x2 = b.var(m2, "x");
        b.mov(m1, x1, x2);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::ForeignVariable { .. })));
    }

    #[test]
    fn dangling_global_is_reported_once() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let g = b.global(obj, "g");
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.load_global(main, x, g);
        b.entry(main);
        let mut p = b.finish();
        p.globals = IdxVec::new();
        assert_eq!(
            validate(&p),
            Err(vec![ValidateError::DanglingId {
                table: "body.globals",
                raw: g.0,
            }])
        );
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let callee = b.method(obj, "f", &["a"], true);
        b.scall(main, None, callee, &[]);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::ArityMismatch { .. })));
    }

    #[test]
    fn static_call_to_instance_method_is_rejected() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let callee = b.method(obj, "f", &[], false);
        b.scall(main, None, callee, &[]);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::WrongCallKind { .. })));
    }

    #[test]
    fn abstract_allocation_is_rejected() {
        let mut b = ProgramBuilder::new();
        let obj = b.abstract_class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::AbstractAllocation(_))));
    }

    #[test]
    fn spawn_built_by_the_builder_validates() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let worker = b.class("Worker", Some(obj));
        b.method(worker, "run", &[], false);
        let main = b.method(obj, "main", &[], true);
        let w = b.var(main, "w");
        b.alloc(main, w, worker);
        b.spawn(main, w);
        b.join(main, w);
        b.entry(main);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn malformed_spawn_is_rejected() {
        use crate::program::Instruction;
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let w = b.var(main, "w");
        b.alloc(main, w, obj);
        // A vcall with the wrong signature, rewritten into a Spawn.
        let inv = b.vcall(main, None, w, "step", &[]);
        b.entry(main);
        let mut p = b.finish();
        let pos = p.methods[main]
            .body
            .iter()
            .position(|i| matches!(i, Instruction::Call { .. }))
            .unwrap();
        p.methods[main].body[pos] = Instruction::Spawn { invoke: inv };
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::MalformedSpawn(_))));
    }

    #[test]
    fn unbalanced_monitors_are_rejected() {
        // Exit without enter.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.monitor_exit(main, x);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::UnbalancedMonitor { .. })));

        // Region left open.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.monitor_enter(main, x);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::UnbalancedMonitor { .. })));

        // Interleaved (not properly nested) regions.
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, obj);
        b.alloc(main, y, obj);
        b.monitor_enter(main, x);
        b.monitor_enter(main, y);
        b.monitor_exit(main, x);
        b.monitor_exit(main, y);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::UnbalancedMonitor { .. })));
    }

    #[test]
    fn properly_nested_monitors_validate() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, obj);
        b.alloc(main, y, obj);
        b.monitor_enter(main, x);
        b.monitor_enter(main, y);
        b.monitor_exit(main, y);
        b.monitor_exit(main, x);
        b.entry(main);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn instance_entry_point_is_rejected() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "run", &[], false);
        b.entry(m);
        let errs = validate(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::InstanceEntryPoint(_))));
    }
}
