//! The program representation: a simplified Jimple-like intermediate
//! language, directly mirroring the input relations of the paper's Figure 2.
//!
//! A [`Program`] is a set of interned tables (classes, methods, variables,
//! fields, allocation sites, invocation sites, signatures) plus instruction
//! lists inside methods. The instruction set is exactly the paper's:
//! `new` ([`Instruction::Alloc`]), `move` ([`Instruction::Move`]), heap
//! `load`/`store`, and `virtual method call` ([`InvokeKind::Virtual`]) —
//! extended with the static and special (constructor-style) calls and the
//! `cast` instruction that Doop's Jimple input also has and that the paper's
//! evaluation clients (cast-may-fail) require.

use crate::ids::{AllocId, ClassId, FieldId, GlobalId, IdxVec, InvokeId, MethodId, SigId, VarId};
use crate::span::Span;

/// A class type (element of domain `T`). Single inheritance, as in Jimple's
/// class hierarchy backbone; `superclass == None` only for the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    /// Fully qualified name, unique within the program.
    pub name: String,
    /// Direct superclass; `None` exactly for the root class.
    pub superclass: Option<ClassId>,
    /// Methods declared directly in this class (not inherited).
    pub methods: Vec<MethodId>,
    /// Whether the class can be instantiated (abstract classes cannot).
    pub is_abstract: bool,
}

/// A method signature: dispatch key shared by overriding methods
/// (element of domain `S`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Method name.
    pub name: String,
    /// Number of declared parameters, excluding `this`.
    pub arity: usize,
}

/// A method definition (element of domain `M`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Name, for display; dispatch uses `sig`.
    pub name: String,
    /// The signature this method implements (the LOOKUP key).
    pub sig: SigId,
    /// Declaring class.
    pub class: ClassId,
    /// Receiver variable; `None` for static methods (THISVAR relation).
    pub this: Option<VarId>,
    /// Formal parameters in order (FORMALARG relation).
    pub params: Vec<VarId>,
    /// Formal return variable (FORMALRETURN relation); `None` if the method
    /// never returns a reference value.
    pub ret: Option<VarId>,
    /// Instruction list (flow-insensitive: order is irrelevant to the
    /// analysis, kept for readability of dumps).
    pub body: Vec<Instruction>,
    /// True for static methods (no receiver, resolved at the call site).
    pub is_static: bool,
    /// Source position of the method header ([`Span::NONE`] when the method
    /// was built programmatically rather than parsed).
    pub decl_span: Span,
    /// Source position of each instruction, parallel to `body`. The builder
    /// keeps the two in lockstep; use [`Method::span_of`] to read safely.
    pub body_spans: Vec<Span>,
}

impl Method {
    /// Source position of the `index`-th body instruction, or
    /// [`Span::NONE`] when unrecorded.
    pub fn span_of(&self, index: usize) -> Span {
        self.body_spans.get(index).copied().unwrap_or(Span::NONE)
    }
}

/// A local variable (element of domain `V`). Unique program-wide; the
/// declaring method is explicit, matching the paper's `inMeth` convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Var {
    /// Name, unique within its method.
    pub name: String,
    /// The method this variable belongs to.
    pub method: MethodId,
}

/// An instance field (element of domain `F`). Fields are global ids; loads
/// and stores reference them directly, making the analysis field-sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declaring class (informational; field access is by id).
    pub class: ClassId,
}

/// A static (global) field. Globals hold references without any enclosing
/// object, so the analysis treats them as single context-insensitive slots
/// — exactly how Doop models Java static fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Field name.
    pub name: String,
    /// Declaring class (informational).
    pub class: ClassId,
}

/// An allocation site — the heap abstraction `H` of the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// The dynamic class of objects allocated here (HEAPTYPE relation).
    pub class: ClassId,
    /// Enclosing method.
    pub method: MethodId,
}

/// How a call site selects its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeKind {
    /// Virtual dispatch on the dynamic type of `base` (the paper's VCALL).
    Virtual {
        /// Receiver variable.
        base: VarId,
        /// Signature looked up in the receiver's dynamic class.
        sig: SigId,
    },
    /// Direct call to a statically known instance method (constructors,
    /// `super` calls); still binds `this` from `base` but skips LOOKUP.
    Special {
        /// Receiver variable.
        base: VarId,
        /// Statically resolved target.
        target: MethodId,
    },
    /// Static method call: no receiver, statically resolved.
    Static {
        /// Statically resolved target.
        target: MethodId,
    },
}

/// A method invocation site (element of domain `I`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invoke {
    /// Dispatch mode and target information.
    pub kind: InvokeKind,
    /// Actual arguments in order (ACTUALARG relation).
    pub args: Vec<VarId>,
    /// Variable receiving the return value (ACTUALRETURN relation).
    pub result: Option<VarId>,
    /// Enclosing method.
    pub method: MethodId,
}

/// One instruction of the simplified intermediate language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// `var = new C` — allocation; the class is in the alloc-site table.
    Alloc {
        /// Variable assigned.
        var: VarId,
        /// The allocation site (heap abstraction).
        alloc: AllocId,
    },
    /// `to = from` — local copy.
    Move {
        /// Destination.
        to: VarId,
        /// Source.
        from: VarId,
    },
    /// `to = (T) from` — checked cast. Points-to-wise a move; recorded so
    /// the cast-may-fail precision client can find it.
    Cast {
        /// Destination.
        to: VarId,
        /// Source.
        from: VarId,
        /// Target type of the cast.
        class: ClassId,
    },
    /// `to = base.fld` — heap load.
    Load {
        /// Destination.
        to: VarId,
        /// Base object variable.
        base: VarId,
        /// Field read.
        field: FieldId,
    },
    /// `base.fld = from` — heap store.
    Store {
        /// Base object variable.
        base: VarId,
        /// Field written.
        field: FieldId,
        /// Source value.
        from: VarId,
    },
    /// `to = global` — read a static field.
    LoadGlobal {
        /// Destination.
        to: VarId,
        /// The static field read.
        global: GlobalId,
    },
    /// `global = from` — write a static field.
    StoreGlobal {
        /// The static field written.
        global: GlobalId,
        /// Source value.
        from: VarId,
    },
    /// A call; all detail lives in the invoke-site table.
    Call {
        /// The invocation site.
        invoke: InvokeId,
    },
    /// `spawn var` — start a new thread whose body is `var.run()`. The
    /// dispatch detail lives in the invoke-site table exactly as for
    /// [`Instruction::Call`] (a virtual call of the arity-0 `run`
    /// signature with no arguments and no result), so the points-to solver
    /// resolves thread entry points through the ordinary context-sensitive
    /// call-graph machinery; the race client reinterprets these call-graph
    /// edges as thread-creation edges.
    Spawn {
        /// The invocation site of the implied `var.run()` call.
        invoke: InvokeId,
    },
    /// `join var` — wait for every thread spawned on `var` to finish.
    /// Points-to-wise a no-op; the MHP analysis uses it to order later
    /// instructions of the joining body after the joined thread.
    Join {
        /// The variable the joined thread was spawned on.
        var: VarId,
    },
    /// `monitorenter var` — acquire the lock of the object `var` points to.
    /// Points-to-wise a no-op; opens a structural lock region for the
    /// lock-set analysis. The validator requires regions to nest properly
    /// within each body.
    MonitorEnter {
        /// The lock variable.
        var: VarId,
    },
    /// `monitorexit var` — release the lock of the object `var` points to,
    /// closing the innermost open region opened on the same variable.
    MonitorExit {
        /// The lock variable.
        var: VarId,
    },
    /// `return var` — flows into the method's formal return variable.
    Return {
        /// Returned value.
        var: VarId,
    },
}

impl Instruction {
    /// The variable this instruction writes, if any: the destination of an
    /// alloc, move, cast, load or global load, or the `result` of a call's
    /// (or spawn's) invoke site. The one def/use view of the IL that every
    /// syntactic client reads.
    pub fn def(&self, program: &Program) -> Option<VarId> {
        match *self {
            Instruction::Alloc { var, .. } => Some(var),
            Instruction::Move { to, .. }
            | Instruction::Cast { to, .. }
            | Instruction::Load { to, .. }
            | Instruction::LoadGlobal { to, .. } => Some(to),
            Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                program.invokes[invoke].result
            }
            Instruction::Store { .. }
            | Instruction::StoreGlobal { .. }
            | Instruction::Join { .. }
            | Instruction::MonitorEnter { .. }
            | Instruction::MonitorExit { .. }
            | Instruction::Return { .. } => None,
        }
    }

    /// The variables this instruction reads, in operand order and without
    /// allocating: a store reads its base then its value; a call or spawn
    /// reads its receiver (none for a static call) then its arguments.
    pub fn uses<'p>(&self, program: &'p Program) -> impl Iterator<Item = VarId> + 'p {
        let (operands, args): ([Option<VarId>; 2], &'p [VarId]) = match *self {
            Instruction::Alloc { .. } | Instruction::LoadGlobal { .. } => ([None, None], &[]),
            Instruction::Move { from, .. }
            | Instruction::Cast { from, .. }
            | Instruction::Load { base: from, .. }
            | Instruction::StoreGlobal { from, .. }
            | Instruction::Join { var: from }
            | Instruction::MonitorEnter { var: from }
            | Instruction::MonitorExit { var: from }
            | Instruction::Return { var: from } => ([Some(from), None], &[]),
            Instruction::Store { base, from, .. } => ([Some(base), Some(from)], &[]),
            Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                let inv = &program.invokes[invoke];
                let receiver = match inv.kind {
                    InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => {
                        Some(base)
                    }
                    InvokeKind::Static { .. } => None,
                };
                ([receiver, None], &inv.args)
            }
        };
        operands.into_iter().flatten().chain(args.iter().copied())
    }
}

/// A stable identifier for a cast instruction: its method plus the position
/// of the `Cast` within the method body. Used by the cast-may-fail client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CastSite {
    /// Enclosing method.
    pub method: MethodId,
    /// Index into the method body.
    pub index: usize,
}

/// A whole program: the input of every analysis in this workspace.
///
/// Construct one with [`crate::ProgramBuilder`] or parse the textual format
/// with [`crate::parse_program`]. All tables are public passive data; the
/// builder and parser guarantee the well-formedness invariants checked by
/// [`validate`](crate::validate::validate).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Class table (domain `T`).
    pub classes: IdxVec<ClassId, Class>,
    /// Method table (domain `M`).
    pub methods: IdxVec<MethodId, Method>,
    /// Variable table (domain `V`).
    pub vars: IdxVec<VarId, Var>,
    /// Field table (domain `F`).
    pub fields: IdxVec<FieldId, Field>,
    /// Allocation-site table (domain `H`).
    pub allocs: IdxVec<AllocId, AllocSite>,
    /// Invocation-site table (domain `I`).
    pub invokes: IdxVec<InvokeId, Invoke>,
    /// Signature table (domain `S`).
    pub sigs: IdxVec<SigId, Signature>,
    /// Static-field table.
    pub globals: IdxVec<GlobalId, Global>,
    /// Initially reachable methods (the REACHABLE seed: `main` etc.).
    pub entry_points: Vec<MethodId>,
}

impl Program {
    /// Creates an empty program. Use [`crate::ProgramBuilder`] for anything
    /// non-trivial.
    pub fn new() -> Self {
        Program::default()
    }

    /// Total number of instructions across all method bodies — the usual
    /// "program size" measure in the evaluation tables.
    pub fn instruction_count(&self) -> usize {
        self.methods.values().map(|m| m.body.len()).sum()
    }

    /// Iterates over all cast sites in the program.
    pub fn cast_sites(&self) -> impl Iterator<Item = (CastSite, VarId, ClassId)> + '_ {
        self.methods.iter().flat_map(|(mid, m)| {
            m.body
                .iter()
                .enumerate()
                .filter_map(move |(i, instr)| match *instr {
                    Instruction::Cast { from, class, .. } => Some((
                        CastSite {
                            method: mid,
                            index: i,
                        },
                        from,
                        class,
                    )),
                    _ => None,
                })
        })
    }

    /// The body position of an invocation site: the enclosing method and
    /// the index of its `Call` (or `Spawn`) instruction. Used by
    /// diagnostics to anchor findings about call sites (every invoke built
    /// by the builder or parser has exactly one carrying instruction).
    pub fn invoke_site(&self, invoke: InvokeId) -> Option<(MethodId, usize)> {
        let method = self.invokes[invoke].method;
        self.methods[method]
            .body
            .iter()
            .position(|i| {
                matches!(
                    *i,
                    Instruction::Call { invoke: iv } | Instruction::Spawn { invoke: iv }
                        if iv == invoke
                )
            })
            .map(|index| (method, index))
    }

    /// Iterates over all spawn sites: `(method, body index, invoke)` of
    /// every [`Instruction::Spawn`] in the program, in method/body order.
    pub fn spawn_sites(&self) -> impl Iterator<Item = (MethodId, usize, InvokeId)> + '_ {
        self.methods.iter().flat_map(|(mid, m)| {
            m.body
                .iter()
                .enumerate()
                .filter_map(move |(i, instr)| match *instr {
                    Instruction::Spawn { invoke } => Some((mid, i, invoke)),
                    _ => None,
                })
        })
    }

    /// Human-readable qualified name of a method, e.g. `List.add/1`.
    pub fn method_display(&self, method: MethodId) -> String {
        let m = &self.methods[method];
        let sig = &self.sigs[m.sig];
        format!("{}.{}/{}", self.classes[m.class].name, m.name, sig.arity)
    }

    /// Human-readable name of a variable, e.g. `List.add/1::x`.
    pub fn var_display(&self, var: VarId) -> String {
        let v = &self.vars[var];
        format!("{}::{}", self.method_display(v.method), v.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn empty_program_has_no_instructions() {
        let p = Program::new();
        assert_eq!(p.instruction_count(), 0);
        assert_eq!(p.cast_sites().count(), 0);
    }

    #[test]
    fn cast_sites_are_enumerated_with_positions() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let m = b.method(obj, "main", &[], false);
        let x = b.var(m, "x");
        let y = b.var(m, "y");
        b.alloc(m, x, a);
        b.cast(m, y, x, a);
        b.entry(m);
        let p = b.finish();
        let casts: Vec<_> = p.cast_sites().collect();
        assert_eq!(casts.len(), 1);
        let (site, from, class) = casts[0];
        assert_eq!(site.index, 1);
        assert_eq!(from, x);
        assert_eq!(class, a);
    }

    #[test]
    fn def_and_uses_cover_every_instruction() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let f = b.field(obj, "f");
        let g = b.global(obj, "g");
        let callee = b.method(obj, "callee", &["a", "b"], false);
        let m = b.method(obj, "main", &[], false);
        let [x, y, z, r] = ["x", "y", "z", "r"].map(|n| b.var(m, n));
        b.alloc(m, x, obj);
        b.mov(m, y, x);
        b.cast(m, z, y, obj);
        b.load(m, y, x, f);
        b.store(m, x, f, z);
        b.load_global(m, z, g);
        b.store_global(m, g, y);
        b.vcall(m, Some(r), x, "callee", &[y, z]);
        b.specialcall(m, None, y, callee, &[z, x]);
        b.scall(m, Some(r), callee, &[z, y]);
        b.spawn(m, z);
        b.join(m, z);
        b.monitor_enter(m, x);
        b.monitor_exit(m, x);
        b.ret(m, r);
        let p = b.finish();
        let expected: [(Option<VarId>, &[VarId]); 15] = [
            (Some(x), &[]),
            (Some(y), &[x]),
            (Some(z), &[y]),
            (Some(y), &[x]),
            (None, &[x, z]),
            (Some(z), &[]),
            (None, &[y]),
            (Some(r), &[x, y, z]),
            (None, &[y, z, x]),
            (Some(r), &[z, y]),
            (None, &[z]),
            (None, &[z]),
            (None, &[x]),
            (None, &[x]),
            (None, &[r]),
        ];
        let body = &p.methods[m].body;
        assert_eq!(body.len(), expected.len());
        for (i, (instr, (def, uses))) in body.iter().zip(expected).enumerate() {
            assert_eq!(instr.def(&p), def, "def of #{i} {instr:?}");
            assert_eq!(
                instr.uses(&p).collect::<Vec<_>>(),
                uses,
                "uses of #{i} {instr:?}"
            );
        }
    }

    #[test]
    fn method_display_is_qualified() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "main", &[], false);
        let p = b.finish();
        assert_eq!(p.method_display(m), "Object.main/0");
    }
}
