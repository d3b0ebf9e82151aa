//! Whole-program pointer flow-graph extraction.
//!
//! The cut-shortcut pre-analysis (see `rudoop-core`'s `cutshortcut`
//! module) needs a classified view of how reference values move through a
//! method body *before* any points-to information exists: which variables
//! copy into which ([`CopyKind`]), and which variables are consumed by
//! something other than a copy ([`VarUse`]). This module builds that view
//! — the static pointer flow graph of the program — in one deterministic
//! pass over the IL.
//!
//! The graph is purely syntactic: interprocedural edges (argument passing,
//! returns) are *not* included, because they are exactly the edges the
//! cut-shortcut pass decides to cut or reroute.

use crate::ids::{FieldId, GlobalId, IdxVec, InvokeId, VarId};
use crate::program::{Instruction, InvokeKind, Program};

/// Why a copy edge `from → to` exists in the flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// A `to = from` move.
    Move,
    /// A `to = (T) from` cast (points-to-wise a move).
    Cast,
    /// A `return from` binding the method's formal return variable.
    Return,
}

/// A non-copy use of a variable: anything that consumes the variable's
/// points-to set other than copying it wholesale into another variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarUse {
    /// The variable is stored into a field: `base.field = var`.
    StoreValue {
        /// Base variable of the store.
        base: VarId,
        /// Field written.
        field: FieldId,
    },
    /// The variable is the base of a store: `var.field = from`.
    StoreBase {
        /// Field written.
        field: FieldId,
    },
    /// The variable is the base of a load: `to = var.field`.
    LoadBase {
        /// Field read.
        field: FieldId,
        /// Destination of the load.
        to: VarId,
    },
    /// The variable is written to a static field.
    GlobalStore {
        /// The global written.
        global: GlobalId,
    },
    /// The variable is passed as an actual argument of a call.
    CallArg {
        /// The invocation site.
        invoke: InvokeId,
        /// Argument position.
        index: usize,
    },
    /// The variable is the receiver of a virtual/special call (or spawn).
    CallReceiver {
        /// The invocation site.
        invoke: InvokeId,
    },
    /// The variable is consumed by a concurrency instruction
    /// (`join`/`monitorenter`/`monitorexit`): its points-to set feeds the
    /// race client's happens-before/lock-set reasoning, so it must be
    /// treated as an opaque use.
    Sync,
}

/// The static pointer flow graph of a whole program: per-variable copy
/// successors, non-copy uses, and direct definition counts.
///
/// Construction is deterministic: edges and uses appear in method-table
/// then body order, so two builds over the same program are identical.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    /// Copy successors of each variable (`to`, kind). `Return` edges point
    /// at the enclosing method's formal return variable and exist only
    /// when the method has one.
    pub copy_out: IdxVec<VarId, Vec<(VarId, CopyKind)>>,
    /// Non-copy uses of each variable.
    pub uses: IdxVec<VarId, Vec<VarUse>>,
    /// Number of *direct* instruction definitions of each variable
    /// (alloc, move/cast/load destination, global load, call result).
    /// Interprocedural definitions — formals receiving actuals, `this`
    /// receiving receivers, results receiving returns — are not counted.
    pub defs: IdxVec<VarId, u32>,
    /// Total copy edges (move + cast + return bindings), for stats.
    pub copy_edge_count: usize,
    /// Total non-copy uses recorded, for stats.
    pub use_count: usize,
}

impl FlowGraph {
    /// Builds the flow graph of `program`.
    pub fn build(program: &Program) -> FlowGraph {
        let n = program.vars.len();
        let mut copy_out: IdxVec<VarId, Vec<(VarId, CopyKind)>> =
            (0..n).map(|_| Vec::new()).collect();
        let mut uses: IdxVec<VarId, Vec<VarUse>> = (0..n).map(|_| Vec::new()).collect();
        let mut defs: IdxVec<VarId, u32> = (0..n).map(|_| 0).collect();
        let mut copy_edge_count = 0usize;
        let mut use_count = 0usize;

        let copy = |copy_out: &mut IdxVec<VarId, Vec<(VarId, CopyKind)>>,
                    from: VarId,
                    to: VarId,
                    kind: CopyKind| {
            copy_out[from].push((to, kind));
        };
        for (_, method) in program.methods.iter() {
            for instr in &method.body {
                if let Some(d) = instr.def(program) {
                    defs[d] += 1;
                }
                match *instr {
                    Instruction::Alloc { .. } | Instruction::LoadGlobal { .. } => {}
                    Instruction::Move { to, from } => {
                        copy(&mut copy_out, from, to, CopyKind::Move);
                        copy_edge_count += 1;
                    }
                    Instruction::Cast { to, from, .. } => {
                        copy(&mut copy_out, from, to, CopyKind::Cast);
                        copy_edge_count += 1;
                    }
                    Instruction::Load { to, base, field } => {
                        uses[base].push(VarUse::LoadBase { field, to });
                        use_count += 1;
                    }
                    Instruction::Store { base, field, from } => {
                        uses[base].push(VarUse::StoreBase { field });
                        uses[from].push(VarUse::StoreValue { base, field });
                        use_count += 2;
                    }
                    Instruction::StoreGlobal { global, from } => {
                        uses[from].push(VarUse::GlobalStore { global });
                        use_count += 1;
                    }
                    Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                        let inv = &program.invokes[invoke];
                        for (index, &arg) in inv.args.iter().enumerate() {
                            uses[arg].push(VarUse::CallArg { invoke, index });
                            use_count += 1;
                        }
                        match inv.kind {
                            InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => {
                                uses[base].push(VarUse::CallReceiver { invoke });
                                use_count += 1;
                            }
                            InvokeKind::Static { .. } => {}
                        }
                    }
                    Instruction::Join { var }
                    | Instruction::MonitorEnter { var }
                    | Instruction::MonitorExit { var } => {
                        uses[var].push(VarUse::Sync);
                        use_count += 1;
                    }
                    Instruction::Return { var } => {
                        // Points-to-wise a return is a copy into the formal
                        // return variable; with no formal return it is a
                        // no-op, exactly as in the solver.
                        if let Some(ret) = method.ret {
                            copy(&mut copy_out, var, ret, CopyKind::Return);
                            copy_edge_count += 1;
                        }
                    }
                }
            }
        }
        FlowGraph {
            copy_out,
            uses,
            defs,
            copy_edge_count,
            use_count,
        }
    }

    /// The copy closure of `from`: every variable reachable from `from`
    /// through copy edges alone, including `from` itself, in deterministic
    /// BFS order.
    pub fn copy_closure(&self, from: VarId) -> Vec<VarId> {
        let mut visited = vec![from];
        let mut seen: Vec<bool> = vec![false; self.copy_out.len()];
        seen[from.0 as usize] = true;
        let mut head = 0;
        while head < visited.len() {
            let v = visited[head];
            head += 1;
            for &(to, _) in &self.copy_out[v] {
                if !seen[to.0 as usize] {
                    seen[to.0 as usize] = true;
                    visited.push(to);
                }
            }
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn copies_and_uses_are_classified() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let m = b.method(obj, "main", &[], true);
        let x = b.var(m, "x");
        let y = b.var(m, "y");
        let bx = b.var(m, "bx");
        let out = b.var(m, "out");
        b.alloc(m, x, obj);
        b.alloc(m, bx, box_c);
        b.mov(m, y, x);
        b.store(m, bx, f, y);
        b.load(m, out, bx, f);
        b.entry(m);
        let p = b.finish();
        let g = FlowGraph::build(&p);
        assert_eq!(g.copy_out[x], vec![(y, CopyKind::Move)]);
        assert_eq!(g.uses[y], vec![VarUse::StoreValue { base: bx, field: f }]);
        assert_eq!(
            g.uses[bx],
            vec![
                VarUse::StoreBase { field: f },
                VarUse::LoadBase { field: f, to: out }
            ]
        );
        assert_eq!(g.defs[x], 1);
        assert_eq!(g.defs[out], 1);
        assert_eq!(g.copy_edge_count, 1);
    }

    #[test]
    fn return_binds_formal_return() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        b.entry(id_m);
        let p = b.finish();
        let ret = p.methods.values().next().unwrap().ret.unwrap();
        let g = FlowGraph::build(&p);
        assert_eq!(g.copy_out[xp], vec![(ret, CopyKind::Return)]);
        assert_eq!(g.copy_closure(xp), vec![xp, ret]);
    }

    #[test]
    fn copy_closure_follows_chains_once() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "main", &[], true);
        let a = b.var(m, "a");
        let c = b.var(m, "c");
        let d = b.var(m, "d");
        b.mov(m, c, a);
        b.mov(m, d, c);
        b.mov(m, a, d); // cycle back
        b.entry(m);
        let p = b.finish();
        let g = FlowGraph::build(&p);
        assert_eq!(g.copy_closure(a), vec![a, c, d]);
    }
}
