//! # rudoop-ir
//!
//! The intermediate-language substrate of the `rudoop` workspace: a
//! simplified Jimple-like representation of Java-style programs, exactly the
//! input language of *"Introspective Analysis: Context-Sensitivity, Across
//! the Board"* (PLDI 2014), §2.
//!
//! The crate provides:
//!
//! - compact interned identifiers for the paper's domains ([`ids`]),
//! - the program model with `new`/`move`/`load`/`store`/`cast`/call
//!   instructions ([`program`]),
//! - class-hierarchy queries — subtyping and virtual dispatch, the paper's
//!   LOOKUP ([`hierarchy`]),
//! - a fluent [`ProgramBuilder`] for generating programs in code,
//! - a textual format with parser and printer ([`text`]), standing in for a
//!   bytecode frontend,
//! - structural well-formedness checking ([`mod@validate`]).
//!
//! # Examples
//!
//! ```
//! use rudoop_ir::{parse_program, ClassHierarchy, validate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "class Object\n\
//!      class A extends Object\n\
//!      method A.f() {\n}\n\
//!      method Object.main() static {\n  a = new A\n  a.f()\n}\n\
//!      entry Object.main\n",
//! )?;
//! validate(&program).map_err(|e| format!("{e:?}"))?;
//! let hierarchy = ClassHierarchy::new(&program);
//! let a = program.classes.iter().find(|(_, c)| c.name == "A").unwrap().0;
//! let object = program.classes.iter().find(|(_, c)| c.name == "Object").unwrap().0;
//! assert!(hierarchy.is_subtype(a, object));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod builder;
pub mod flow;
pub mod hierarchy;
pub mod ids;
pub mod program;
pub mod rng;
pub mod scc;
pub mod span;
pub mod taint;
pub mod text;
pub mod validate;

pub use builder::ProgramBuilder;
pub use flow::{CopyKind, FlowGraph, VarUse};
pub use hierarchy::ClassHierarchy;
pub use ids::{AllocId, ClassId, FieldId, GlobalId, Idx, IdxVec, InvokeId, MethodId, SigId, VarId};
pub use program::{
    AllocSite, CastSite, Class, Field, Global, Instruction, Invoke, InvokeKind, Method, Program,
    Signature, Var,
};
pub use scc::{naive_call_graph, naive_components, SccDag, StaticCallGraph};
pub use span::Span;
pub use taint::{TaintSpec, TaintSpecError};
pub use text::{parse_program, print_program, ParseError};
pub use validate::{validate, ValidateError};
