//! A human-readable textual format for [`Program`]s, with a parser and a
//! pretty-printer.
//!
//! This plays the role of the paper's Jimple frontend output: analysis
//! inputs can be written, versioned and inspected as text. The format is
//! line-oriented:
//!
//! ```text
//! class Object
//! class List extends Object
//! field List.head
//!
//! method List.add(x) {
//!   this.head = x
//! }
//!
//! method Object.main() static {
//!   l = new List
//!   o = new Object
//!   l.add(o)
//!   h = l.head
//!   c = cast List h
//!   return c
//! }
//!
//! entry Object.main
//! ```
//!
//! Locals are implicitly declared on first use. Virtual calls are
//! `r = recv.name(args)`, static calls `r = static Class.name(args)`,
//! special (constructor-style) calls `r = special recv Class.name(args)`.
//! Static fields are declared with `global Class.name` and accessed as
//! `x = global name` / `global name = x`. Fields and globals are declared
//! qualified and referenced by simple name, or qualified by their declaring
//! class where the simple name is shared (`h = l.List.head`,
//! `l.List.head = o`, `x = global C.name`); the printer qualifies exactly
//! those references, and the parser reports a bare name that two
//! declarations share as ambiguous.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::builder::ProgramBuilder;
use crate::ids::{ClassId, FieldId, GlobalId, IdxVec, MethodId, VarId};
use crate::program::{Instruction, InvokeKind, Program};
use crate::span::Span;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

fn tokenize(line: usize, s: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '#' {
            break;
        } else if c == '/' {
            chars.next();
            if chars.peek() == Some(&'/') {
                break;
            }
            return err(line, "unexpected `/`");
        } else if c.is_alphanumeric() || c == '_' || c == '$' {
            let mut ident = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' || c == '$' {
                    ident.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Tok::Ident(ident));
        } else if "=.,(){}".contains(c) {
            chars.next();
            toks.push(Tok::Punct(c));
        } else {
            return err(line, format!("unexpected character {c:?}"));
        }
    }
    Ok(toks)
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => f.write_str(s),
            Tok::Punct(c) => write!(f, "{c}"),
        }
    }
}

/// Cursor over one line's tokens.
struct Cur<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
}

impl<'a> Cur<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }
    fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => err(self.line, format!("expected identifier, found {other:?}")),
        }
    }
    fn punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if *p == c => Ok(()),
            other => err(self.line, format!("expected {c:?}, found {other:?}")),
        }
    }
    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(p)) if *p == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn at_end(&self) -> bool {
        self.pos == self.toks.len()
    }
    fn expect_end(&self) -> Result<(), ParseError> {
        if self.at_end() {
            Ok(())
        } else {
            err(
                self.line,
                format!("trailing tokens: {:?}", &self.toks[self.pos..]),
            )
        }
    }
}

/// Parses the textual program format.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered, including name-resolution
/// failures (unknown classes, ambiguous fields, duplicate methods).
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    // (1-based line, 1-based column of the first token, tokens).
    let lines: Vec<(usize, u32, Vec<Tok>)> = source
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let col = (l.len() - l.trim_start().len() + 1) as u32;
            tokenize(i + 1, l).map(|t| (i + 1, col, t))
        })
        .collect::<Result<_, _>>()?;
    let lines: Vec<_> = lines
        .into_iter()
        .filter(|(_, _, t)| !t.is_empty())
        .collect();

    let mut b = ProgramBuilder::new();
    let mut fields: Members<FieldId> = HashMap::new();
    let mut globals: Members<GlobalId> = HashMap::new();
    // (class, name, params, static) -> MethodId, declared in pass 1.
    let mut methods: HashMap<(String, String, usize), MethodId> = HashMap::new();

    // Pass 1: classes in order (extends must refer to an earlier class, as
    // the printer emits them topologically).
    for (line, _, toks) in &lines {
        let mut cur = Cur {
            toks,
            pos: 0,
            line: *line,
        };
        if cur.eat_ident("class") {
            let name = cur.ident()?.to_owned();
            let superclass = if cur.eat_ident("extends") {
                let sup = cur.ident()?;
                Some(b.class_id(sup).ok_or_else(|| ParseError {
                    line: *line,
                    message: format!("unknown superclass {sup:?} (declare it first)"),
                })?)
            } else {
                None
            };
            let is_abstract = cur.eat_ident("abstract");
            cur.expect_end()?;
            if is_abstract {
                b.abstract_class(&name, superclass);
            } else {
                b.class(&name, superclass);
            }
        }
    }

    // Pass 2: fields and method headers.
    let mut i = 0;
    while i < lines.len() {
        let (line, col, toks) = &lines[i];
        let mut cur = Cur {
            toks,
            pos: 0,
            line: *line,
        };
        if cur.eat_ident("field") {
            let class = cur.ident()?;
            cur.punct('.')?;
            let name = cur.ident()?;
            cur.expect_end()?;
            let cid = class_of(&b, *line, class)?;
            let fid = b.field(cid, name);
            fields
                .entry(name.to_owned())
                .or_default()
                .push((class.to_owned(), fid));
        } else if cur.eat_ident("global") {
            let class = cur.ident()?;
            cur.punct('.')?;
            let name = cur.ident()?;
            cur.expect_end()?;
            let cid = class_of(&b, *line, class)?;
            let gid = b.global(cid, name);
            globals
                .entry(name.to_owned())
                .or_default()
                .push((class.to_owned(), gid));
        } else if cur.eat_ident("method") {
            let class = cur.ident()?.to_owned();
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            cur.punct('(')?;
            let mut params = Vec::new();
            if !cur.eat_punct(')') {
                loop {
                    params.push(cur.ident()?.to_owned());
                    if cur.eat_punct(')') {
                        break;
                    }
                    cur.punct(',')?;
                }
            }
            let is_static = cur.eat_ident("static");
            cur.punct('{')?;
            cur.expect_end()?;
            let cid = class_of(&b, *line, &class)?;
            let key = (class, name.clone(), params.len());
            if methods.contains_key(&key) {
                return err(
                    *line,
                    format!("duplicate method {name}/{} in class", params.len()),
                );
            }
            let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
            b.at(Span::new(*line as u32, *col));
            let mid = b.method(cid, &name, &param_refs, is_static);
            methods.insert(key, mid);
            // Skip body lines until matching '}'.
            i += 1;
            while i < lines.len() {
                let (_, _, t) = &lines[i];
                if t.len() == 1 && t[0] == Tok::Punct('}') {
                    break;
                }
                i += 1;
            }
        } else if !cur.eat_ident("class") && !cur.eat_ident("entry") {
            return err(
                *line,
                format!(
                    "unexpected `{}` at top level (expected class, field, global, method or entry)",
                    toks[0]
                ),
            );
        }
        i += 1;
    }

    // Pass 3: bodies and entries.
    let mut i = 0;
    while i < lines.len() {
        let (line, _, toks) = &lines[i];
        let mut cur = Cur {
            toks,
            pos: 0,
            line: *line,
        };
        if cur.eat_ident("entry") {
            let class = cur.ident()?.to_owned();
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            cur.expect_end()?;
            let mid = find_entry_method(&methods, *line, &class, &name)?;
            b.entry(mid);
        } else if cur.eat_ident("method") {
            let class = cur.ident()?.to_owned();
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            cur.punct('(')?;
            let mut arity = 0;
            if !cur.eat_punct(')') {
                loop {
                    cur.ident()?;
                    arity += 1;
                    if cur.eat_punct(')') {
                        break;
                    }
                    cur.punct(',')?;
                }
            }
            let mid = methods[&(class, name, arity)];
            let mut locals: HashMap<String, VarId> = HashMap::new();
            {
                let p = b.peek();
                let m = &p.methods[mid];
                if let Some(t) = m.this {
                    locals.insert("this".to_owned(), t);
                }
                for &pv in &m.params {
                    locals.insert(p.vars[pv].name.clone(), pv);
                }
            }
            i += 1;
            while i < lines.len() {
                let (bline, bcol, btoks) = &lines[i];
                if btoks.len() == 1 && btoks[0] == Tok::Punct('}') {
                    break;
                }
                b.at(Span::new(*bline as u32, *bcol));
                parse_stmt(
                    &mut b,
                    &methods,
                    &fields,
                    &globals,
                    mid,
                    &mut locals,
                    *bline,
                    btoks,
                )?;
                i += 1;
            }
        }
        i += 1;
    }

    Ok(b.finish())
}

fn class_of(b: &ProgramBuilder, line: usize, name: &str) -> Result<ClassId, ParseError> {
    b.class_id(name).ok_or_else(|| ParseError {
        line,
        message: format!("unknown class {name:?}"),
    })
}

fn find_entry_method(
    methods: &HashMap<(String, String, usize), MethodId>,
    line: usize,
    class: &str,
    name: &str,
) -> Result<MethodId, ParseError> {
    let matches: Vec<MethodId> = methods
        .iter()
        .filter(|((c, n, _), _)| c == class && n == name)
        .map(|(_, &m)| m)
        .collect();
    match matches.as_slice() {
        [m] => Ok(*m),
        [] => err(line, format!("unknown method {class}.{name}")),
        _ => err(
            line,
            format!("ambiguous method {class}.{name}: give full arity via a wrapper"),
        ),
    }
}

fn local(
    b: &mut ProgramBuilder,
    mid: MethodId,
    locals: &mut HashMap<String, VarId>,
    name: &str,
) -> VarId {
    if let Some(&v) = locals.get(name) {
        return v;
    }
    let v = b.var(mid, name);
    locals.insert(name.to_owned(), v);
    v
}

/// Fields (or globals) by simple name, each with its declaring class.
type Members<I> = HashMap<String, Vec<(String, I)>>;

/// Resolves a field or global reference: a bare `name` must be declared
/// once program-wide, a qualified `Class.name` once in that class.
fn member<I: Copy>(
    members: &Members<I>,
    kind: &str,
    line: usize,
    class: Option<&str>,
    name: &str,
) -> Result<I, ParseError> {
    let declared = members.get(name).map(Vec::as_slice).unwrap_or_default();
    let mut hits = declared
        .iter()
        .filter(|(c, _)| class.is_none_or(|q| q == c));
    let shown = match class {
        Some(c) => format!("{c}.{name}"),
        None => name.to_owned(),
    };
    match (hits.next(), hits.next()) {
        (Some(&(_, id)), None) => Ok(id),
        (Some(_), Some(_)) if class.is_none() => err(
            line,
            format!("ambiguous {kind} name {name:?}: write it as Class.{name}"),
        ),
        (Some(_), Some(_)) => err(line, format!("duplicate {kind} {shown:?}")),
        (None, _) => err(line, format!("unknown {kind} {shown:?}")),
    }
}

/// Reads a field or global reference, `name` or `Class.name`, whose first
/// identifier is `first`.
fn member_ref<'a>(
    cur: &mut Cur<'a>,
    first: &'a str,
) -> Result<(Option<&'a str>, &'a str), ParseError> {
    if cur.eat_punct('.') {
        Ok((Some(first), cur.ident()?))
    } else {
        Ok((None, first))
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_call(
    b: &mut ProgramBuilder,
    methods: &HashMap<(String, String, usize), MethodId>,
    mid: MethodId,
    locals: &mut HashMap<String, VarId>,
    line: usize,
    cur: &mut Cur<'_>,
    result: Option<VarId>,
    first: &str,
) -> Result<(), ParseError> {
    // Forms (after optional `r =`):
    //   static Class.name(args)
    //   special recv Class.name(args)
    //   recv.name(args)
    let parse_args = |b: &mut ProgramBuilder,
                      locals: &mut HashMap<String, VarId>,
                      cur: &mut Cur<'_>|
     -> Result<Vec<VarId>, ParseError> {
        let mut args = Vec::new();
        cur.punct('(')?;
        if !cur.eat_punct(')') {
            loop {
                let a = cur.ident()?;
                args.push(local(b, mid, locals, a));
                if cur.eat_punct(')') {
                    break;
                }
                cur.punct(',')?;
            }
        }
        Ok(args)
    };

    match first {
        "static" => {
            let class = cur.ident()?.to_owned();
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            let args = parse_args(b, locals, cur)?;
            cur.expect_end()?;
            let target = *methods
                .get(&(class.clone(), name.clone(), args.len()))
                .ok_or_else(|| ParseError {
                    line,
                    message: format!("unknown static method {class}.{name}/{}", args.len()),
                })?;
            b.scall(mid, result, target, &args);
        }
        "special" => {
            let recv = cur.ident()?.to_owned();
            let base = local(b, mid, locals, &recv);
            let class = cur.ident()?.to_owned();
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            let args = parse_args(b, locals, cur)?;
            cur.expect_end()?;
            let target = *methods
                .get(&(class.clone(), name.clone(), args.len()))
                .ok_or_else(|| ParseError {
                    line,
                    message: format!("unknown method {class}.{name}/{}", args.len()),
                })?;
            b.specialcall(mid, result, base, target, &args);
        }
        recv => {
            let base = local(b, mid, locals, recv);
            cur.punct('.')?;
            let name = cur.ident()?.to_owned();
            let args = parse_args(b, locals, cur)?;
            cur.expect_end()?;
            b.vcall(mid, result, base, &name, &args);
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn parse_stmt(
    b: &mut ProgramBuilder,
    methods: &HashMap<(String, String, usize), MethodId>,
    fields: &Members<FieldId>,
    globals: &Members<GlobalId>,
    mid: MethodId,
    locals: &mut HashMap<String, VarId>,
    line: usize,
    toks: &[Tok],
) -> Result<(), ParseError> {
    let mut cur = Cur { toks, pos: 0, line };
    let first = cur.ident()?.to_owned();

    if first == "global" {
        // `global g = x` — static-field store.
        let word = cur.ident()?;
        let (class, name) = member_ref(&mut cur, word)?;
        cur.punct('=')?;
        let from_name = cur.ident()?;
        let from = local(b, mid, locals, from_name);
        cur.expect_end()?;
        let gid = member(globals, "global", line, class, name)?;
        b.store_global(mid, gid, from);
        return Ok(());
    }

    if first == "return" {
        let v = cur.ident()?;
        let var = local(b, mid, locals, v);
        cur.expect_end()?;
        b.ret(mid, var);
        return Ok(());
    }

    // Concurrency statements: `spawn x`, `join x`, `monitorenter x`,
    // `monitorexit x`. All are keyword + single variable; a following `=`
    // or `.` means the keyword is being used as a plain variable name
    // instead (e.g. `spawn = y`), so require the next token to be the
    // operand identifier ending the line.
    if matches!(
        first.as_str(),
        "spawn" | "join" | "monitorenter" | "monitorexit"
    ) && matches!(cur.peek(), Some(Tok::Ident(_)))
        && cur.toks.len() == 2
    {
        let v = cur.ident()?;
        let var = local(b, mid, locals, v);
        cur.expect_end()?;
        match first.as_str() {
            "spawn" => {
                b.spawn(mid, var);
            }
            "join" => b.join(mid, var),
            "monitorenter" => b.monitor_enter(mid, var),
            _ => b.monitor_exit(mid, var),
        }
        return Ok(());
    }

    // `x.f = y` or `x.C.f = y` (store), `x.f(args)` (call, no result), or
    // `x = ...`.
    if cur.eat_punct('.') {
        let second = cur.ident()?;
        if matches!(cur.peek(), Some(Tok::Punct('('))) {
            // receiver.name(args) with no result
            let base = local(b, mid, locals, &first);
            let mut args = Vec::new();
            cur.punct('(')?;
            if !cur.eat_punct(')') {
                loop {
                    let a = cur.ident()?;
                    args.push(local(b, mid, locals, a));
                    if cur.eat_punct(')') {
                        break;
                    }
                    cur.punct(',')?;
                }
            }
            cur.expect_end()?;
            b.vcall(mid, None, base, second, &args);
        } else {
            let (class, name) = member_ref(&mut cur, second)?;
            cur.punct('=')?;
            let from_name = cur.ident()?;
            let from = local(b, mid, locals, from_name);
            cur.expect_end()?;
            let base = local(b, mid, locals, &first);
            let field = member(fields, "field", line, class, name)?;
            b.store(mid, base, field, from);
        }
        return Ok(());
    }

    if first == "static" || first == "special" {
        // Call without result.
        return parse_call(b, methods, mid, locals, line, &mut cur, None, &first);
    }

    // Assignment forms: `x = ...`
    cur.punct('=')?;
    let to = local(b, mid, locals, &first);
    let head = cur.ident()?.to_owned();
    match head.as_str() {
        "global" => {
            // `x = global g` — static-field load.
            let word = cur.ident()?;
            let (class, name) = member_ref(&mut cur, word)?;
            let gid = member(globals, "global", line, class, name)?;
            cur.expect_end()?;
            b.load_global(mid, to, gid);
        }
        "new" => {
            let class = cur.ident()?;
            let cid = class_of(b, line, class)?;
            cur.expect_end()?;
            b.alloc(mid, to, cid);
        }
        "cast" => {
            let class = cur.ident()?;
            let cid = class_of(b, line, class)?;
            let from_name = cur.ident()?;
            let from = local(b, mid, locals, from_name);
            cur.expect_end()?;
            b.cast(mid, to, from, cid);
        }
        "static" | "special" => {
            parse_call(b, methods, mid, locals, line, &mut cur, Some(to), &head)?;
        }
        src => {
            if cur.eat_punct('.') {
                let second = cur.ident()?;
                if matches!(cur.peek(), Some(Tok::Punct('('))) {
                    // x = recv.name(args): rebuild via parse_call path.
                    let base = local(b, mid, locals, src);
                    let mut args = Vec::new();
                    cur.punct('(')?;
                    if !cur.eat_punct(')') {
                        loop {
                            let a = cur.ident()?;
                            args.push(local(b, mid, locals, a));
                            if cur.eat_punct(')') {
                                break;
                            }
                            cur.punct(',')?;
                        }
                    }
                    cur.expect_end()?;
                    b.vcall(mid, Some(to), base, second, &args);
                } else {
                    let (class, name) = member_ref(&mut cur, second)?;
                    cur.expect_end()?;
                    let base = local(b, mid, locals, src);
                    let field = member(fields, "field", line, class, name)?;
                    b.load(mid, to, base, field);
                }
            } else {
                cur.expect_end()?;
                let from = local(b, mid, locals, src);
                b.mov(mid, to, from);
            }
        }
    }
    Ok(())
}

/// Pretty-prints `program` in the format accepted by [`parse_program`].
///
/// Classes are emitted in id order, which is a valid declaration order
/// because builders create superclasses before subclasses; if a program
/// violates that, the printed text will not re-parse. A field or global
/// reference is printed `Class.name` when another field (or global)
/// shares its simple name, and by simple name otherwise.
pub fn print_program(program: &Program) -> String {
    let names = MemberNames::new(program);
    let mut out = String::new();
    for class in program.classes.values() {
        write!(out, "class {}", class.name).unwrap();
        if let Some(sup) = class.superclass {
            write!(out, " extends {}", program.classes[sup].name).unwrap();
        }
        if class.is_abstract {
            out.push_str(" abstract");
        }
        out.push('\n');
    }
    out.push('\n');
    for field in program.fields.values() {
        writeln!(
            out,
            "field {}.{}",
            program.classes[field.class].name, field.name
        )
        .unwrap();
    }
    for global in program.globals.values() {
        writeln!(
            out,
            "global {}.{}",
            program.classes[global.class].name, global.name
        )
        .unwrap();
    }
    out.push('\n');
    for (mid, method) in program.methods.iter() {
        let params: Vec<&str> = method
            .params
            .iter()
            .map(|&p| program.vars[p].name.as_str())
            .collect();
        write!(
            out,
            "method {}.{}({})",
            program.classes[method.class].name,
            method.name,
            params.join(", ")
        )
        .unwrap();
        if method.is_static {
            out.push_str(" static");
        }
        out.push_str(" {\n");
        for instr in &method.body {
            out.push_str("  ");
            print_instr(&mut out, program, &names, instr);
            out.push('\n');
        }
        out.push_str("}\n\n");
        let _ = mid;
    }
    for &m in &program.entry_points {
        let method = &program.methods[m];
        writeln!(
            out,
            "entry {}.{}",
            program.classes[method.class].name, method.name
        )
        .unwrap();
    }
    out
}

/// How the printer refers to fields and globals.
struct MemberNames {
    fields: IdxVec<FieldId, String>,
    globals: IdxVec<GlobalId, String>,
}

impl MemberNames {
    fn new(p: &Program) -> Self {
        let fields = p.fields.values().map(|f| (f.name.as_str(), f.class));
        let globals = p.globals.values().map(|g| (g.name.as_str(), g.class));
        MemberNames {
            fields: member_refs(p, fields.collect()).into_iter().collect(),
            globals: member_refs(p, globals.collect()).into_iter().collect(),
        }
    }
}

/// The reference to each `(simple name, declaring class)` declaration:
/// `Class.name` where another declaration shares the simple name, the
/// simple name otherwise.
fn member_refs(p: &Program, decls: Vec<(&str, ClassId)>) -> Vec<String> {
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for &(name, _) in &decls {
        *uses.entry(name).or_default() += 1;
    }
    decls
        .iter()
        .map(|&(name, class)| match uses[name] {
            1 => name.to_owned(),
            _ => format!("{}.{name}", p.classes[class].name),
        })
        .collect()
}

fn print_instr(out: &mut String, p: &Program, names: &MemberNames, instr: &Instruction) {
    let v = |id: VarId| p.vars[id].name.clone();
    match *instr {
        Instruction::Alloc { var, alloc } => write!(
            out,
            "{} = new {}",
            v(var),
            p.classes[p.allocs[alloc].class].name
        )
        .unwrap(),
        Instruction::Move { to, from } => write!(out, "{} = {}", v(to), v(from)).unwrap(),
        Instruction::Cast { to, from, class } => write!(
            out,
            "{} = cast {} {}",
            v(to),
            p.classes[class].name,
            v(from)
        )
        .unwrap(),
        Instruction::Load { to, base, field } => {
            write!(out, "{} = {}.{}", v(to), v(base), names.fields[field]).unwrap()
        }
        Instruction::Store { base, field, from } => {
            write!(out, "{}.{} = {}", v(base), names.fields[field], v(from)).unwrap()
        }
        Instruction::LoadGlobal { to, global } => {
            write!(out, "{} = global {}", v(to), names.globals[global]).unwrap()
        }
        Instruction::StoreGlobal { global, from } => {
            write!(out, "global {} = {}", names.globals[global], v(from)).unwrap()
        }
        Instruction::Return { var } => write!(out, "return {}", v(var)).unwrap(),
        Instruction::Spawn { invoke } => {
            let inv = &p.invokes[invoke];
            let base = match inv.kind {
                InvokeKind::Virtual { base, .. } => base,
                InvokeKind::Special { base, .. } => base,
                InvokeKind::Static { .. } => {
                    // Unprintable (the validator rejects it); emit a best
                    // effort so dumps of invalid programs stay readable.
                    write!(out, "spawn $invalid").unwrap();
                    return;
                }
            };
            write!(out, "spawn {}", v(base)).unwrap()
        }
        Instruction::Join { var } => write!(out, "join {}", v(var)).unwrap(),
        Instruction::MonitorEnter { var } => write!(out, "monitorenter {}", v(var)).unwrap(),
        Instruction::MonitorExit { var } => write!(out, "monitorexit {}", v(var)).unwrap(),
        Instruction::Call { invoke } => {
            let inv = &p.invokes[invoke];
            if let Some(r) = inv.result {
                write!(out, "{} = ", v(r)).unwrap();
            }
            let args: Vec<String> = inv.args.iter().map(|&a| v(a)).collect();
            match inv.kind {
                InvokeKind::Virtual { base, sig } => {
                    write!(out, "{}.{}({})", v(base), p.sigs[sig].name, args.join(", ")).unwrap()
                }
                InvokeKind::Special { base, target } => {
                    let t = &p.methods[target];
                    write!(
                        out,
                        "special {} {}.{}({})",
                        v(base),
                        p.classes[t.class].name,
                        t.name,
                        args.join(", ")
                    )
                    .unwrap()
                }
                InvokeKind::Static { target } => {
                    let t = &p.methods[target];
                    write!(
                        out,
                        "static {}.{}({})",
                        p.classes[t.class].name,
                        t.name,
                        args.join(", ")
                    )
                    .unwrap()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    const SAMPLE: &str = r#"
class Object
class List extends Object
class A extends Object
field List.head

method List.add(x) {
  this.head = x
}

method List.get() {
  r = this.head
  return r
}

method Object.main() static {
  l = new List
  o = new A
  l.add(o)
  h = l.get()
  c = cast A h
}

entry Object.main
"#;

    #[test]
    fn sample_parses_and_validates() {
        let p = parse_program(SAMPLE).unwrap();
        assert_eq!(p.classes.len(), 3);
        assert_eq!(p.fields.len(), 1);
        assert_eq!(p.methods.len(), 3);
        assert_eq!(p.entry_points.len(), 1);
        assert_eq!(validate(&p), Ok(()));
        assert_eq!(p.cast_sites().count(), 1);
    }

    #[test]
    fn print_parse_print_is_a_fixpoint() {
        let p = parse_program(SAMPLE).unwrap();
        let printed = print_program(&p);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(print_program(&reparsed), printed);
        assert_eq!(reparsed.instruction_count(), p.instruction_count());
    }

    #[test]
    fn unknown_class_is_an_error() {
        let e = parse_program("method Missing.f() static {\n}\n").unwrap_err();
        assert!(e.message.contains("unknown class"), "{e}");
    }

    #[test]
    fn unknown_field_is_an_error() {
        let src = "class C\nmethod C.f() {\n  x = this.nope\n}\n";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn ambiguous_field_is_an_error() {
        let src = "class C\nclass D\nfield C.f\nfield D.f\nmethod C.g() {\n  x = this.f\n}\n";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("ambiguous field"), "{e}");
    }

    /// Shared member names are written `Class.name`, in both directions;
    /// unshared ones stay bare.
    #[test]
    fn shared_member_names_are_qualified() {
        let src = "class C
class D
field C.f
field D.f
field D.g
global C.s
global D.s
method C.main() static {
  c = new C
  d = new D
  c.C.f = d
  d.D.f = c
  d.g = c
  x = d.D.f
  global D.s = x
  y = global C.s
}
entry C.main
";
        let p = parse_program(src).unwrap();
        assert_eq!(validate(&p), Ok(()));
        let printed = print_program(&p);
        assert_eq!(printed, print_program(&parse_program(&printed).unwrap()));
        for line in [
            "c.C.f = d",
            "d.D.f = c",
            "d.g = c",
            "x = d.D.f",
            "global D.s = x",
        ] {
            assert!(printed.contains(line), "{line:?} in\n{printed}");
        }
        let store = |body: &str| {
            let src = format!("class C\nfield C.f\nmethod C.m() {{\n  {body}\n}}\n");
            parse_program(&src).map(|_| ()).map_err(|e| e.message)
        };
        assert_eq!(store("this.C.f = this"), Ok(()));
        assert_eq!(store("this.f = this"), Ok(()));
        let e = store("this.D.f = this").unwrap_err();
        assert!(e.contains("unknown field \"D.f\""), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "# header\nclass C // trailing\n\nmethod C.m() static {\n  // body comment\n}\nentry C.m\n";
        let p = parse_program(src).unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.entry_points.len(), 1);
    }

    #[test]
    fn calls_without_result_parse() {
        let src = "class C\nmethod C.f() {\n}\nmethod C.main() static {\n  x = new C\n  x.f()\n  special x C.f()\n  static C.main()\n}\nentry C.main\n";
        let p = parse_program(src).unwrap();
        assert_eq!(p.invokes.len(), 3);
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn globals_parse_and_round_trip() {
        let src = "class C
global C.shared
method C.main() static {
  x = new C
  global shared = x
  y = global shared
}
entry C.main
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(validate(&p), Ok(()));
        let printed = print_program(&p);
        let q = parse_program(&printed).unwrap();
        assert_eq!(q.globals.len(), 1);
        assert_eq!(print_program(&q), printed);
    }

    #[test]
    fn unknown_global_is_an_error() {
        let src = "class C
method C.main() static {
  x = global nope
}
";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("unknown global"), "{e}");
    }

    #[test]
    fn concurrency_statements_parse_and_round_trip() {
        let src = "class C
class Worker extends C
field C.slot

method Worker.run() {
  this.slot = this
}

method C.main() static {
  w = new Worker
  lk = new C
  monitorenter lk
  spawn w
  monitorexit lk
  join w
}

entry C.main
";
        let p = parse_program(src).unwrap();
        assert_eq!(validate(&p), Ok(()));
        assert_eq!(p.spawn_sites().count(), 1);
        // The spawn's invoke is a plain virtual run/0 call.
        let (_, _, inv) = p.spawn_sites().next().unwrap();
        match p.invokes[inv].kind {
            InvokeKind::Virtual { sig, .. } => {
                assert_eq!(p.sigs[sig].name, "run");
                assert_eq!(p.sigs[sig].arity, 0);
            }
            ref k => panic!("spawn invoke is {k:?}"),
        }
        let printed = print_program(&p);
        assert!(printed.contains("spawn w"), "{printed}");
        assert!(printed.contains("monitorenter lk"), "{printed}");
        let q = parse_program(&printed).unwrap();
        assert_eq!(print_program(&q), printed);
    }

    #[test]
    fn spawn_as_variable_name_still_parses_as_assignment() {
        let src = "class C
method C.main() static {
  x = new C
  spawn = x
  join = spawn
}
entry C.main
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.spawn_sites().count(), 0);
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn unrecognized_top_level_line_is_an_error() {
        let e = parse_program("hello world\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unexpected `hello` at top level"), "{e}");
        let src = "class Object\n\nmethod Object.main() static {\n}\n}\nentry Object.main\n";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.line, 5, "{e}");
        assert!(e.message.contains("unexpected `}`"), "{e}");
    }

    #[test]
    fn forward_superclass_reference_is_an_error() {
        let e = parse_program("class A extends B\nclass B\n").unwrap_err();
        assert!(e.message.contains("unknown superclass"), "{e}");
    }
}
