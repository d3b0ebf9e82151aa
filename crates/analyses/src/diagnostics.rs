//! The diagnostic data model, a deterministic text renderer, and the bridge
//! from [`rudoop_ir::validate`](fn@rudoop_ir::validate) errors to `E`-coded diagnostics.
//!
//! Every finding — whether a well-formedness violation or a lint hit — is a
//! [`Diagnostic`]: a stable code, a severity, an optional anchor (method and
//! instruction index, with the source [`Span`] when the program came from the
//! textual frontend), a one-line message and zero or more notes. Codes are
//! permanent identifiers: `Exxx` for validity errors, `Lxxx` for tier-1
//! (intraprocedural) lints, `Ixxx` for tier-2 (points-to-backed) lints.

use std::fmt;

use rudoop_core::json::escape;
use rudoop_ir::{Idx, MethodId, Program, Span, ValidateError};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational hint (e.g. a devirtualization opportunity).
    Note,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// The program is ill-formed or certainly wrong.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding, produced by the validator bridge or by a lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E001`, `L002`, `I004`, …). Codes never change meaning.
    pub code: &'static str,
    /// Severity after registry levels are applied.
    pub severity: Severity,
    /// The method the finding is about, if any.
    pub method: Option<MethodId>,
    /// Index of the offending instruction in the method body, if any.
    pub instr: Option<usize>,
    /// Source position ([`Span::NONE`] for programmatically built programs).
    pub span: Span,
    /// One-line description of the finding.
    pub message: String,
    /// Additional context lines, rendered indented under the message.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A program-level diagnostic with no anchor.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            method: None,
            instr: None,
            span: Span::NONE,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Anchors the diagnostic at a method header.
    #[must_use]
    pub fn in_method(mut self, program: &Program, method: MethodId) -> Self {
        self.method = Some(method);
        self.span = program.methods[method].decl_span;
        self
    }

    /// Anchors the diagnostic at the `index`-th instruction of `method`.
    #[must_use]
    pub fn at_instr(mut self, program: &Program, method: MethodId, index: usize) -> Self {
        self.method = Some(method);
        self.instr = Some(index);
        self.span = program.methods[method].span_of(index);
        self
    }

    /// Appends a note line.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// The deterministic ordering key used by [`render`] and
    /// [`sort_diagnostics`]: program-level first, then by method, then by
    /// instruction position (header anchors before body anchors), then code.
    fn sort_key(&self) -> (u32, u64, &'static str, &str) {
        let method = self.method.map_or(0, |m| m.index() as u32 + 1);
        let instr = self.instr.map_or(0, |i| i as u64 + 1);
        (method, instr, self.code, &self.message)
    }

    /// Renders the location part, e.g. `Object.main/0 @ 4:3` or
    /// `Object.main/0 @ #2` when no source span is recorded.
    fn location(&self, program: &Program) -> Option<String> {
        let method = self.method?;
        let name = program.method_display(method);
        Some(if self.span.is_known() {
            format!("{name} @ {}", self.span)
        } else if let Some(i) = self.instr {
            format!("{name} @ #{i}")
        } else {
            name
        })
    }
}

/// Sorts diagnostics into the stable render order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Whether any diagnostic in the batch is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders a batch of diagnostics as stable plain text: one
/// `severity[code] location: message` line per diagnostic, notes indented
/// beneath, sorted by (method, instruction, code) so output is reproducible
/// across runs and lint registration order.
pub fn render(program: &Program, diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<Diagnostic> = diags.to_vec();
    sort_diagnostics(&mut sorted);
    let mut out = String::new();
    for d in &sorted {
        match d.location(program) {
            Some(loc) => out.push_str(&format!(
                "{}[{}] {}: {}\n",
                d.severity, d.code, loc, d.message
            )),
            None => out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message)),
        }
        for note in &d.notes {
            out.push_str(&format!("    note: {note}\n"));
        }
    }
    out
}

/// Renders a batch of diagnostics as a JSON array, one object per
/// diagnostic in the same stable order as [`render`].
///
/// The schema is part of the CLI contract and only grows, never changes:
/// every object carries exactly the keys `code`, `level`, `span`,
/// `message`, `location`, and `notes`, in that order. `span` is
/// `"line:col"` or `null` when the program has no source text; `location`
/// is the rendered anchor (`"Class.method/arity @ 4:3"`) or `null`;
/// `notes` is an array of strings.
pub fn render_json(program: &Program, diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<Diagnostic> = diags.to_vec();
    sort_diagnostics(&mut sorted);
    let mut out = String::from("[");
    for (i, d) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let span = if d.span.is_known() {
            format!("\"{}\"", d.span)
        } else {
            "null".to_owned()
        };
        let location = match d.location(program) {
            Some(loc) => escape(&loc),
            None => "null".to_owned(),
        };
        let notes: Vec<String> = d.notes.iter().map(|n| escape(n)).collect();
        out.push_str(&format!(
            "\n  {{\"code\":\"{}\",\"level\":\"{}\",\"span\":{},\"message\":{},\
             \"location\":{},\"notes\":[{}]}}",
            d.code,
            d.severity,
            span,
            escape(&d.message),
            location,
            notes.join(",")
        ));
    }
    if !sorted.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Runs [`rudoop_ir::validate`](fn@rudoop_ir::validate) and reports every violation as an `E`-coded
/// [`Severity::Error`] diagnostic. An empty result means the program is
/// well-formed.
pub fn validate_diagnostics(program: &Program) -> Vec<Diagnostic> {
    match rudoop_ir::validate(program) {
        Ok(()) => Vec::new(),
        Err(errors) => errors
            .iter()
            .map(|e| validate_error_to_diagnostic(program, e))
            .collect(),
    }
}

/// Converts one [`ValidateError`] into its diagnostic form. Codes `E001`
/// through `E008` are stable per variant.
pub fn validate_error_to_diagnostic(program: &Program, error: &ValidateError) -> Diagnostic {
    match *error {
        ValidateError::CyclicHierarchy(c) => Diagnostic::new(
            "E001",
            Severity::Error,
            format!(
                "class `{}` participates in a superclass cycle",
                program.classes[c].name
            ),
        ),
        ValidateError::ForeignVariable { method, var } => Diagnostic::new(
            "E002",
            Severity::Error,
            format!(
                "uses variable `{}` belonging to another method",
                program.var_display(var)
            ),
        )
        .in_method(program, method),
        ValidateError::ArityMismatch {
            method,
            expected,
            found,
        } => Diagnostic::new(
            "E003",
            Severity::Error,
            format!("call passes {found} argument(s), callee expects {expected}"),
        )
        .in_method(program, method),
        ValidateError::WrongCallKind { method, target } => Diagnostic::new(
            "E004",
            Severity::Error,
            format!(
                "call targets `{}` with the wrong call kind",
                program.method_display(target)
            ),
        )
        .in_method(program, method),
        ValidateError::AbstractAllocation(c) => Diagnostic::new(
            "E005",
            Severity::Error,
            format!("allocation of abstract class `{}`", program.classes[c].name),
        ),
        ValidateError::InstanceEntryPoint(m) => Diagnostic::new(
            "E006",
            Severity::Error,
            "entry point is an instance method; entry points must be static",
        )
        .in_method(program, m),
        ValidateError::ReturnWithoutFormal(m) => Diagnostic::new(
            "E007",
            Severity::Error,
            "returns a value but declares no formal return variable",
        )
        .in_method(program, m),
        ValidateError::DanglingId { table, raw } => Diagnostic::new(
            "E008",
            Severity::Error,
            format!("dangling id {raw} in table {table}"),
        ),
        ValidateError::MalformedSpawn(m) => Diagnostic::new(
            "E009",
            Severity::Error,
            "spawn must carry a virtual run/0 call with no arguments and no result",
        )
        .in_method(program, m),
        ValidateError::UnbalancedMonitor { method } => Diagnostic::new(
            "E010",
            Severity::Error,
            "monitorenter/monitorexit regions must nest properly and close by the end of the body",
        )
        .in_method(program, method),
    }
}

/// Every `E`-code the validator bridge can emit, in code order. The
/// documentation-exhaustiveness test compares this list (plus the lint
/// registry) against the README code table.
pub const VALIDATION_CODES: &[&str] = &[
    "E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008", "E009", "E010",
];

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::ProgramBuilder;

    fn tiny() -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        (b.finish(), main)
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let (p, main) = tiny();
        let d1 = Diagnostic::new("L002", Severity::Warning, "second").at_instr(&p, main, 0);
        let d2 = Diagnostic::new("E001", Severity::Error, "first");
        // Registration order reversed relative to render order.
        let text = render(&p, &[d1, d2]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "error[E001]: first");
        assert_eq!(lines[1], "warning[L002] Object.main/0 @ #0: second");
    }

    #[test]
    fn notes_render_indented() {
        let (p, _) = tiny();
        let d = Diagnostic::new("I004", Severity::Warning, "msg").note("extra context");
        let text = render(&p, &[d]);
        assert_eq!(text, "warning[I004]: msg\n    note: extra context\n");
    }

    #[test]
    fn json_render_is_sorted_escaped_and_stable() {
        let (p, main) = tiny();
        let d1 = Diagnostic::new("L002", Severity::Warning, "has \"quotes\"\nand newline")
            .at_instr(&p, main, 0)
            .note("a note");
        let d2 = Diagnostic::new("E001", Severity::Error, "first");
        let text = render_json(&p, &[d1, d2]);
        assert_eq!(
            text,
            "[\n  {\"code\":\"E001\",\"level\":\"error\",\"span\":null,\"message\":\"first\",\
             \"location\":null,\"notes\":[]},\n  \
             {\"code\":\"L002\",\"level\":\"warning\",\"span\":null,\
             \"message\":\"has \\\"quotes\\\"\\nand newline\",\
             \"location\":\"Object.main/0 @ #0\",\"notes\":[\"a note\"]}\n]\n"
        );
    }

    #[test]
    fn json_render_of_empty_batch_is_an_empty_array() {
        let (p, _) = tiny();
        assert_eq!(render_json(&p, &[]), "[]\n");
    }

    #[test]
    fn valid_program_has_no_diagnostics() {
        let (p, _) = tiny();
        assert!(validate_diagnostics(&p).is_empty());
    }

    #[test]
    fn validate_errors_surface_with_e_codes() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let m = b.method(obj, "run", &[], false);
        b.entry(m);
        let p = b.finish();
        let diags = validate_diagnostics(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E006");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(has_errors(&diags));
    }

    #[test]
    fn severity_ordering_puts_errors_last() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
