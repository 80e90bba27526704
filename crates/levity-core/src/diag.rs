//! Source spans and diagnostics.
//!
//! Every front-end error in the pipeline — lexing, parsing, kind errors,
//! levity-restriction violations (§5.1) — is reported as a [`Diagnostic`]
//! carrying a [`Span`] into the original source text.
//!
//! The paper notes (§8.2) that GHC performs the levity checks in the
//! desugarer, where producing good errors is harder; we keep spans through
//! the whole pipeline so the late checks can still point at source.

use std::error::Error;
use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The empty span at offset zero, used for generated code.
    pub const SYNTHETIC: Span = Span { start: 0, end: 0 };

    /// Smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Is this the synthetic (generated-code) span?
    pub fn is_synthetic(self) -> bool {
        self == Span::SYNTHETIC
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A warning; compilation continues.
    Warning,
    /// An error; the program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable machine-readable codes for the errors the paper discusses, so
/// tests can assert on the *reason* a program was rejected rather than on
/// message text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Lexical error.
    Lex,
    /// Parse error.
    Parse,
    /// Unbound variable / constructor / type.
    Scope,
    /// A top-level name declared twice, or one already in scope
    /// redeclared.
    Duplicate,
    /// Ordinary type mismatch.
    TypeMismatch,
    /// Kind mismatch (e.g. instantiating `forall (a :: Type)` at `Int#`,
    /// §3.1 — the Instantiation Principle enforced through kinds).
    KindMismatch,
    /// Occurs-check failure during unification.
    OccursCheck,
    /// §5.1 restriction 1: a levity-polymorphic *binder*.
    LevityPolymorphicBinder,
    /// §5.1 restriction 2: a levity-polymorphic function *argument*.
    LevityPolymorphicArgument,
    /// A type family whose equations live at different representations
    /// (§7.1: `F` with `Int#`/`Char#` branches is ill-kinded now).
    InhomogeneousFamily,
    /// Instance / class resolution failure.
    ClassResolution,
    /// Arity or saturation error (e.g. unsaturated primitive at
    /// levity-polymorphic type, §8.2).
    Saturation,
    /// Code generation hit an abstract representation — this is the error
    /// the §5.1 restrictions exist to make unreachable; reachable only via
    /// the unchecked entry points in `levity-compile`.
    AbstractRepresentation,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Lex => "E-lex",
            ErrorCode::Parse => "E-parse",
            ErrorCode::Scope => "E-scope",
            ErrorCode::Duplicate => "E-duplicate",
            ErrorCode::TypeMismatch => "E-type",
            ErrorCode::KindMismatch => "E-kind",
            ErrorCode::OccursCheck => "E-occurs",
            ErrorCode::LevityPolymorphicBinder => "E-levity-binder",
            ErrorCode::LevityPolymorphicArgument => "E-levity-argument",
            ErrorCode::InhomogeneousFamily => "E-family-rep",
            ErrorCode::ClassResolution => "E-class",
            ErrorCode::Saturation => "E-saturation",
            ErrorCode::AbstractRepresentation => "E-abstract-rep",
        };
        f.write_str(s)
    }
}

/// A diagnostic message tied to a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Warning or error.
    pub severity: Severity,
    /// Stable machine-readable code.
    pub code: ErrorCode,
    /// Human-readable message (lowercase, no trailing period).
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// Extra notes, e.g. "in the expansion of ...".
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: ErrorCode, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: ErrorCode, message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Appends a note, returning `self` for chaining.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders with line/column information resolved against `source`.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = line_col(source, self.span.start);
        let mut out = format!(
            "{}[{}]: {} at {}:{}",
            self.severity, self.code, self.message, line, col
        );
        for note in &self.notes {
            out.push_str("\n  note: ");
            out.push_str(note);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

impl Error for Diagnostic {}

/// One-based line and column of a byte offset in `source`.
pub fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for (i, c) in source.char_indices() {
        if i >= offset {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// A collection of diagnostics accumulated by a pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty sink.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Were any *errors* (not just warnings) recorded?
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// All recorded diagnostics in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join() {
        assert_eq!(Span::new(3, 5).to(Span::new(10, 12)), Span::new(3, 12));
        assert_eq!(Span::new(10, 12).to(Span::new(3, 5)), Span::new(3, 12));
    }

    #[test]
    fn line_col_basic() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 1), (1, 2));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 7), (3, 2));
    }

    #[test]
    fn diagnostics_sink_tracks_errors() {
        let mut diags = Diagnostics::new();
        assert!(!diags.has_errors());
        diags.push(Diagnostic::warning(
            ErrorCode::Parse,
            "odd layout",
            Span::SYNTHETIC,
        ));
        assert!(!diags.has_errors());
        diags.push(Diagnostic::error(
            ErrorCode::LevityPolymorphicBinder,
            "binder `x` has levity-polymorphic type",
            Span::new(4, 5),
        ));
        assert!(diags.has_errors());
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn diagnostic_display_includes_code_and_notes() {
        let d = Diagnostic::error(
            ErrorCode::KindMismatch,
            "expected Type, got TYPE IntRep",
            Span::SYNTHETIC,
        )
        .with_note("in the application of bTwice");
        let shown = d.to_string();
        assert!(shown.contains("E-kind"));
        assert!(shown.contains("note: in the application of bTwice"));
    }

    #[test]
    fn render_resolves_line_and_column() {
        let src = "x = 1\ny = oops";
        let d = Diagnostic::error(
            ErrorCode::Scope,
            "unbound variable `oops`",
            Span::new(10, 14),
        );
        let rendered = d.render(src);
        assert!(rendered.contains("2:5"), "{rendered}");
    }

    #[test]
    fn error_codes_display_stably() {
        assert_eq!(
            ErrorCode::LevityPolymorphicBinder.to_string(),
            "E-levity-binder"
        );
        assert_eq!(
            ErrorCode::LevityPolymorphicArgument.to_string(),
            "E-levity-argument"
        );
    }
}
