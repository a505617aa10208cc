//! Diagnostics: severity, lint codes, and the report container.
//!
//! This is the severity model every static analysis in the workspace
//! reports through: the IR passes in this crate, and the admission
//! checks `cnn-he` runs before and around them.

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Purely informational (budget summaries, utilization figures).
    Info,
    /// The circuit will run but wastes budget or is fragile.
    Warn,
    /// The circuit will panic or silently corrupt the payload if run.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of a static analysis.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable machine-readable code (`chain-exhausted`, `missing-galois-key`, …).
    pub code: &'static str,
    /// The offending [`crate::NodeId`], when attributable.
    pub op_index: Option<usize>,
    /// Human-readable description of the violation.
    pub message: String,
    /// Concrete remediation, when one is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &'static str, op_index: Option<usize>, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Error,
            code,
            op_index,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn warn(code: &'static str, op_index: Option<usize>, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warn,
            code,
            op_index,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn info(code: &'static str, op_index: Option<usize>, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Info,
            code,
            op_index,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    fix: {s}")?;
        }
        Ok(())
    }
}

/// All findings of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when a diagnostic with the given code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Appends every diagnostic of `other` to this report.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// One-line digest for embedding in typed errors (e.g. a serving
    /// engine's admission rejection): severity counts plus the first
    /// error's code and message. Use [`Self::render`] for the full
    /// multi-line report.
    pub fn summary(&self) -> String {
        let counts = format!(
            "{} error(s), {} warning(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn)
        );
        match self.errors().next() {
            Some(first) => format!("{counts}; first: [{}] {}", first.code, first.message),
            None => counts,
        }
    }

    /// Multi-line rendering, errors first.
    pub fn render(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_ordering() {
        let mut r = LintReport::default();
        r.push(Diagnostic::info("summary", None, "fine"));
        r.push(
            Diagnostic::error("chain-exhausted", Some(3), "too deep")
                .with_suggestion("add 2 primes"),
        );
        r.push(Diagnostic::warn("low-headroom", Some(1), "6 bits left"));
        assert!(r.has_errors());
        assert!(r.has_code("chain-exhausted"));
        assert!(!r.has_code("missing-galois-key"));
        assert_eq!(r.count(Severity::Error), 1);
        let text = r.render();
        // errors render first, fix lines attached
        let epos = text.find("error[chain-exhausted]").unwrap();
        let ipos = text.find("info[summary]").unwrap();
        assert!(epos < ipos);
        assert!(text.contains("fix: add 2 primes"));
        assert!(text.contains("1 error(s), 1 warning(s), 1 note(s)"));
    }

    #[test]
    fn summary_is_one_line_with_first_error() {
        let mut r = LintReport::default();
        assert_eq!(r.summary(), "0 error(s), 0 warning(s)");
        r.push(Diagnostic::warn("low-headroom", None, "6 bits left"));
        r.push(Diagnostic::error("chain-exhausted", Some(3), "too deep"));
        r.push(Diagnostic::error("batch-too-large", None, "overflow"));
        let s = r.summary();
        assert!(!s.contains('\n'));
        assert!(s.starts_with("2 error(s), 1 warning(s)"));
        assert!(s.contains("[chain-exhausted] too deep"));
    }

    #[test]
    fn extend_merges_reports() {
        let mut a = LintReport::default();
        a.push(Diagnostic::warn("low-headroom", None, "thin"));
        let mut b = LintReport::default();
        b.push(Diagnostic::error("dead-op", Some(2), "unused"));
        a.extend(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert!(a.has_errors());
    }
}
