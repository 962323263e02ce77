//! The four rule families plus cross-cutting diagnostics.
//!
//! Every rule consumes [`SourceFile`]s and emits
//! [`Violation`]s. Rules skip `#[cfg(test)]` regions, and each violation can
//! be suppressed by a justification annotation for the rule's id on (or in
//! the comment block directly above) the offending line.

pub mod atomics;
pub mod lints;
pub mod lock_order;
pub mod model;
pub mod unsafe_blocks;

use crate::source::SourceFile;

/// Identifies a rule family (and its annotation id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Lock acquisitions must follow the configured hierarchy.
    LockOrder,
    /// Every `Ordering::*` use must carry a justification.
    Atomic,
    /// Crate roots must carry the configured `unsafe_code` lint attribute.
    UnsafeCode,
    /// Every `unsafe` block/fn/impl in the carve-out crates must carry a
    /// justification.
    UnsafeBlock,
    /// The annotation itself is malformed or names an unknown rule.
    Annotation,
}

impl Rule {
    /// The rule id used in `// audit: <rule> ok — …` comments and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::Atomic => "atomic",
            Rule::UnsafeCode => "unsafe-code",
            Rule::UnsafeBlock => "unsafe",
            Rule::Annotation => "annotation",
        }
    }

    /// Rule ids annotations may legitimately name.
    pub const ANNOTATABLE: [Rule; 3] = [Rule::LockOrder, Rule::Atomic, Rule::UnsafeBlock];
}

/// One confirmed finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Validates the annotations themselves: malformed markers and unknown rule
/// ids are violations (a typo'd annotation must not silently suppress
/// nothing), as are annotations whose justification is empty or a `TODO`.
pub fn check_annotations(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (line, problem) in &file.malformed {
        if file.is_test_line(*line) {
            continue; // test fixtures may spell annotations however they like
        }
        out.push(Violation {
            rule: Rule::Annotation,
            file: file.rel.clone(),
            line: *line,
            message: format!("malformed audit annotation: {problem}"),
        });
    }
    for ann in file.annotations() {
        if file.is_test_line(ann.line) {
            continue;
        }
        if !Rule::ANNOTATABLE.iter().any(|r| r.id() == ann.rule) {
            out.push(Violation {
                rule: Rule::Annotation,
                file: file.rel.clone(),
                line: ann.line,
                message: format!(
                    "annotation names unknown rule `{}` (expected one of: {})",
                    ann.rule,
                    Rule::ANNOTATABLE.map(Rule::id).join(", ")
                ),
            });
        } else if ann.reason.is_empty() || ann.reason.starts_with("TODO") {
            out.push(Violation {
                rule: Rule::Annotation,
                file: file.rel.clone(),
                line: ann.line,
                message: format!(
                    "annotation for `{}` has no justification — replace the stub with a reason",
                    ann.rule
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_validation_catches_typos_and_stubs() {
        let src = "\
let a = 1; // audit: panics ok — unknown rule id
let b = 2; // audit: atomic ok — TODO: justify
let c = 3; // audit: atomic ok
let d = 4; // audit: atomic ok — a real reason
";
        let f = SourceFile::from_source("t.rs", src);
        let v = check_annotations(&f);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::Annotation));
        assert!(v[0].message.contains("unknown rule"));
        assert!(v[1].message.contains("no justification"));
    }
}
