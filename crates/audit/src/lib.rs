//! # sec-audit — workspace invariant auditor
//!
//! The serving stack's correctness rests on rules no compiler checks: a
//! documented lock hierarchy, deliberate atomic `Ordering` choices, and
//! panic-free read paths that hold node locks. This crate is the
//! static-analysis layer that keeps those invariants true by construction.
//! It scans every configured source root with a small hand-rolled Rust lexer
//! (no `syn` — the workspace has no parser crates) and enforces five rule
//! families, configured by the in-repo `audit.toml`:
//!
//! 1. **lock-hierarchy** — `.read()`/`.write()` acquisitions of the known
//!    lock fields must follow the documented partial order
//!    (`archive → slab directory → node slab → object map`);
//! 2. **atomic** — every `Ordering::*` use must carry a justification
//!    comment, and the full inventory is renderable as a markdown report;
//! 3. **panic** — designated read-path modules may not `unwrap`/`expect`/
//!    `panic!`/`unreachable!` or index slices without a justification;
//! 4. **shared-read** — listed retrieval/metrics APIs must keep `&self`
//!    receivers;
//! 5. **unsafe** — every `unsafe` block/fn in the `unsafe_code` carve-out
//!    crates (the SIMD field kernels) must carry a justification, and the
//!    full unsafe inventory is renderable alongside the atomics table.
//!
//! Violations are suppressible only by justification comments of the form
//! `// audit: <rule> ok — <reason>` on, or in the comment block directly
//! above, the offending line. The binary (`cargo run -p sec-audit -- check`)
//! exits nonzero on violations; see `docs/INVARIANTS.md` for the policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::fmt;
use std::path::{Path, PathBuf};

use config::{AuditConfig, ConfigError};
use rules::atomics::AtomicSite;
use rules::unsafe_blocks::UnsafeSite;
use rules::{Rule, Violation};
use source::SourceFile;

/// Name of the configuration file that marks the workspace root.
pub const CONFIG_FILE: &str = "audit.toml";

/// Everything one audit pass produced.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Confirmed violations, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Full atomic-ordering inventory (annotated sites included).
    pub atomics: Vec<AtomicSite>,
    /// Full `unsafe` inventory of the carve-out crates (annotated included).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl AuditOutcome {
    /// Whether the audit passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Errors from loading the workspace or its configuration.
#[derive(Debug)]
pub enum AuditError {
    /// Reading a file or directory failed.
    Io(String),
    /// `audit.toml` failed to parse or validate.
    Config(ConfigError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io(m) => write!(f, "io error: {m}"),
            AuditError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<ConfigError> for AuditError {
    fn from(e: ConfigError) -> Self {
        AuditError::Config(e)
    }
}

/// Walks upward from `start` to the directory containing `audit.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join(CONFIG_FILE).is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Loads `audit.toml` and every source file it includes.
pub fn load(root: &Path) -> Result<(AuditConfig, Vec<SourceFile>), AuditError> {
    let config_path = root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| AuditError::Io(format!("{}: {e}", config_path.display())))?;
    let config = AuditConfig::parse(&text)?;
    let rels = source::discover(root, &config.include)
        .map_err(|e| AuditError::Io(format!("scanning include roots: {e}")))?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        files.push(SourceFile::load(root, rel).map_err(|e| AuditError::Io(format!("{rel}: {e}")))?);
    }
    Ok((config, files))
}

/// Runs every rule over the loaded file set.
pub fn run(config: &AuditConfig, files: &[SourceFile]) -> AuditOutcome {
    let mut violations = Vec::new();
    let mut atomics = Vec::new();
    let mut unsafe_sites = Vec::new();
    for file in files {
        violations.extend(rules::check_annotations(file));
        violations.extend(rules::lock_order::check(config, file));
        if rules::panics::applies(config, &file.rel) {
            violations.extend(rules::panics::check(config, file));
        }
        let (sites, atomic_violations) = rules::atomics::check(file);
        atomics.extend(sites);
        violations.extend(atomic_violations);
        if rules::unsafe_blocks::applies(config, &file.rel) {
            let (sites, unsafe_violations) = rules::unsafe_blocks::check(file);
            unsafe_sites.extend(sites);
            violations.extend(unsafe_violations);
        }
    }
    violations.extend(rules::shared_read::check(config, files));
    violations.extend(rules::lints::check(config, files));
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    violations.dedup();
    atomics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    unsafe_sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    AuditOutcome {
        violations,
        atomics,
        unsafe_sites,
        files_scanned: files.len(),
    }
}

/// Convenience: locate the root at or above `start`, load, and run.
pub fn audit_from(start: &Path) -> Result<(PathBuf, AuditOutcome), AuditError> {
    let root = find_root(start)
        .ok_or_else(|| AuditError::Io(format!("no {CONFIG_FILE} at or above {}", start.display())))?;
    let (config, files) = load(&root)?;
    let outcome = run(&config, &files);
    Ok((root, outcome))
}

/// Inserts `// audit: <rule> ok — TODO: justify` stub comments above the
/// given `(line, rule)` sites, preserving each line's indentation. Returns
/// the new file content. Stubs still fail the audit (the justification is a
/// `TODO`), so `--fix-annotations` marks every site for human follow-up
/// without ever green-lighting it silently.
pub fn insert_annotation_stubs(src: &str, sites: &[(u32, Rule)]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_owned).collect();
    let mut work: Vec<(u32, Rule)> = sites
        .iter()
        .copied()
        .filter(|(_, rule)| Rule::ANNOTATABLE.contains(rule))
        .collect();
    work.sort();
    work.dedup();
    // Insert bottom-up so earlier line numbers stay valid.
    for (line, rule) in work.into_iter().rev() {
        let idx = (line.saturating_sub(1)) as usize;
        if idx >= lines.len() {
            continue;
        }
        let indent: String = lines[idx].chars().take_while(|c| c.is_whitespace()).collect();
        lines.insert(idx, format!("{indent}// audit: {} ok — TODO: justify", rule.id()));
    }
    let mut out = lines.join("\n");
    if src.ends_with('\n') {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_stubs_preserve_indentation_and_order() {
        let src = "fn f() {\n    let a = v.unwrap();\n    let b = w.unwrap();\n}\n";
        let fixed = insert_annotation_stubs(src, &[(2, Rule::Panic), (3, Rule::Panic)]);
        let lines: Vec<&str> = fixed.lines().collect();
        assert_eq!(lines[1], "    // audit: panic ok — TODO: justify");
        assert_eq!(lines[2], "    let a = v.unwrap();");
        assert_eq!(lines[3], "    // audit: panic ok — TODO: justify");
        assert_eq!(lines[4], "    let b = w.unwrap();");
    }

    #[test]
    fn non_annotatable_rules_get_no_stubs() {
        let src = "#![no_std]\n";
        let fixed = insert_annotation_stubs(src, &[(1, Rule::UnsafeCode), (1, Rule::Annotation)]);
        assert_eq!(fixed, src);
    }
}
