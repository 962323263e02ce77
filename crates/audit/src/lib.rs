//! # sec-audit — workspace invariant auditor
//!
//! The serving stack's correctness rests on rules no compiler lint checks: a
//! documented lock hierarchy, deliberate atomic `Ordering` choices, and a
//! written reason at every `unsafe` site. This crate is the static-analysis
//! layer that keeps those invariants true by construction. It scans every
//! configured source root with a small hand-rolled Rust lexer (no `syn` —
//! the workspace has no parser crates) and enforces four rule families,
//! configured by the in-repo `audit.toml`:
//!
//! 1. **lock-hierarchy** — `.read()`/`.write()` acquisitions of the known
//!    lock fields must follow the documented partial order
//!    (`archive → slab directory → node slab → object map`);
//! 2. **atomic** — every `Ordering::*` use must carry a justification
//!    comment, and the full inventory is renderable as a markdown report;
//! 3. **unsafe** — every `unsafe` block/fn in the `unsafe_code` carve-out
//!    crates (the SIMD field kernels) must carry a justification, and the
//!    full unsafe inventory is renderable alongside the atomics table;
//! 4. **unsafe-code** — every crate root carries its configured
//!    `unsafe_code` lint attribute.
//!
//! The two invariants a compiler does check are left to it: the read-path
//! modules deny clippy's panicking lints (`unwrap_used`, `indexing_slicing`,
//! …) with `#[expect]` exceptions, and the retrieval APIs' `&self`
//! receivers are held in place by the borrow checker.
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
use rules::Violation;
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
        let (sites, atomic_violations) = rules::atomics::check(file);
        atomics.extend(sites);
        violations.extend(atomic_violations);
        if rules::unsafe_blocks::applies(config, &file.rel) {
            let (sites, unsafe_violations) = rules::unsafe_blocks::check(file);
            unsafe_sites.extend(sites);
            violations.extend(unsafe_violations);
        }
    }
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
