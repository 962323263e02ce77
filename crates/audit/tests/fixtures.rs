//! End-to-end fixture tests: each rule family demonstrated on real files
//! under `tests/fixtures/`, driven through the public [`sec_audit::run`]
//! entry point exactly as the binary drives it.

use std::path::Path;

use sec_audit::config::AuditConfig;
use sec_audit::rules::{Rule, Violation};
use sec_audit::source::{discover, SourceFile};

const FIXTURE_CONFIG: &str = r#"
[paths]
include = ["fixtures"]

[rules.lock-hierarchy]
order = ["archive", "objects"]

[rules.unsafe-code]
carve-outs = ["fixtures"]
"#;

fn run_fixtures() -> Vec<Violation> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let config = AuditConfig::parse(FIXTURE_CONFIG).expect("fixture config parses");
    let rels = discover(&root, &config.include).expect("fixture dir scans");
    assert!(rels.len() >= 5, "fixture set went missing: {rels:?}");
    let files: Vec<SourceFile> = rels
        .iter()
        .map(|rel| SourceFile::load(&root, rel).expect("fixture loads"))
        .collect();
    sec_audit::run(&config, &files).violations
}

fn of_rule(violations: &[Violation], rule: Rule) -> Vec<&Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn lock_inversion_is_flagged_clean_and_annotated_pass() {
    let violations = run_fixtures();
    let lock = of_rule(&violations, Rule::LockOrder);
    assert_eq!(lock.len(), 1, "{lock:?}");
    assert_eq!(lock[0].file, "fixtures/lock_inversion.rs");
    assert!(lock[0].message.contains("archive"));
    assert!(lock[0].message.contains("objects"));
    // Neither the in-order file nor the justified one contributes.
    assert!(!violations
        .iter()
        .any(|v| v.file.contains("lock_clean") || v.file.contains("lock_annotated")));
}

#[test]
fn unannotated_ordering_is_flagged_justified_and_test_sites_pass() {
    let violations = run_fixtures();
    let atomic = of_rule(&violations, Rule::Atomic);
    assert_eq!(atomic.len(), 1, "{atomic:?}");
    assert_eq!(atomic[0].file, "fixtures/atomics.rs");
    assert!(atomic[0].message.contains("Ordering::Relaxed"));
}

#[test]
fn bare_unsafe_is_flagged_justified_and_test_sites_pass() {
    let violations = run_fixtures();
    let unsafe_v = of_rule(&violations, Rule::UnsafeBlock);
    assert_eq!(unsafe_v.len(), 1, "{unsafe_v:?}");
    assert_eq!(unsafe_v[0].file, "fixtures/unsafe_blocks.rs");
    assert!(unsafe_v[0].message.contains("`unsafe` block"));
}

#[test]
fn fixture_run_has_no_unexpected_violations() {
    let violations = run_fixtures();
    assert_eq!(violations.len(), 3, "{violations:?}");
}
