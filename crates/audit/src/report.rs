//! Console and markdown rendering of an [`AuditOutcome`].

use std::collections::BTreeMap;

use crate::config::AuditConfig;
use crate::AuditOutcome;

/// Console summary: violations (if any) plus one closing line.
pub fn render_text(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    for v in &outcome.violations {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    if outcome.is_clean() {
        out.push_str(&format!(
            "audit: clean — {} files scanned, {} atomic-ordering and {} unsafe sites all justified\n",
            outcome.files_scanned,
            outcome.atomics.len(),
            outcome.unsafe_sites.len()
        ));
    } else {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &outcome.violations {
            *by_rule.entry(v.rule.id()).or_default() += 1;
        }
        let breakdown: Vec<String> = by_rule.iter().map(|(rule, n)| format!("{n} {rule}")).collect();
        out.push_str(&format!(
            "audit: {} violation(s) in {} files scanned ({})\n",
            outcome.violations.len(),
            outcome.files_scanned,
            breakdown.join(", ")
        ));
    }
    out
}

/// Markdown inventory: the lock hierarchy, the full atomic-ordering table,
/// and any open violations. This is the artifact CI uploads and the source
/// for the inventory section of `docs/INVARIANTS.md`.
pub fn render_markdown(config: &AuditConfig, outcome: &AuditOutcome) -> String {
    let mut md = String::new();
    md.push_str("# Workspace invariant report\n\n");
    md.push_str(&format!(
        "Scanned **{}** files: **{}** violation(s), **{}** atomic-ordering site(s), \
         **{}** `unsafe` site(s).\n\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.atomics.len(),
        outcome.unsafe_sites.len()
    ));

    md.push_str("## Lock hierarchy\n\n");
    md.push_str("Outermost first; a lock may only be acquired while holding locks of\nstrictly lower rank (same rank only where marked reentrant).\n\n");
    md.push_str("| Rank | Lock | Source aliases | Reentrant |\n|---|---|---|---|\n");
    for (rank, class) in config.lock_order.iter().enumerate() {
        md.push_str(&format!(
            "| {rank} | `{}` | {} | {} |\n",
            class.name,
            class
                .aliases
                .iter()
                .map(|a| format!("`{a}`"))
                .collect::<Vec<_>>()
                .join(", "),
            if config.is_reentrant(&class.name) {
                "yes"
            } else {
                "no"
            }
        ));
    }
    md.push('\n');

    md.push_str("## Atomic-ordering inventory\n\n");
    if outcome.atomics.is_empty() {
        md.push_str("No atomic orderings in the scanned set.\n\n");
    } else {
        md.push_str("| Site | Ordering | Justification |\n|---|---|---|\n");
        for site in &outcome.atomics {
            md.push_str(&format!(
                "| `{}:{}` | `{}` | {} |\n",
                site.file,
                site.line,
                site.ordering,
                match &site.reason {
                    Some(r) => escape_cell(r),
                    None => "**UNANNOTATED**".to_owned(),
                }
            ));
        }
        md.push('\n');
    }

    md.push_str("## Unsafe-code inventory\n\n");
    if outcome.unsafe_sites.is_empty() {
        md.push_str("No `unsafe` in the carve-out crates.\n\n");
    } else {
        md.push_str("| Site | Kind | Justification |\n|---|---|---|\n");
        for site in &outcome.unsafe_sites {
            md.push_str(&format!(
                "| `{}:{}` | `{}` | {} |\n",
                site.file,
                site.line,
                site.kind,
                match &site.reason {
                    Some(r) => escape_cell(r),
                    None => "**UNANNOTATED**".to_owned(),
                }
            ));
        }
        md.push('\n');
    }

    if !outcome.violations.is_empty() {
        md.push_str("## Open violations\n\n");
        md.push_str("| Site | Rule | Finding |\n|---|---|---|\n");
        for v in &outcome.violations {
            md.push_str(&format!(
                "| `{}:{}` | `{}` | {} |\n",
                v.file,
                v.line,
                v.rule.id(),
                escape_cell(&v.message)
            ));
        }
        md.push('\n');
    }

    md
}

fn escape_cell(text: &str) -> String {
    text.replace('|', "\\|").replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::atomics::AtomicSite;
    use crate::rules::unsafe_blocks::UnsafeSite;
    use crate::rules::{Rule, Violation};

    fn outcome() -> AuditOutcome {
        AuditOutcome {
            violations: vec![Violation {
                rule: Rule::Atomic,
                file: "a.rs".into(),
                line: 3,
                message: "`Ordering::Relaxed` without a justification".into(),
            }],
            atomics: vec![AtomicSite {
                file: "a.rs".into(),
                line: 3,
                ordering: "Relaxed".into(),
                reason: None,
            }],
            unsafe_sites: vec![UnsafeSite {
                file: "k.rs".into(),
                line: 9,
                kind: "fn",
                reason: Some("callers pass 16-byte-multiple lengths".into()),
            }],
            files_scanned: 2,
        }
    }

    fn config() -> AuditConfig {
        AuditConfig::parse(
            "[paths]\ninclude = [\"src\"]\n[rules.lock-hierarchy]\norder = [\"archive\"]\n",
        )
        .unwrap()
    }

    #[test]
    fn text_report_summarises_by_rule() {
        let text = render_text(&outcome());
        assert!(text.contains("a.rs:3"));
        assert!(text.contains("1 atomic"));
        let clean = AuditOutcome {
            violations: vec![],
            atomics: vec![],
            unsafe_sites: vec![],
            files_scanned: 5,
        };
        assert!(render_text(&clean).contains("clean"));
    }

    #[test]
    fn markdown_report_has_all_sections() {
        let md = render_markdown(&config(), &outcome());
        assert!(md.contains("# Workspace invariant report"));
        assert!(md.contains("## Lock hierarchy"));
        assert!(md.contains("| 0 | `archive` |"));
        assert!(md.contains("## Atomic-ordering inventory"));
        assert!(md.contains("**UNANNOTATED**"));
        assert!(md.contains("## Unsafe-code inventory"));
        assert!(md.contains("| `k.rs:9` | `fn` | callers pass 16-byte-multiple lengths |"));
        assert!(md.contains("## Open violations"));
    }
}
