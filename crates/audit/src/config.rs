//! `audit.toml` parsing.
//!
//! The build environment has no crates.io access, so this module includes a
//! hand-rolled parser for the small TOML subset the auditor needs: `[a.b]`
//! section headers, `key = value` pairs with string or array-of-string
//! values (arrays may span lines), and `#` comments. Anything
//! outside that subset is a hard [`ConfigError`] — the config is in-repo, so
//! failing loudly beats guessing.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation error in `audit.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending construct (0 for file-level errors).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "audit.toml: {}", self.message)
        } else {
            write!(f, "audit.toml:{}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    List(Vec<String>),
}

/// Flat view of the file: `section` → `key` → value.
type Tree = BTreeMap<String, BTreeMap<String, (u32, Value)>>;

fn parse_tree(src: &str) -> Result<Tree, ConfigError> {
    let mut tree: Tree = BTreeMap::new();
    let mut section = String::new();
    let lines: Vec<&str> = src.lines().collect();
    let mut idx = 0usize;
    while idx < lines.len() {
        let lineno = (idx + 1) as u32;
        let raw = lines[idx];
        idx += 1;
        let trimmed = strip_comment(raw).trim().to_owned();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated section header"))?;
            section = name.trim().to_owned();
            if section.is_empty() {
                return Err(err(lineno, "empty section name"));
            }
            tree.entry(section.clone()).or_default();
            continue;
        }
        let (key, mut value_text) = trimmed
            .split_once('=')
            .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
            .ok_or_else(|| err(lineno, "expected `key = value` or `[section]`"))?;
        if key.is_empty() {
            return Err(err(lineno, "empty key"));
        }
        // Multi-line arrays: keep consuming lines until brackets balance.
        if value_text.starts_with('[') {
            while !brackets_balanced(&value_text) {
                let cont = lines.get(idx).ok_or_else(|| err(lineno, "unterminated array"))?;
                idx += 1;
                value_text.push(' ');
                value_text.push_str(strip_comment(cont).trim());
            }
        }
        let value = parse_value(lineno, &value_text)?;
        let dup = tree
            .entry(section.clone())
            .or_default()
            .insert(key.clone(), (lineno, value));
        if dup.is_some() {
            return Err(err(lineno, format!("duplicate key `{key}`")));
        }
    }
    Ok(tree)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth == 0
}

fn parse_value(line: u32, text: &str) -> Result<Value, ConfigError> {
    if let Some(s) = parse_str(text) {
        return Ok(Value::Str(s));
    }
    if let Some(body) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let s = parse_str(part)
                .ok_or_else(|| err(line, format!("array element is not a string: `{part}`")))?;
            items.push(s);
        }
        return Ok(Value::List(items));
    }
    Err(err(line, format!("unsupported value: `{text}`")))
}

fn parse_str(text: &str) -> Option<String> {
    let body = text.strip_prefix('"')?.strip_suffix('"')?;
    // The subset forbids interior unescaped quotes; a simple unescape does.
    let mut out = String::with_capacity(body.len());
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return None;
        } else {
            out.push(c);
        }
    }
    Some(out)
}

fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                current.push(c);
                continue;
            }
            '"' if !escaped => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
        escaped = false;
    }
    parts.push(current);
    parts
}

/// One level of the lock hierarchy: a canonical name plus the field/variable
/// identifiers that denote it in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockClass {
    /// Canonical name used in the `order` list and in diagnostics.
    pub name: String,
    /// Identifiers that refer to this lock in acquisition chains.
    pub aliases: Vec<String>,
}

/// Typed view of `audit.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Source roots to scan, relative to the workspace root.
    pub include: Vec<String>,
    /// Lock hierarchy, outermost first. Index = rank.
    pub lock_order: Vec<LockClass>,
    /// Canonical lock names that may be acquired multiple times at the same
    /// rank (e.g. per-node locks taken in ascending id order).
    pub reentrant: Vec<String>,
    /// Helper functions that acquire and *return* a guard: callers are
    /// treated as holding the named locks for the guard's lifetime.
    pub guard_returning: BTreeMap<String, Vec<String>>,
    /// Cross-crate method calls the lexical pass cannot resolve: method name
    /// → canonical lock names the callee acquires internally.
    pub method_locks: BTreeMap<String, Vec<String>>,
    /// Source roots whose crate root must carry `#![forbid(unsafe_code)]`.
    /// Defaults to every include root that has a `lib.rs`.
    pub unsafe_carve_outs: Vec<String>,
}

/// The sections `audit.toml` may contain. Any other is an error, so a
/// retired or misspelt section cannot sit in the file configuring nothing.
const SECTIONS: [&str; 6] = [
    "paths",
    "rules.lock-hierarchy",
    "rules.lock-hierarchy.aliases",
    "rules.lock-hierarchy.guard-returning",
    "rules.lock-hierarchy.methods",
    "rules.unsafe-code",
];

impl AuditConfig {
    /// Parses and validates an `audit.toml` document.
    pub fn parse(src: &str) -> Result<Self, ConfigError> {
        let tree = parse_tree(src)?;
        if let Some(section) = tree.keys().find(|s| !SECTIONS.contains(&s.as_str())) {
            return Err(err(0, format!("unknown section `[{section}]`")));
        }
        let get = |section: &str, key: &str| -> Option<&(u32, Value)> {
            tree.get(section).and_then(|s| s.get(key))
        };
        let list = |section: &str, key: &str| -> Result<Vec<String>, ConfigError> {
            match get(section, key) {
                Some((_, Value::List(items))) => Ok(items.clone()),
                Some((line, _)) => Err(err(*line, format!("`{key}` must be a string array"))),
                None => Ok(Vec::new()),
            }
        };
        let map_section = |section: &str| -> Result<BTreeMap<String, Vec<String>>, ConfigError> {
            let mut out = BTreeMap::new();
            if let Some(entries) = tree.get(section) {
                for (key, (line, value)) in entries {
                    match value {
                        Value::List(items) => {
                            out.insert(key.clone(), items.clone());
                        }
                        _ => return Err(err(*line, format!("`{key}` must be a string array"))),
                    }
                }
            }
            Ok(out)
        };

        let include = list("paths", "include")?;
        if include.is_empty() {
            return Err(err(0, "[paths] include must list at least one source root"));
        }

        let order_names = list("rules.lock-hierarchy", "order")?;
        let aliases = map_section("rules.lock-hierarchy.aliases")?;
        let mut lock_order = Vec::new();
        for name in &order_names {
            let mut class_aliases = vec![name.clone()];
            if let Some(extra) = aliases.get(name) {
                for a in extra {
                    if !class_aliases.contains(a) {
                        class_aliases.push(a.clone());
                    }
                }
            }
            lock_order.push(LockClass {
                name: name.clone(),
                aliases: class_aliases,
            });
        }
        for alias_key in aliases.keys() {
            if !order_names.contains(alias_key) {
                return Err(err(
                    0,
                    format!("alias entry `{alias_key}` does not match any lock in `order`"),
                ));
            }
        }
        let reentrant = list("rules.lock-hierarchy", "reentrant")?;
        for r in &reentrant {
            if !order_names.contains(r) {
                return Err(err(0, format!("reentrant lock `{r}` is not in `order`")));
            }
        }
        let guard_returning = map_section("rules.lock-hierarchy.guard-returning")?;
        let method_locks = map_section("rules.lock-hierarchy.methods")?;
        for (name, locks) in guard_returning.iter().chain(method_locks.iter()) {
            for lock in locks {
                if !order_names.contains(lock) {
                    return Err(err(
                        0,
                        format!("`{name}` names unknown lock `{lock}` (not in `order`)"),
                    ));
                }
            }
        }

        let unsafe_carve_outs = list("rules.unsafe-code", "carve-outs")?;

        Ok(Self {
            include,
            lock_order,
            reentrant,
            guard_returning,
            method_locks,
            unsafe_carve_outs,
        })
    }

    /// Rank of the lock class one of whose aliases appears in `chain`, along
    /// with its canonical name. When several aliases appear (rare), the one
    /// closest to the end of the chain — nearest the `.read()` — wins.
    pub fn lock_of_chain(&self, chain: &[String]) -> Option<(usize, &str)> {
        for ident in chain.iter().rev() {
            for (rank, class) in self.lock_order.iter().enumerate() {
                if class.aliases.iter().any(|a| a == ident) {
                    return Some((rank, class.name.as_str()));
                }
            }
        }
        None
    }

    /// Rank of a canonical lock name.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.lock_order.iter().position(|c| c.name == name)
    }

    /// Whether a canonical lock name is same-rank reentrant.
    pub fn is_reentrant(&self, name: &str) -> bool {
        self.reentrant.iter().any(|r| r == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[paths]
include = [
  "src",          # facade
  "crates/engine/src",
]

[rules.lock-hierarchy]
order = ["archive", "nodes"]
reentrant = ["nodes"]

[rules.lock-hierarchy.aliases]
nodes = ["node"]

[rules.lock-hierarchy.methods]
get_version = ["archive"]

[rules.unsafe-code]
carve-outs = ["crates/gf/src"]
"#;

    #[test]
    fn parses_the_full_schema() {
        let cfg = AuditConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.include, vec!["src", "crates/engine/src"]);
        assert_eq!(cfg.lock_order.len(), 2);
        assert_eq!(cfg.lock_order[1].aliases, vec!["nodes", "node"]);
        assert!(cfg.is_reentrant("nodes"));
        assert!(!cfg.is_reentrant("archive"));
        assert_eq!(cfg.method_locks["get_version"], vec!["archive"]);
        assert_eq!(cfg.unsafe_carve_outs, vec!["crates/gf/src"]);
    }

    #[test]
    fn chain_resolution_prefers_the_innermost_alias() {
        let cfg = AuditConfig::parse(SAMPLE).unwrap();
        let chain = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            cfg.lock_of_chain(&chain(&["self", "archive"])),
            Some((0, "archive"))
        );
        assert_eq!(cfg.lock_of_chain(&chain(&["slab", "node"])), Some((1, "nodes")));
        // `self.archive_len` style idents do not match: aliases are exact.
        assert_eq!(cfg.lock_of_chain(&chain(&["archive_len"])), None);
    }

    #[test]
    fn rejects_unknown_names() {
        let bad = SAMPLE.replace("reentrant = [\"nodes\"]", "reentrant = [\"bogus\"]");
        assert!(AuditConfig::parse(&bad).is_err());
        let bad = SAMPLE.replace("get_version = [\"archive\"]", "get_version = [\"bogus\"]");
        assert!(AuditConfig::parse(&bad).is_err());
        let misspelt = format!("{SAMPLE}\n[rules.lock-order]\norder = []\n");
        let e = AuditConfig::parse(&misspelt).unwrap_err();
        assert!(e.message.contains("unknown section `[rules.lock-order]`"), "{e}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(AuditConfig::parse("[paths\ninclude = []").is_err());
        assert!(AuditConfig::parse("[paths]\ninclude = [1, 2]").is_err());
        assert!(AuditConfig::parse("[paths]\ninclude\n").is_err());
        // Missing include list entirely.
        assert!(AuditConfig::parse("[rules.unsafe-code]\ncarve-outs = []").is_err());
    }
}
