//! Source-file discovery and per-file context: lexed tokens, justification
//! annotations, and `#[cfg(test)]` regions (which every rule skips — test
//! code may take locks in whatever order it pleases).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, line_comments, Token};

/// A parsed justification comment: `// audit: <rule> ok — <reason>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// The rule identifier being suppressed (`lock-order`, `atomic`,
    /// `unsafe`).
    pub rule: String,
    /// The justification text after the separator (may be empty, which
    /// [`check_annotations`](crate::rules::check_annotations) rejects).
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: u32,
}

/// One scanned source file with everything the rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (used in diagnostics).
    pub rel: String,
    /// Raw source lines (for finding the comment block above a line).
    pub lines: Vec<String>,
    /// Lexed token stream.
    pub tokens: Vec<Token>,
    annotations: BTreeMap<u32, Vec<Annotation>>,
    /// Annotation-shaped comments that did not parse: `(line, problem)`.
    pub malformed: Vec<(u32, String)>,
    /// `test_lines[line - 1]` is true inside a `#[cfg(test)] mod` region.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Builds a source file from in-memory text (used by fixture tests).
    pub fn from_source(rel: &str, src: &str) -> Self {
        let lines: Vec<String> = src.lines().map(str::to_owned).collect();
        let tokens = lex(src);
        let (annotations, malformed) = scan_annotations(&line_comments(src));
        let test_lines = mark_test_regions(&tokens, lines.len());
        Self {
            rel: rel.to_owned(),
            lines,
            tokens,
            annotations,
            malformed,
            test_lines,
        }
    }

    /// Loads and scans `root/rel`.
    pub fn load(root: &Path, rel: &str) -> io::Result<Self> {
        let src = std::fs::read_to_string(root.join(rel))?;
        Ok(Self::from_source(rel, &src))
    }

    /// Whether `line` (1-based) falls inside a `#[cfg(test)] mod` region.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Finds a justification for `rule` covering `line`: on the line itself,
    /// or in the contiguous comment block immediately above it.
    pub fn annotation_for(&self, rule: &str, line: u32) -> Option<&Annotation> {
        let find = |l: u32| {
            self.annotations
                .get(&l)
                .and_then(|anns| anns.iter().find(|a| a.rule == rule))
        };
        if let Some(a) = find(line) {
            return Some(a);
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let text = self.lines.get((l - 1) as usize)?.trim_start();
            if !text.starts_with("//") {
                return None;
            }
            if let Some(a) = find(l) {
                return Some(a);
            }
            l -= 1;
        }
        None
    }

    /// Every annotation in the file, in line order (used for the inventory
    /// report and for unknown-rule validation).
    pub fn annotations(&self) -> impl Iterator<Item = &Annotation> {
        self.annotations.values().flatten()
    }
}

/// The marker annotations must start with inside a `//` comment.
pub const ANNOTATION_MARKER: &str = "audit:";

/// Parsed annotations by line, plus the `(line, problem)` rejects.
type ScannedAnnotations = (BTreeMap<u32, Vec<Annotation>>, Vec<(u32, String)>);

fn scan_annotations(comments: &[(u32, String)]) -> ScannedAnnotations {
    let mut map: BTreeMap<u32, Vec<Annotation>> = BTreeMap::new();
    let mut malformed = Vec::new();
    for (lineno, comment) in comments {
        let Some(rest) = comment.trim_start().strip_prefix(ANNOTATION_MARKER) else {
            continue;
        };
        match parse_annotation(rest.trim_start(), *lineno) {
            Ok(a) => map.entry(*lineno).or_default().push(a),
            Err(problem) => malformed.push((*lineno, problem)),
        }
    }
    (map, malformed)
}

/// Parses the text after `audit:`: `<rule> ok [— <reason>]`.
fn parse_annotation(rest: &str, line: u32) -> Result<Annotation, String> {
    let mut words = rest.splitn(2, char::is_whitespace);
    let rule = words.next().unwrap_or("").trim();
    if rule.is_empty() {
        return Err("missing rule id after `audit:`".to_owned());
    }
    let tail = words.next().unwrap_or("").trim_start();
    let after_ok = match tail.strip_prefix("ok") {
        // `ok` must be a whole word: end of comment, whitespace, or a
        // reason separator — `okay` is a typo, not a justification.
        Some(rest)
            if rest.is_empty()
                || rest.starts_with(char::is_whitespace)
                || ["—", "-", ":"].iter().any(|s| rest.starts_with(s)) =>
        {
            rest
        }
        _ => {
            return Err(format!(
                "expected `ok` after rule id, found `{}`",
                tail.split_whitespace().next().unwrap_or("")
            ));
        }
    };
    let mut reason = after_ok.trim_start();
    for sep in ["—", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim_start();
            break;
        }
    }
    Ok(Annotation {
        rule: rule.to_owned(),
        reason: reason.trim().to_owned(),
        line,
    })
}

/// Marks every line inside a `#[cfg(test)] mod … { … }` region.
fn mark_test_regions(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut marks = vec![false; line_count];
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_cfg_test_attr(tokens, i) {
            i += 1;
            continue;
        }
        // Skip this attribute (7 tokens) plus any further attributes before
        // the item.
        let mut j = i + 7;
        while tokens.get(j).is_some_and(|t| t.is_punct('#')) {
            j = skip_attribute(tokens, j);
        }
        if tokens.get(j).is_some_and(|t| t.is_ident("mod")) {
            // `mod name {` — find the opening brace, then its match.
            let mut k = j + 1;
            while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                k += 1;
            }
            if tokens.get(k).is_some_and(|t| t.is_punct('{')) {
                let open_line = tokens[k].line;
                let close = matching_brace(tokens, k);
                let close_line = tokens.get(close).map_or(line_count as u32, |t| t.line);
                let attr_line = tokens[i].line;
                for l in attr_line..=close_line {
                    if let Some(slot) = marks.get_mut(l.saturating_sub(1) as usize) {
                        *slot = true;
                    }
                }
                let _ = open_line;
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    marks
}

/// Whether the tokens at `i` spell `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

/// Skips one `#[...]` attribute starting at the `#`. Returns the index one
/// past the closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Index of the `}` matching the `{` at `open`. Returns `tokens.len() - 1`
/// when unbalanced.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Recursively collects every `.rs` file under `root/<include>` for each
/// include root, as workspace-relative paths in stable sorted order.
pub fn discover(root: &Path, include: &[String]) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for rel_root in include {
        let dir = root.join(rel_root);
        if dir.is_file() {
            files.push(rel_root.clone());
            continue;
        }
        walk(&dir, &mut files)?;
    }
    let root_prefix = root.to_path_buf();
    let mut rels: Vec<String> = files
        .iter()
        .map(|f| {
            let p = PathBuf::from(f);
            let rel = p.strip_prefix(&root_prefix).unwrap_or(&p);
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    rels.sort();
    rels.dedup();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_parse_with_any_separator() {
        let src = "\
let a = x.load(Ordering::Relaxed); // audit: atomic ok — statistic only
// audit: unsafe ok - checked above
let b = unsafe { *p };
// audit: lock-order ok: documented
let c = l.read();
";
        let f = SourceFile::from_source("t.rs", src);
        assert_eq!(f.annotation_for("atomic", 1).unwrap().reason, "statistic only");
        assert_eq!(f.annotation_for("unsafe", 3).unwrap().reason, "checked above");
        assert_eq!(f.annotation_for("lock-order", 5).unwrap().reason, "documented");
        assert!(f.annotation_for("atomic", 3).is_none());
    }

    #[test]
    fn annotation_blocks_cover_the_line_below() {
        let src = "\
// A longer justification that spans
// audit: atomic ok — the flag was published two lines up
// and continues after the marker line.
let v = flag.load(Ordering::Relaxed);
let w = flag.load(Ordering::Relaxed);
";
        let f = SourceFile::from_source("t.rs", src);
        assert!(f.annotation_for("atomic", 4).is_some());
        // The block does not leak past the first code line.
        assert!(f.annotation_for("atomic", 5).is_none());
    }

    #[test]
    fn annotations_inside_string_literals_are_ignored() {
        let src = "let s = \"// audit: atomic ok — fake\";\n\
                   let t = format!(\"// audit: {} ok\", rule);\n";
        let f = SourceFile::from_source("t.rs", src);
        assert!(f.annotations().next().is_none());
        assert!(f.malformed.is_empty());
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let src = "let a = 1; // audit: panics okay — typo'd rule grammar\n";
        let f = SourceFile::from_source("t.rs", src);
        assert_eq!(f.malformed.len(), 1);
        assert!(f.malformed[0].1.contains("ok"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "\
fn live() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
    }
}

fn also_live() {}
";
        let f = SourceFile::from_source("t.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(7));
        assert!(f.is_test_line(9));
        assert!(!f.is_test_line(11));
    }
}
