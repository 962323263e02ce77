//! A lightweight structural model on top of the token stream: impl blocks
//! and function spans, for the lock-hierarchy rule (which needs per-function
//! bodies and a file-local call graph).

use crate::lexer::{Tok, Token};
use crate::source::matching_brace;

/// One function with a body, located in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// `Type::name` inside an impl block, bare `name` otherwise.
    pub qname: String,
    /// The bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token index of the `fn` keyword.
    pub fn_kw: usize,
    /// Token index of the body's `{`.
    pub body_open: usize,
    /// Token index of the body's `}`.
    pub body_close: usize,
}

/// Finds every function with a body, tracking the enclosing impl type.
pub fn scan_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    // (type name, brace depth of the impl body).
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while impl_stack.last().is_some_and(|&(_, d)| depth < d) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((name, body_open)) = parse_impl_header(tokens, i) {
                depth += 1;
                impl_stack.push((name, depth));
                i = body_open + 1;
                continue;
            }
        }
        if t.is_ident("fn") && tokens.get(i + 1).and_then(Token::ident).is_some() {
            let name = tokens[i + 1].ident().unwrap_or_default().to_owned();
            // Scan to the body `{`; a `;` first means a bodiless trait decl.
            let mut j = i + 2;
            let mut body_open = None;
            while let Some(tk) = tokens.get(j) {
                if tk.is_punct('{') {
                    body_open = Some(j);
                    break;
                }
                if tk.is_punct(';') {
                    break;
                }
                j += 1;
            }
            let Some(open) = body_open else {
                i += 2;
                continue;
            };
            let close = matching_brace(tokens, open);
            let qname = match impl_stack.last() {
                Some((ty, _)) => format!("{ty}::{name}"),
                None => name.clone(),
            };
            fns.push(FnSpan {
                qname,
                name,
                sig_line: tokens[i].line,
                fn_kw: i,
                body_open: open,
                body_close: close,
            });
            // Do not skip the body: nested functions are discovered too, and
            // brace/impl tracking continues naturally.
            i += 2;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parses `impl … {`, returning the implemented type's name and the index of
/// the body's `{`. For `impl Trait for Type` the type after `for` wins.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angle_group(tokens, j);
    }
    let mut name: Option<String> = None;
    let mut in_where = false;
    let mut angle = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') {
            return name.map(|n| (n, j));
        }
        if t.is_punct(';') {
            return None;
        }
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            // `->` is not an angle close; skip it (the `-` was a no-op).
            Tok::Punct('>') if !tokens.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) => {
                angle -= 1;
            }
            Tok::Ident(word) if angle == 0 && !in_where => {
                if word == "for" {
                    // `impl Trait for Type`: the type after `for` wins.
                    name = None;
                } else if word == "where" {
                    in_where = true;
                } else if name.is_none() && !matches!(word.as_str(), "dyn" | "mut" | "const") {
                    name = Some(word.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Skips one `<…>` group starting at the `<`. `->` arrows inside are not
/// counted as closers.
fn skip_angle_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !tokens.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_fns_with_impl_context() {
        let src = "
impl<F: GaloisField> DistributedStore<F> {
    pub fn retrieve(&self, l: usize) -> usize { l }
    pub fn repair(&mut self) {}
    fn consume(self) {}
    pub fn new() -> Self { Self }
}
impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
fn free_helper(x: usize) -> usize { x }
";
        let toks = lex(src);
        let fns = scan_fns(&toks);
        let qnames: Vec<&str> = fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            qnames,
            vec![
                "DistributedStore::retrieve",
                "DistributedStore::repair",
                "DistributedStore::consume",
                "DistributedStore::new",
                "StoreError::fmt",
                "free_helper",
            ]
        );
    }

    #[test]
    fn nested_fns_are_discovered() {
        let src = "fn outer() { fn inner(x: usize) -> usize { x } inner(1); }";
        let fns = scan_fns(&lex(src));
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
