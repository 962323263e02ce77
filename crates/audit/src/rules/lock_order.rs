//! Lock-hierarchy rule: acquisitions of the configured `RwLock` fields must
//! respect the documented partial order (outermost first).
//!
//! The analysis is intra-procedural with a file-local call-graph closure:
//!
//! - A zero-argument `.read()` / `.write()` whose receiver chain contains a
//!   configured lock alias is an *acquisition*. A guard bound by a plain
//!   `let g = lock.read()…;` is held until its block closes (or a `drop(g)`);
//!   any other acquisition is a temporary released at the end of its
//!   statement.
//! - Calls are resolved within the file: `self.f()` / `Type::f()` to the
//!   matching impl, bare `f()` to a free function. A resolved callee's
//!   transitive acquisitions are checked against the held set at the call
//!   site. Unresolvable method calls fall back to the configured
//!   `[rules.lock-hierarchy.methods]` table (deliberately sparse: only
//!   distinctive names, so `len()`-style calls never misfire).
//! - Helpers listed in `guard-returning` (e.g. a `read_archive()` that hands
//!   back the guard) count as held by the caller when `let`-bound.
//!
//! Violations fire when a rank lower than (or equal to, unless marked
//! reentrant) the highest held rank is acquired.

use std::collections::BTreeSet;

use crate::config::AuditConfig;
use crate::lexer::{Tok, Token};
use crate::rules::model::{scan_fns, FnSpan};
use crate::rules::{Rule, Violation};
use crate::source::SourceFile;

/// Keywords that can precede `(` or `[` without being calls/indexing.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "let", "in", "as", "ref", "mut", "move",
    "break", "continue", "where", "impl", "fn", "use", "pub", "dyn", "box", "await",
];

#[derive(Debug, Clone)]
enum Event {
    Acquire {
        lock: String,
        rank: usize,
        line: u32,
        depth: i32,
        bound: bool,
        bound_name: Option<String>,
    },
    Call {
        name: String,
        qualifier: Option<String>,
        is_method: bool,
        is_self: bool,
        line: u32,
        depth: i32,
        bound: bool,
        bound_name: Option<String>,
    },
    StmtEnd {
        depth: i32,
    },
    BlockClose {
        depth_after: i32,
    },
    DropCall {
        name: String,
    },
}

#[derive(Debug)]
struct FnModel {
    span: FnSpan,
    events: Vec<Event>,
}

#[derive(Debug, Clone)]
struct Held {
    lock: String,
    rank: usize,
    depth: i32,
    bound: bool,
    name: Option<String>,
}

/// Runs the rule over one file.
pub fn check(cfg: &AuditConfig, file: &SourceFile) -> Vec<Violation> {
    if cfg.lock_order.is_empty() {
        return Vec::new();
    }
    let spans = scan_fns(&file.tokens);
    let models: Vec<FnModel> = spans
        .iter()
        .map(|span| FnModel {
            span: span.clone(),
            events: build_events(cfg, file, span, &spans),
        })
        .collect();
    let acquire_sets = transitive_acquires(cfg, &models);
    let mut out = Vec::new();
    for model in &models {
        if file.is_test_line(model.span.sig_line) {
            continue;
        }
        replay(cfg, file, model, &models, &acquire_sets, &mut out);
    }
    out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    out.dedup();
    out
}

/// Walks one function body into a linear event list. Nested functions'
/// bodies are skipped (they are modelled separately).
fn build_events(cfg: &AuditConfig, file: &SourceFile, span: &FnSpan, all: &[FnSpan]) -> Vec<Event> {
    let toks = &file.tokens;
    let nested: Vec<(usize, usize)> = all
        .iter()
        .filter(|f| f.fn_kw > span.body_open && f.body_close < span.body_close)
        .map(|f| (f.fn_kw, f.body_close))
        .collect();
    let mut events = Vec::new();
    let mut depth = 1i32;
    // Innermost-last stack of pending `let` bindings: (depth, bound name).
    let mut lets: Vec<(i32, Option<String>)> = Vec::new();
    let mut i = span.body_open + 1;
    while i < span.body_close {
        if let Some(&(_, close)) = nested.iter().find(|&&(kw, _)| kw == i) {
            i = close + 1;
            continue;
        }
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                events.push(Event::BlockClose { depth_after: depth });
                while lets.last().is_some_and(|&(d, _)| d > depth) {
                    lets.pop();
                }
                i += 1;
            }
            Tok::Punct(';') => {
                events.push(Event::StmtEnd { depth });
                while lets.last().is_some_and(|&(d, _)| d >= depth) {
                    lets.pop();
                }
                i += 1;
            }
            Tok::Ident(word) if word == "let" => {
                let mut j = i + 1;
                while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let name = toks
                    .get(j)
                    .and_then(Token::ident)
                    .filter(|n| *n != "_")
                    .map(str::to_owned);
                lets.push((depth, name));
                i += 1;
            }
            Tok::Ident(word) if word == "drop" && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                if let (Some(arg), Some(close)) = (
                    toks.get(i + 2).and_then(Token::ident),
                    Some(i + 3).filter(|&k| toks.get(k).is_some_and(|t| t.is_punct(')'))),
                ) {
                    events.push(Event::DropCall { name: arg.to_owned() });
                    i = close + 1;
                    continue;
                }
                i += 1;
            }
            Tok::Ident(name) if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                if KEYWORDS.contains(&name.as_str()) {
                    i += 1;
                    continue;
                }
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                if prev.is_some_and(|p| p.is_ident("fn")) {
                    i += 1;
                    continue;
                }
                // `.read()` / `.write()` with zero args on a lock chain is an
                // acquisition, not a call.
                let zero_arg = toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
                let is_dot = prev.is_some_and(|p| p.is_punct('.'));
                if zero_arg && is_dot && (name == "read" || name == "write") {
                    let chain = chain_back(toks, i - 1);
                    if let Some((rank, lock)) = cfg.lock_of_chain(&chain) {
                        let after = i + 3; // one past `)`
                        let (bound, bound_name) = binding_info(toks, after, depth, &lets);
                        events.push(Event::Acquire {
                            lock: lock.to_owned(),
                            rank,
                            line: t.line,
                            depth,
                            bound,
                            bound_name,
                        });
                        i = after;
                        continue;
                    }
                }
                // Otherwise: a call event.
                let qualified =
                    prev.is_some_and(|p| p.is_punct(':')) && i >= 2 && toks[i - 2].is_punct(':');
                let qualifier = if qualified && i >= 3 {
                    toks[i - 3].ident().map(str::to_owned)
                } else {
                    None
                };
                let is_self = if is_dot {
                    let chain = chain_back(toks, i - 1);
                    chain.len() == 1 && chain[0] == "self"
                } else {
                    qualifier.as_deref() == Some("Self")
                };
                let close = matching_paren(toks, i + 1);
                let (bound, bound_name) = binding_info(toks, close + 1, depth, &lets);
                events.push(Event::Call {
                    name: name.clone(),
                    qualifier,
                    is_method: is_dot,
                    is_self,
                    line: t.line,
                    depth,
                    bound,
                    bound_name,
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    events
}

/// Collects the identifier chain feeding a `.` at token index `dot`
/// (e.g. `self.slabs` → `["self", "slabs"]`, `nodes[p]` → `["nodes"]`).
/// Walks backwards through idents, dots and bracket/paren groups.
fn chain_back(toks: &[Token], dot: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = dot; // index of the `.`
    while let Some(prev) = j.checked_sub(1) {
        match &toks[prev].tok {
            Tok::Ident(word) => {
                if KEYWORDS.contains(&word.as_str()) {
                    break;
                }
                idents.push(word.clone());
                j = prev;
            }
            Tok::Punct('.') => j = prev,
            Tok::Punct(']') => match matching_open(toks, prev, '[', ']') {
                Some(open) => j = open,
                None => break,
            },
            Tok::Punct(')') => match matching_open(toks, prev, '(', ')') {
                Some(open) => j = open,
                None => break,
            },
            _ => break,
        }
    }
    idents.reverse();
    idents
}

/// Index of the opening delimiter matching the closer at `close`, scanning
/// backwards.
fn matching_open(toks: &[Token], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        if toks[j].is_punct(close_c) {
            depth += 1;
        } else if toks[j].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Decides whether the expression ending just before `after` is directly
/// bound by a pending `let`: only `.expect(…)`, `.unwrap()` and `?` may
/// appear between it and the statement's `;`. Anything else (further method
/// calls, field walks) means the guard is a temporary.
fn binding_info(
    toks: &[Token],
    mut after: usize,
    depth: i32,
    lets: &[(i32, Option<String>)],
) -> (bool, Option<String>) {
    let pending = lets.iter().rev().find(|&&(d, _)| d <= depth);
    let Some((_, name)) = pending else {
        return (false, None);
    };
    loop {
        match toks.get(after).map(|t| &t.tok) {
            Some(Tok::Punct(';')) => return (true, name.clone()),
            Some(Tok::Punct('?')) => after += 1,
            Some(Tok::Punct('.')) => {
                let is_adapter = toks
                    .get(after + 1)
                    .and_then(Token::ident)
                    .is_some_and(|n| n == "expect" || n == "unwrap");
                if is_adapter && toks.get(after + 2).is_some_and(|t| t.is_punct('(')) {
                    after = matching_paren(toks, after + 2) + 1;
                } else {
                    return (false, None);
                }
            }
            _ => return (false, None),
        }
    }
}

/// Fixpoint of "which canonical locks does each function (transitively)
/// acquire", resolving calls file-locally and via the configured method
/// table.
fn transitive_acquires(cfg: &AuditConfig, models: &[FnModel]) -> Vec<BTreeSet<String>> {
    let mut sets: Vec<BTreeSet<String>> = models
        .iter()
        .map(|m| {
            m.events
                .iter()
                .filter_map(|e| match e {
                    Event::Acquire { lock, .. } => Some(lock.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for idx in 0..models.len() {
            let caller_ty = impl_type(&models[idx].span.qname);
            let mut additions: Vec<String> = Vec::new();
            for event in &models[idx].events {
                if let Event::Call { .. } = event {
                    for lock in callee_locks(cfg, caller_ty, event, models, &sets) {
                        if !sets[idx].contains(&lock) {
                            additions.push(lock);
                        }
                    }
                }
            }
            for lock in additions {
                changed |= sets[idx].insert(lock);
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// The impl type of a qualified function name (`Engine::len` → `Engine`).
fn impl_type(qname: &str) -> Option<&str> {
    qname.split_once("::").map(|(ty, _)| ty)
}

/// Canonical locks a call event acquires, per the resolution policy. A
/// guard-returning helper's locks count here too: the acquisition happens
/// inside the helper whether or not the caller keeps the guard.
fn callee_locks(
    cfg: &AuditConfig,
    caller_ty: Option<&str>,
    event: &Event,
    models: &[FnModel],
    sets: &[BTreeSet<String>],
) -> Vec<String> {
    let Event::Call {
        name,
        qualifier,
        is_method,
        is_self,
        ..
    } = event
    else {
        return Vec::new();
    };
    let mut locks: BTreeSet<String> = BTreeSet::new();
    if let Some(idx) = resolve(
        name,
        qualifier.as_deref(),
        *is_method,
        *is_self,
        caller_ty,
        models,
    ) {
        locks.extend(sets[idx].iter().cloned());
    } else if let Some(configured) = cfg.method_locks.get(name) {
        locks.extend(configured.iter().cloned());
    }
    if let Some(returned) = cfg.guard_returning.get(name) {
        locks.extend(returned.iter().cloned());
    }
    locks.into_iter().collect()
}

/// File-local call resolution. Non-`self` method calls are deliberately
/// *not* resolved by bare name: a method on another type may share a name
/// with a local impl (e.g. `archive.append_version(…)` vs.
/// `SecEngine::append_version`), and a wrong edge would produce false
/// hierarchy violations. Those calls use the config table instead. The same
/// caution applies to `self.f()`: it resolves only within the caller's own
/// impl type, never to a same-named method on another local type.
fn resolve(
    name: &str,
    qualifier: Option<&str>,
    is_method: bool,
    is_self: bool,
    caller_ty: Option<&str>,
    models: &[FnModel],
) -> Option<usize> {
    let find_qname = |q: &str| models.iter().position(|m| m.span.qname == q);
    if is_self || qualifier == Some("Self") {
        let ty = caller_ty?;
        return find_qname(&format!("{ty}::{name}"));
    }
    if let Some(q) = qualifier {
        return find_qname(&format!("{q}::{name}"));
    }
    if !is_method {
        // Bare `f()`: a free function in this file.
        return models.iter().position(|m| m.span.qname == name);
    }
    None
}

/// Replays one function's events against a held-lock set, emitting
/// violations.
fn replay(
    cfg: &AuditConfig,
    file: &SourceFile,
    model: &FnModel,
    models: &[FnModel],
    sets: &[BTreeSet<String>],
    out: &mut Vec<Violation>,
) {
    let mut held: Vec<Held> = Vec::new();
    let order: Vec<&str> = cfg.lock_order.iter().map(|c| c.name.as_str()).collect();
    for event in &model.events {
        match event {
            Event::Acquire {
                lock,
                rank,
                line,
                depth,
                bound,
                bound_name,
            } => {
                if !file.is_test_line(*line) {
                    for h in &held {
                        if let Some(message) = rank_conflict(cfg, *rank, lock, h, &order, None) {
                            push(file, *line, message, out);
                        }
                    }
                }
                held.push(Held {
                    lock: lock.clone(),
                    rank: *rank,
                    depth: *depth,
                    bound: *bound,
                    name: bound_name.clone(),
                });
            }
            Event::Call {
                name,
                line,
                depth,
                bound,
                bound_name,
                ..
            } => {
                let caller_ty = impl_type(&model.span.qname);
                let locks = callee_locks(cfg, caller_ty, event, models, sets);
                if !file.is_test_line(*line) {
                    for lock in &locks {
                        let Some(rank) = cfg.rank_of(lock) else { continue };
                        for h in &held {
                            if let Some(message) = rank_conflict(cfg, rank, lock, h, &order, Some(name))
                            {
                                push(file, *line, message, out);
                            }
                        }
                    }
                }
                // Guard-returning helpers leave their locks held in the
                // caller when the result is `let`-bound.
                if *bound {
                    if let Some(locks) = cfg.guard_returning.get(name) {
                        for lock in locks {
                            if let Some(rank) = cfg.rank_of(lock) {
                                held.push(Held {
                                    lock: lock.clone(),
                                    rank,
                                    depth: *depth,
                                    bound: true,
                                    name: bound_name.clone(),
                                });
                            }
                        }
                    }
                }
            }
            Event::StmtEnd { depth } => {
                held.retain(|h| h.bound || h.depth < *depth);
            }
            Event::BlockClose { depth_after } => {
                held.retain(|h| h.depth <= *depth_after);
            }
            Event::DropCall { name } => {
                if let Some(pos) = held.iter().rposition(|h| h.name.as_deref() == Some(name)) {
                    held.remove(pos);
                }
            }
        }
    }
}

/// The ordering check: acquiring `rank` while `h` is held. Returns the
/// violation message, if any.
fn rank_conflict(
    cfg: &AuditConfig,
    rank: usize,
    lock: &str,
    h: &Held,
    order: &[&str],
    via: Option<&str>,
) -> Option<String> {
    let source = match via {
        Some(callee) => format!("call to `{callee}()` acquires"),
        None => "acquires".to_owned(),
    };
    if rank < h.rank {
        Some(format!(
            "{source} `{lock}` (rank {rank}) while holding `{}` (rank {}); the hierarchy is {}",
            h.lock,
            h.rank,
            order.join(" → ")
        ))
    } else if rank == h.rank && !cfg.is_reentrant(lock) {
        Some(format!(
            "{source} `{lock}` while already holding it, and `{lock}` is not marked reentrant"
        ))
    } else {
        None
    }
}

fn push(file: &SourceFile, line: u32, message: String, out: &mut Vec<Violation>) {
    if file.annotation_for(Rule::LockOrder.id(), line).is_some() {
        return;
    }
    out.push(Violation {
        rule: Rule::LockOrder,
        file: file.rel.clone(),
        line,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AuditConfig;

    fn cfg() -> AuditConfig {
        AuditConfig::parse(
            r#"
[paths]
include = ["src"]
[rules.lock-hierarchy]
order = ["archive", "slabs", "nodes"]
reentrant = ["nodes"]
[rules.lock-hierarchy.aliases]
nodes = ["node"]
[rules.lock-hierarchy.guard-returning]
read_archive = ["archive"]
[rules.lock-hierarchy.methods]
get_version = ["archive"]
"#,
        )
        .unwrap()
    }

    fn violations(src: &str) -> Vec<Violation> {
        check(&cfg(), &SourceFile::from_source("t.rs", src))
    }

    #[test]
    fn in_order_acquisition_is_clean() {
        let src = "
impl Engine {
    fn append(&self) {
        let mut archive = self.archive.write().expect(\"poisoned\");
        let slabs = self.slabs.read().expect(\"poisoned\");
        let node = self.node.write().expect(\"poisoned\");
        archive.push(node.take(&slabs));
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn direct_inversion_is_flagged() {
        let src = "
impl Engine {
    fn bad(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        let archive = self.archive.read().expect(\"poisoned\");
        slabs.use_with(archive);
    }
}
";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`archive` (rank 0) while holding `slabs`"));
    }

    #[test]
    fn inversion_via_local_call_is_flagged() {
        let src = "
impl Engine {
    fn len(&self) -> usize {
        self.read_archive().len()
    }
    fn read_archive(&self) -> Guard {
        self.archive.read().expect(\"poisoned\")
    }
    fn bad_metrics(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        let versions = self.len();
        slabs.record(versions);
    }
}
";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("call to `len()`"));
    }

    #[test]
    fn configured_method_edges_apply_to_foreign_receivers() {
        let src = "
impl Cluster {
    fn bad(&self) {
        let slabs = self.slabs.write().expect(\"poisoned\");
        let v = engine.get_version(1);
        slabs.store(v);
    }
}
";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("get_version"));
    }

    #[test]
    fn temporaries_release_at_statement_end() {
        let src = "
impl Engine {
    fn ok(&self) {
        let n = self.slabs.read().expect(\"poisoned\").len();
        let a = self.archive.read().expect(\"poisoned\");
        a.push(n);
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let src = "
impl Engine {
    fn ok(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        let n = slabs.len();
        drop(slabs);
        let a = self.archive.read().expect(\"poisoned\");
        a.push(n);
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn block_scope_releases_bound_guards() {
        let src = "
impl Engine {
    fn ok(&self) {
        {
            let slabs = self.slabs.read().expect(\"poisoned\");
            slabs.len();
        }
        let a = self.archive.read().expect(\"poisoned\");
        a.len();
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn reentrant_ranks_may_repeat_but_others_may_not() {
        let src = "
impl Engine {
    fn locks_nodes(&self) {
        let a = self.node.read().expect(\"poisoned\");
        let b = self.node.read().expect(\"poisoned\");
        a.merge(b);
    }
    fn double_archive(&self) {
        let a = self.archive.read().expect(\"poisoned\");
        let b = self.archive.read().expect(\"poisoned\");
        a.merge(b);
    }
}
";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("not marked reentrant"));
    }

    #[test]
    fn annotation_suppresses_and_tests_are_skipped() {
        let src = "
impl Engine {
    fn annotated(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        // audit: lock-order ok — startup only, no concurrent writers exist yet
        let a = self.archive.read().expect(\"poisoned\");
        slabs.use_with(a);
    }
}

#[cfg(test)]
mod tests {
    fn test_helper(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        let a = self.archive.read().expect(\"poisoned\");
        slabs.use_with(a);
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn guard_returning_helpers_count_as_held() {
        let src = "
impl Engine {
    fn bad(&self) {
        let node = self.node.write().expect(\"poisoned\");
        let archive = self.read_archive();
        node.store(archive.len());
    }
}
";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("read_archive"));
    }

    #[test]
    fn reader_with_arguments_is_not_an_acquisition() {
        let src = "
impl Engine {
    fn ok(&self) {
        let slabs = self.slabs.read().expect(\"poisoned\");
        let value = storage_node.read(key);
        slabs.push(value);
    }
}
";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }
}
