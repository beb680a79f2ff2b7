//! A recursive-descent parser for the Rust subset the workspace
//! uses, built on the [`crate::lexer`] token stream (the build is
//! offline — no `syn`). It recovers exactly the structure the
//! interprocedural rules need and nothing more:
//!
//! * items: `impl`/`trait` blocks (for method receiver types) and
//!   `fn` items with their name, parameter types, and return type;
//! * expressions: path calls (`module::f(..)`, `Type::f(..)`),
//!   method calls (`recv.m(..)`, turbofish included), and zero-arg
//!   `.lock()`/`.read()`/`.write()` lock acquisitions with the
//!   receiver field chain (`self.state.lock()`);
//! * enough statement structure to model guard extents: block
//!   enter/exit, statement ends, `let` bindings, and `drop(x)`.
//!
//! Everything else (expressions, generics, macros) is skipped, not
//! rejected: unknown constructs degrade to "no event", which keeps
//! the downstream analyses conservative. See DESIGN.md §12 for the
//! soundness caveats this implies.

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

/// One parsed workspace file: its crate/module identity plus every
/// function item found in it.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path (same as [`SourceFile::path`]).
    pub path: String,
    /// Crate key: the directory under `crates/` (`"serve"`), or
    /// `"root"` for files outside the crates tree.
    pub crate_name: String,
    /// Module key: the file stem (`mod.rs` → parent dir, `lib.rs`/
    /// `main.rs` → crate name).
    pub module: String,
    /// Function items in source order.
    pub fns: Vec<ParsedFn>,
}

/// One `fn` item with the body events the analyses consume.
#[derive(Debug)]
pub struct ParsedFn {
    /// Enclosing `impl`/`trait` type, if any.
    pub type_name: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Last line of the body (for span-scoped source scans).
    pub end_line: u32,
    /// True inside `#[cfg(test)]`/`#[test]` code or test files.
    pub is_test: bool,
    /// True if the return type names a `*Guard*` type: callers treat
    /// this fn's direct acquisitions as their own (lock helpers).
    pub returns_guard: bool,
    /// `(name, type-last-segment)` for each typed parameter.
    pub params: Vec<(String, String)>,
    /// Body events in source order.
    pub events: Vec<Event>,
}

/// A body event, in source order.
#[derive(Debug)]
pub enum Event {
    /// `{` inside the body.
    EnterBlock,
    /// `}` inside the body.
    ExitBlock,
    /// `;` at any nesting: releases transient (unbound) guards.
    StmtEnd,
    /// A zero-arg `.lock()`/`.read()`/`.write()` on a named field
    /// chain — the only way the workspace takes locks.
    Acquire {
        /// Receiver chain, e.g. `["self", "state"]`.
        recv: Vec<String>,
        /// `lock`, `read`, or `write`.
        via: String,
        /// The `let` binding receiving the guard, if any. Unbound
        /// guards die at the end of the statement.
        binding: Option<String>,
        /// 1-based line.
        line: u32,
    },
    /// `drop(x)` — explicit early guard release.
    DropVar {
        /// The dropped binding.
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// A path or method call.
    Call(Call),
}

/// One call site.
#[derive(Debug)]
pub struct Call {
    /// Path segments (`["bcc_serve", "run"]`) or the bare method
    /// name for method calls.
    pub path: Vec<String>,
    /// True for `recv.m(..)` syntax.
    pub is_method: bool,
    /// Receiver chain when it is a plain ident/field chain; `None`
    /// when the receiver is a computed expression (conservative).
    pub recv: Option<Vec<String>>,
    /// The `let` binding receiving the result, if any (guard
    /// helpers propagate their extent through this).
    pub binding: Option<String>,
    /// 1-based line.
    pub line: u32,
}

/// Derives `(crate, module)` keys from a workspace-relative path.
pub fn crate_and_module(path: &str) -> (String, String) {
    let parts: Vec<&str> = path.split('/').collect();
    let krate = parts
        .iter()
        .position(|p| *p == "crates")
        .and_then(|i| parts.get(i + 1))
        .map_or_else(|| "root".to_string(), |s| (*s).to_string());
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    let module = match stem {
        "mod" => parts
            .len()
            .checked_sub(2)
            .and_then(|i| parts.get(i))
            .map_or_else(|| krate.clone(), |s| (*s).to_string()),
        "lib" | "main" => krate.clone(),
        other => other.to_string(),
    };
    (krate, module)
}

/// Keywords that can precede `(` without being calls.
const KEYWORDS: [&str; 31] = [
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "let", "mut",
    "ref", "move", "as", "in", "fn", "pub", "use", "impl", "struct", "enum", "trait", "type",
    "where", "const", "static", "unsafe", "extern", "crate", "dyn", "await",
];

/// Parses one lexed file into its function items and events.
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let code: Vec<&Token> = file.code().collect();
    let (crate_name, module) = crate_and_module(&file.path);
    let mut p = ItemParser {
        code: &code,
        file,
        fns: Vec::new(),
        impl_stack: Vec::new(),
        fn_stack: Vec::new(),
        depth: 0,
        pending: None,
    };
    p.run();
    ParsedFile {
        path: file.path.clone(),
        crate_name,
        module,
        fns: p.fns,
    }
}

struct ItemParser<'a> {
    code: &'a [&'a Token],
    file: &'a SourceFile,
    fns: Vec<ParsedFn>,
    /// `(type name, brace depth inside the impl body)`.
    impl_stack: Vec<(String, u32)>,
    /// `(index into fns, brace depth inside the fn body)`.
    fn_stack: Vec<(usize, u32)>,
    depth: u32,
    /// Current `let <name> =` binding, cleared at `;`.
    pending: Option<String>,
}

impl ItemParser<'_> {
    fn at(&self, i: usize) -> Option<&Token> {
        self.code.get(i).copied()
    }

    fn in_fn(&self) -> bool {
        !self.fn_stack.is_empty()
    }

    fn push_event(&mut self, ev: Event) {
        if let Some(&(idx, _)) = self.fn_stack.last() {
            if let Some(f) = self.fns.get_mut(idx) {
                f.events.push(ev);
            }
        }
    }

    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.code.len() {
            let t = self.code[i];
            if t.is_ident("fn") && self.at(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                i = self.parse_fn(i);
                continue;
            }
            if t.is_ident("impl") || t.is_ident("trait") {
                i = self.parse_impl(i);
                continue;
            }
            if t.is_punct('{') {
                self.depth += 1;
                if self.in_fn() {
                    self.push_event(Event::EnterBlock);
                }
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                self.close_brace(t.line);
                i += 1;
                continue;
            }
            if t.is_punct(';') {
                if self.in_fn() {
                    self.push_event(Event::StmtEnd);
                }
                self.pending = None;
                i += 1;
                continue;
            }
            if self.in_fn() && t.is_ident("let") {
                // `let [mut] name` followed by `:` or `=` binds a
                // single ident; pattern lets carry no guard extent.
                let mut j = i + 1;
                if self.at(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if self.at(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && self
                        .at(j + 1)
                        .is_some_and(|t| t.is_punct(':') || t.is_punct('='))
                {
                    self.pending = Some(self.code[j].text.clone());
                }
                i += 1;
                continue;
            }
            if self.in_fn()
                && t.is_ident("drop")
                && self.at(i + 1).is_some_and(|t| t.is_punct('('))
                && self.at(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                && self.at(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                self.push_event(Event::DropVar {
                    name: self.code[i + 2].text.clone(),
                    line: t.line,
                });
                i += 4;
                continue;
            }
            if self.in_fn()
                && t.is_punct('.')
                && self.at(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                i = self.parse_method(i);
                continue;
            }
            if self.in_fn() && t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                let after_dot = i > 0 && self.code[i - 1].is_punct('.');
                let mid_path =
                    i >= 2 && self.code[i - 1].is_punct(':') && self.code[i - 2].is_punct(':');
                if !after_dot && !mid_path {
                    self.try_path_call(i);
                }
            }
            i += 1;
        }
    }

    /// A `}` at `line`: closes the innermost fn body, impl body, or
    /// block.
    fn close_brace(&mut self, line: u32) {
        if let Some(&(idx, body_depth)) = self.fn_stack.last() {
            if body_depth == self.depth {
                if let Some(f) = self.fns.get_mut(idx) {
                    f.end_line = f.line.max(line);
                }
                self.fn_stack.pop();
                self.depth = self.depth.saturating_sub(1);
                return;
            }
        }
        if let Some(&(_, body_depth)) = self.impl_stack.last() {
            if body_depth == self.depth && self.fn_stack.is_empty() {
                self.impl_stack.pop();
                self.depth = self.depth.saturating_sub(1);
                return;
            }
        }
        if self.in_fn() {
            self.push_event(Event::ExitBlock);
        }
        self.depth = self.depth.saturating_sub(1);
    }

    /// Parses `fn name<...>(params) -> Ret {` starting at the `fn`
    /// keyword; returns the index to resume from. Bodiless fns
    /// (trait method declarations) produce no item.
    fn parse_fn(&mut self, i: usize) -> usize {
        let name = self.code[i + 1].text.clone();
        let line = self.code[i].line;
        let mut j = i + 2;
        if self.at(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(self.code, j);
        }
        if !self.at(j).is_some_and(|t| t.is_punct('(')) {
            return j;
        }
        let close = match matching_paren(self.code, j) {
            Some(c) => c,
            None => return self.code.len(),
        };
        let params = collect_params(self.code, j, close);
        j = close + 1;
        let mut returns_guard = false;
        while j < self.code.len() {
            let t = self.code[j];
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.kind == TokKind::Ident && t.text.contains("Guard") {
                returns_guard = true;
            }
            j += 1;
        }
        if !self.at(j).is_some_and(|t| t.is_punct('{')) {
            return j.saturating_add(1).min(self.code.len());
        }
        self.depth += 1;
        self.fns.push(ParsedFn {
            type_name: self.impl_stack.last().map(|(t, _)| t.clone()),
            name,
            line,
            end_line: line,
            is_test: self.file.is_test_line(line),
            returns_guard,
            params,
            events: Vec::new(),
        });
        self.fn_stack.push((self.fns.len() - 1, self.depth));
        j + 1
    }

    /// Parses `impl<...> Type {`, `impl Trait for Type {`, or
    /// `trait Name {` starting at the keyword; returns the resume
    /// index (just inside the body, or past a bodiless `;`).
    fn parse_impl(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if self.at(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(self.code, j);
        }
        let (first, after) = read_type_path(self.code, j);
        j = after;
        let mut ty = first;
        if self.at(j).is_some_and(|t| t.is_ident("for")) {
            let (second, after) = read_type_path(self.code, j + 1);
            ty = second;
            j = after;
        }
        while j < self.code.len() && !self.code[j].is_punct('{') && !self.code[j].is_punct(';') {
            j += 1;
        }
        if self.at(j).is_some_and(|t| t.is_punct('{')) {
            self.depth += 1;
            if let Some(ty) = ty {
                self.impl_stack.push((ty, self.depth));
            } else {
                // Unnamed impl target: keep brace accounting sane by
                // recording an anonymous context.
                self.impl_stack.push((String::new(), self.depth));
            }
            j + 1
        } else {
            j.saturating_add(1).min(self.code.len())
        }
    }

    /// Parses `.name(..)` (turbofish allowed) starting at the `.`;
    /// returns the resume index (right after the method name).
    fn parse_method(&mut self, i: usize) -> usize {
        let name = self.code[i + 1].text.clone();
        let line = self.code[i + 1].line;
        let mut m = i + 2;
        if self.at(m).is_some_and(|t| t.is_punct(':'))
            && self.at(m + 1).is_some_and(|t| t.is_punct(':'))
            && self.at(m + 2).is_some_and(|t| t.is_punct('<'))
        {
            m = skip_angles(self.code, m + 2);
        }
        if !self.at(m).is_some_and(|t| t.is_punct('(')) {
            return i + 1;
        }
        let recv = receiver_chain(self.code, i);
        let zero_arg = self.at(m + 1).is_some_and(|t| t.is_punct(')'));
        let is_acquire = matches!(name.as_str(), "lock" | "read" | "write")
            && zero_arg
            && recv
                .as_ref()
                .is_some_and(|r| !(r.len() == 1 && r[0] == "self"));
        if is_acquire {
            self.push_event(Event::Acquire {
                recv: recv.unwrap_or_default(),
                via: name,
                binding: self.pending.clone(),
                line,
            });
        } else {
            self.push_event(Event::Call(Call {
                path: vec![name],
                is_method: true,
                recv,
                binding: self.pending.clone(),
                line,
            }));
        }
        i + 2
    }

    /// Records a path call `a::b::c(..)` starting at its first
    /// segment, if the path is followed by `(`.
    fn try_path_call(&mut self, i: usize) {
        let mut segs = vec![self.code[i].text.clone()];
        let mut j = i + 1;
        loop {
            if self.at(j).is_some_and(|t| t.is_punct(':'))
                && self.at(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                if self.at(j + 2).is_some_and(|t| t.is_punct('<')) {
                    j = skip_angles(self.code, j + 2);
                    continue;
                }
                if self.at(j + 2).is_some_and(|t| t.kind == TokKind::Ident) {
                    segs.push(self.code[j + 2].text.clone());
                    j += 3;
                    continue;
                }
            }
            break;
        }
        if self.at(j).is_some_and(|t| t.is_punct('(')) {
            let line = self.code[i].line;
            self.push_event(Event::Call(Call {
                path: segs,
                is_method: false,
                recv: None,
                binding: self.pending.clone(),
                line,
            }));
        }
    }
}

/// Skips a `<...>` group starting at its `<`; returns the index past
/// the matching `>`. `->` arrows inside (`Fn(..) -> T`) do not close
/// the group.
fn skip_angles(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            if i > 0 && code[i - 1].is_punct('-') {
                i += 1;
                continue;
            }
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    code.len()
}

/// The index of the `)` matching the `(` at `open`.
fn matching_paren(code: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// `(name, type-last-segment)` pairs from a parameter list between
/// `(` at `open` and its matching `)` at `close`. Only simple
/// `name: Type` params are captured; patterns and `self` are skipped.
fn collect_params(code: &[&Token], open: usize, close: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k < close {
        let t = code[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 1
            && t.kind == TokKind::Ident
            && t.text != "self"
            && t.text != "mut"
            && code.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !code.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && !code.get(k.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
        {
            if let Some(ty) = first_path_last_seg(code, k + 2, close) {
                out.push((t.text.clone(), ty));
            }
        }
        k += 1;
    }
    out
}

/// The last segment of the first type path at `start` (bounded by
/// `stop`), skipping `&`/`mut`/`dyn`/`impl` and lifetimes.
fn first_path_last_seg(code: &[&Token], start: usize, stop: usize) -> Option<String> {
    let mut k = start;
    while k < stop {
        let t = code[k];
        let skip = t.is_punct('&')
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("impl");
        if !skip {
            break;
        }
        k += 1;
    }
    if !code.get(k).is_some_and(|t| t.kind == TokKind::Ident) {
        return None;
    }
    let mut last = code[k].text.clone();
    k += 1;
    while k + 1 < stop
        && code[k].is_punct(':')
        && code[k + 1].is_punct(':')
        && code.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        last = code[k + 2].text.clone();
        k += 3;
    }
    Some(last)
}

/// The last segment of a type path for impl headers, skipping
/// sigils and generic arguments. Returns `(type, resume index)`.
fn read_type_path(code: &[&Token], start: usize) -> (Option<String>, usize) {
    let mut k = start;
    while k < code.len() {
        let t = code[k];
        let skip = t.is_punct('&')
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn");
        if !skip {
            break;
        }
        k += 1;
    }
    if !code.get(k).is_some_and(|t| t.kind == TokKind::Ident) {
        return (None, k);
    }
    let mut last = code[k].text.clone();
    k += 1;
    loop {
        if code.get(k).is_some_and(|t| t.is_punct('<')) {
            k = skip_angles(code, k);
            continue;
        }
        if code.get(k).is_some_and(|t| t.is_punct(':'))
            && code.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            last = code[k + 2].text.clone();
            k += 3;
            continue;
        }
        break;
    }
    (Some(last), k)
}

/// Walks the receiver chain backwards from a `.` token: `a.b.c` →
/// `Some(["a","b","c"])`. A computed receiver (`f().x`, `xs[i]`,
/// `x?`) yields `None` — the analyses treat it conservatively.
fn receiver_chain(code: &[&Token], dot: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        let prev = code[k - 1];
        if prev.kind != TokKind::Ident {
            return None;
        }
        chain.push(prev.text.clone());
        if k >= 2 && code[k - 2].is_punct('.') {
            k -= 2;
        } else {
            break;
        }
    }
    chain.reverse();
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        let file = SourceFile::parse("crates/demo/src/work.rs", src);
        parse_file(&file)
    }

    fn calls(f: &ParsedFn) -> Vec<(Vec<String>, bool)> {
        f.events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.path.clone(), c.is_method)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn crate_and_module_keys() {
        assert_eq!(
            crate_and_module("crates/serve/src/server.rs"),
            ("serve".into(), "server".into())
        );
        assert_eq!(
            crate_and_module("crates/algorithms/src/sketch/mod.rs"),
            ("algorithms".into(), "sketch".into())
        );
        assert_eq!(
            crate_and_module("crates/comm/src/lib.rs"),
            ("comm".into(), "comm".into())
        );
    }

    #[test]
    fn impl_methods_get_their_type() {
        let p = parse("impl Server {\n    fn run(&self) { self.step(); }\n}\nfn free() {}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].type_name.as_deref(), Some("Server"));
        assert_eq!(p.fns[0].name, "run");
        assert_eq!(p.fns[1].type_name, None);
        assert_eq!(calls(&p.fns[0]), vec![(vec!["step".to_string()], true)]);
    }

    #[test]
    fn trait_impl_for_binds_the_self_type() {
        let p = parse("impl Experiment for Census {\n    fn id(&self) -> u32 { 7 }\n}\n");
        assert_eq!(p.fns[0].type_name.as_deref(), Some("Census"));
    }

    #[test]
    fn generic_impl_headers_are_skipped_cleanly() {
        let p = parse("impl<T: Fn(u32) -> u32> Shard<T> {\n    fn go(&self) { helper(); }\n}\n");
        assert_eq!(p.fns[0].type_name.as_deref(), Some("Shard"));
        assert_eq!(calls(&p.fns[0]), vec![(vec!["helper".to_string()], false)]);
    }

    #[test]
    fn acquisitions_capture_receiver_chain_and_binding() {
        let p = parse(
            "impl Hub {\n    fn absorb(&self) {\n        self.store.lock().push(1);\n        let st = self.state.lock();\n    }\n}\n",
        );
        let acquires: Vec<_> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { recv, binding, .. } => Some((recv.clone(), binding.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            acquires,
            vec![
                (vec!["self".into(), "store".into()], None),
                (vec!["self".into(), "state".into()], Some("st".into())),
            ]
        );
    }

    #[test]
    fn self_lock_is_a_method_call_not_an_acquisition() {
        let p = parse("impl A {\n    fn depth(&self) -> u64 { self.lock().n }\n}\n");
        assert_eq!(calls(&p.fns[0]), vec![(vec!["lock".to_string()], true)]);
        assert!(!p.fns[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Acquire { .. })));
    }

    #[test]
    fn computed_receivers_degrade_to_unknown() {
        let p = parse("fn f() { shards[i].lock(); make().lock(); }\n");
        // Both are recorded as plain method calls with no receiver.
        let unresolved: Vec<_> = p.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) if c.is_method => Some(c.recv.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(unresolved, vec![None, None]);
    }

    #[test]
    fn path_calls_with_turbofish_and_modules() {
        let p =
            parse("fn f() { bcc_engine::run(1); Baseline::parse(x); iter.collect::<Vec<_>>(); }\n");
        let cs = calls(&p.fns[0]);
        assert!(cs.contains(&(vec!["bcc_engine".into(), "run".into()], false)));
        assert!(cs.contains(&(vec!["Baseline".into(), "parse".into()], false)));
        assert!(cs.contains(&(vec!["collect".into()], true)));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let p = parse("fn f() { println!(\"x\"); if (a) { return (b); } }\n");
        assert!(calls(&p.fns[0]).is_empty());
    }

    #[test]
    fn guard_returning_helpers_and_params() {
        let p = parse(
            "fn lock_shard<T>(shard: &Shard<T>) -> MutexGuard<'_, VecDeque<T>> {\n    shard.queue.lock()\n}\n",
        );
        let f = &p.fns[0];
        assert!(f.returns_guard);
        assert_eq!(f.params, vec![("shard".to_string(), "Shard".to_string())]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let p = parse(
            "trait T {\n    fn sig(&self) -> u32;\n    fn with_default(&self) { go(); }\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "with_default");
        assert_eq!(p.fns[0].type_name.as_deref(), Some("T"));
    }

    #[test]
    fn drop_and_statement_events_track_guard_extent() {
        let p = parse(
            "fn f(&self) {\n    let g = self.inner.lock();\n    use_it(&g);\n    drop(g);\n    other();\n}\n",
        );
        let kinds: Vec<&str> = p.fns[0]
            .events
            .iter()
            .map(|e| match e {
                Event::Acquire { .. } => "acquire",
                Event::DropVar { .. } => "drop",
                Event::StmtEnd => "stmt",
                Event::Call(_) => "call",
                Event::EnterBlock => "enter",
                Event::ExitBlock => "exit",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["acquire", "stmt", "call", "stmt", "drop", "stmt", "call", "stmt"]
        );
    }

    #[test]
    fn test_fns_are_marked() {
        let p =
            parse("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x(); }\n}\nfn lib() {}\n");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn fn_spans_cover_their_bodies() {
        let p = parse("fn a() {\n    one();\n    two();\n}\nfn b() {}\n");
        assert_eq!(p.fns[0].line, 1);
        assert_eq!(p.fns[0].end_line, 4);
    }
}
