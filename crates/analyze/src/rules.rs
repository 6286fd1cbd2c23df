//! The three workspace invariant rules.
//!
//! Every rule is *textual and scoped*: it works on the token stream of one
//! file, applies only where the invariant it guards actually holds, and
//! reports file/line/snippet diagnostics.  The rules deliberately err on the
//! side of firing — a false positive costs one written `analyze::allow` with
//! a reason; a false negative costs a panic or a deadlock in production.
//!
//! | rule  | scope | what it catches |
//! |-------|-------|-----------------|
//! | panic | non-test code of `store`, `protocol`, `zerber-r`, `index/src/compress.rs` | `unwrap()`, `expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`; plus range-slicing `&b[i..j]` in the codec files (untrusted-length slicing is the historical panic vector) |
//! | lock  | non-test code of `store`, `protocol` | a second shard-lock acquisition while a shard guard is live in the same function; `fsync`/`sync_all`/`rename`/`File::create` textually inside a live shard *write*-guard scope (the off-lock IO contract) |
//! | cast  | non-test code of `compress.rs`, `segment.rs`, `spill.rs`, `durable.rs`, `replication.rs` (store) | bare `as u8`/`as u32`/`as u64`/`as usize` — require `try_from`/`from` or an allow |

use crate::lexer::{Kind, Tok};
use crate::source::{matching, SourceFile};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub snippet: String,
    pub message: String,
}

/// Crates whose non-test code must be panic-free (the serving path).
const SERVING_CRATES: &[&str] = &["store", "protocol", "zerber-r"];

/// Files that parse untrusted / on-disk bytes: the codec set.  Range-slicing
/// and bare narrowing casts are banned here.
const CODEC_FILES: &[&str] = &[
    "compress.rs",
    "segment.rs",
    "spill.rs",
    "durable.rs",
    "replication.rs",
];

/// True when the panic rule applies to this file at all.
fn panic_scope(f: &SourceFile) -> bool {
    SERVING_CRATES.contains(&f.crate_name())
        || (f.crate_name() == "index" && f.is_named("compress.rs"))
}

/// True when the file is in the codec set (index-slicing + cast bans).
fn codec_scope(f: &SourceFile) -> bool {
    (f.crate_name() == "store" || f.crate_name() == "index")
        && CODEC_FILES.iter().any(|n| f.is_named(n))
}

/// True when the lock rule applies (the crates that touch shard locks).
fn lock_scope(f: &SourceFile) -> bool {
    f.crate_name() == "store" || f.crate_name() == "protocol"
}

fn push(out: &mut Vec<Violation>, rule: &'static str, f: &SourceFile, line: usize, msg: String) {
    out.push(Violation {
        rule,
        file: f.path.clone(),
        line,
        snippet: f.snippet(line).to_string(),
        message: msg,
    });
}

// ---------------------------------------------------------------------------
// Rule 1: panic-freedom
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Scans one file for panic-reachable constructs in non-test code.
pub fn check_panic(f: &SourceFile, out: &mut Vec<Violation>) {
    if !panic_scope(f) {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        // Method position only (`x.unwrap()`, not `unwrap(` helper names);
        // macros only with their `!`.
        match t.ident() {
            Some("unwrap")
                if toks.get(i + 1).is_some_and(|n| n.is('(')) && i > 0 && toks[i - 1].is('.') =>
            {
                push(
                    out,
                    "panic",
                    f,
                    t.line,
                    "`.unwrap()` on a serving path — return a typed error instead".into(),
                );
            }
            Some("expect")
                if toks.get(i + 1).is_some_and(|n| n.is('(')) && i > 0 && toks[i - 1].is('.') =>
            {
                push(
                    out,
                    "panic",
                    f,
                    t.line,
                    "`.expect(..)` on a serving path — return a typed error instead".into(),
                );
            }
            Some(m) if PANIC_MACROS.contains(&m) && toks.get(i + 1).is_some_and(|n| n.is('!')) => {
                push(
                    out,
                    "panic",
                    f,
                    t.line,
                    format!("`{m}!` is reachable from a serving path"),
                );
            }
            _ => {}
        }
        // Range-slicing in the codec files: `expr[a..b]`, `expr[..n]`,
        // `expr[n..]` — a wrong untrusted length panics here.  Scalar
        // indexing is left to the loop-bound conventions (and clippy).
        if codec_scope(f) && t.is('[') && is_index_position(toks, i) {
            if let Some(close) = matching(toks, i, '[', ']') {
                let inner = &toks[i + 1..close];
                let mut depth = 0i32;
                let mut has_range = false;
                for (k, it) in inner.iter().enumerate() {
                    match it.kind {
                        Kind::Punct('[') | Kind::Punct('(') => depth += 1,
                        Kind::Punct(']') | Kind::Punct(')') => depth -= 1,
                        Kind::Punct('.')
                            if depth == 0 && inner.get(k + 1).is_some_and(|n| n.is('.')) =>
                        {
                            has_range = true;
                        }
                        _ => {}
                    }
                }
                if has_range && !inner.is_empty() {
                    push(
                        out,
                        "panic",
                        f,
                        t.line,
                        "range-slicing in a codec path — use `.get(..)` and surface a corrupt-\
                         input error"
                            .into(),
                    );
                }
            }
        }
    }
}

/// True when the `[` at `i` is indexing (follows an expression) rather than
/// opening an array literal, attribute or type.
fn is_index_position(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match &toks[i - 1].kind {
        Kind::Ident(name) => {
            // `&mut [T]` / `impl Index<[u8]>` style type positions are rare
            // in expression scans; keywords that *precede* literals are not.
            !matches!(
                name.as_str(),
                "mut" | "dyn" | "in" | "return" | "as" | "else" | "match" | "if" | "impl" | "where"
            )
        }
        Kind::Punct(')') | Kind::Punct(']') => true,
        Kind::Literal => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Rule 2: lock discipline
// ---------------------------------------------------------------------------

/// How a shard lock might be acquired, textually.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Acq {
    Read,
    Write,
}

/// Helper names that acquire a shard lock internally: the `shard_*` funnels
/// are the only sanctioned acquisition sites after the lock-rank refactor.
const READ_HELPERS: &[&str] = &["shard_read"];
const WRITE_HELPERS: &[&str] = &["shard_write"];

/// IO identifiers banned inside a live shard write-guard scope: page-file
/// compaction and checkpoint IO must run off-lock (the off-lock compaction
/// contract), so any durable-IO verb under a write guard needs an explicit,
/// reasoned allow.  Beyond the std verbs, the repo's own durable-IO helper
/// names are listed — a textual rule cannot see through a helper call, so
/// the helpers that fsync/rename internally count as the verb itself.
const WRITE_GUARD_BANNED_IO: &[&str] = &[
    "fsync",
    "sync_all",
    "sync_data",
    "rename",
    "sync_file",
    "commit_manifest",
    "reset_wal",
    "commit_checkpoint",
];

/// Scans every function body for nested shard-lock acquisitions and for
/// durable IO performed under a shard write guard.
pub fn check_lock(f: &SourceFile, out: &mut Vec<Violation>) {
    if !lock_scope(f) {
        return;
    }
    let toks = &f.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() == Some("fn") && !f.in_test[i] {
            if let Some((body_start, body_end)) = fn_body(toks, i) {
                check_lock_body(f, body_start, body_end, out);
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
}

/// Finds the `{`..`}` token span of the function whose `fn` keyword is at
/// `at` (None for trait-declared signatures ending in `;`).
fn fn_body(toks: &[Tok], at: usize) -> Option<(usize, usize)> {
    let mut depth_paren = 0i32;
    let mut depth_angle = 0i32;
    let mut i = at + 1;
    while i < toks.len() {
        match &toks[i].kind {
            Kind::Punct('(') => depth_paren += 1,
            Kind::Punct(')') => depth_paren -= 1,
            Kind::Punct('<') => depth_angle += 1,
            Kind::Punct('>') if depth_angle > 0 => depth_angle -= 1,
            Kind::Punct(';') if depth_paren == 0 => return None,
            Kind::Punct('{') if depth_paren == 0 => {
                let end = matching(toks, i, '{', '}')?;
                return Some((i, end));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// A live guard scope inside one function body.
#[derive(Debug)]
struct GuardScope {
    mode: Acq,
    /// Token index past which the guard is dead (exclusive).
    end: usize,
    /// Line of the acquisition, for the diagnostic.
    line: usize,
    /// Binding name when `let`-bound (enables `drop(name)` tracking).
    name: Option<String>,
}

/// Walks one function body tracking shard-guard liveness.
fn check_lock_body(f: &SourceFile, start: usize, end: usize, out: &mut Vec<Violation>) {
    let toks = &f.tokens;
    let mut guards: Vec<GuardScope> = Vec::new();
    let mut i = start + 1;
    while i < end {
        guards.retain(|g| g.end > i);
        // `drop(name)` releases a let-bound guard early.
        if toks[i].ident() == Some("drop")
            && toks.get(i + 1).is_some_and(|t| t.is('('))
            && toks.get(i + 3).is_some_and(|t| t.is(')'))
        {
            if let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) {
                guards.retain(|g| g.name.as_deref() != Some(name));
            }
        }
        if let Some(acq) = acquisition_at(toks, i) {
            let line = toks[i].line;
            if let Some(live) = guards.last() {
                push(
                    out,
                    "lock",
                    f,
                    line,
                    format!(
                        "second shard-lock acquisition while the guard taken on line {} is \
                         still live — nested shard locks deadlock under contention",
                        live.line
                    ),
                );
            }
            let (scope_end, name) = guard_extent(toks, i, end);
            guards.push(GuardScope {
                mode: acq,
                end: scope_end,
                line,
                name,
            });
            // Skip past the acquisition tokens themselves so the receiver
            // chain isn't double-counted.
            i += 1;
            continue;
        }
        // Durable IO under a live *write* guard.
        if let Some(id) = toks[i].ident() {
            let under_write = guards.iter().any(|g| g.mode == Acq::Write);
            if under_write {
                let banned = WRITE_GUARD_BANNED_IO.contains(&id)
                    || (id == "File"
                        && toks.get(i + 1).is_some_and(|t| t.is(':'))
                        && toks
                            .get(i + 3)
                            .is_some_and(|t| matches!(t.ident(), Some("create" | "create_new"))));
                if banned {
                    let held = guards
                        .iter()
                        .rev()
                        .find(|g| g.mode == Acq::Write)
                        .map(|g| g.line)
                        .unwrap_or(0);
                    push(
                        out,
                        "lock",
                        f,
                        toks[i].line,
                        format!(
                            "durable IO (`{id}`) inside the shard write guard taken on line \
                             {held} — compaction/checkpoint IO must run off-lock"
                        ),
                    );
                }
            }
        }
        i += 1;
    }
}

/// Is token `i` a shard-lock acquisition?  Either `.read()` / `.write()`
/// with `shards` in the receiver chain, or one of the sanctioned helpers.
fn acquisition_at(toks: &[Tok], i: usize) -> Option<Acq> {
    if let Some(id) = toks[i].ident() {
        if READ_HELPERS.contains(&id) && toks.get(i + 1).is_some_and(|t| t.is('(')) {
            return Some(Acq::Read);
        }
        if WRITE_HELPERS.contains(&id) && toks.get(i + 1).is_some_and(|t| t.is('(')) {
            return Some(Acq::Write);
        }
        if (id == "read" || id == "write")
            && toks.get(i + 1).is_some_and(|t| t.is('('))
            && toks.get(i + 2).is_some_and(|t| t.is(')'))
            && i > 0
            && toks[i - 1].is('.')
            && receiver_mentions_shards(toks, i - 1)
        {
            return Some(if id == "read" { Acq::Read } else { Acq::Write });
        }
    }
    None
}

/// Walks the expression chain leftwards from the `.` at `dot` and reports
/// whether any identifier in the receiver is `shards` (the shard-lock
/// vector).  The walk crosses matched `[..]`/`(..)` groups and `.`/`::`
/// links and stops at anything that cannot continue a method receiver.
fn receiver_mentions_shards(toks: &[Tok], dot: usize) -> bool {
    let mut i = dot as i64 - 1;
    while i >= 0 {
        let t = &toks[i as usize];
        match &t.kind {
            Kind::Ident(name) => {
                if name == "shards" {
                    return true;
                }
                i -= 1;
            }
            Kind::Punct(']') => {
                // Jump to the matching `[`.
                let mut depth = 0i32;
                while i >= 0 {
                    if toks[i as usize].is(']') {
                        depth += 1;
                    } else if toks[i as usize].is('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                i -= 1;
            }
            Kind::Punct(')') => {
                let mut depth = 0i32;
                while i >= 0 {
                    if toks[i as usize].is(')') {
                        depth += 1;
                    } else if toks[i as usize].is('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                i -= 1;
            }
            Kind::Punct('.') | Kind::Punct(':') => i -= 1,
            Kind::Literal => i -= 1,
            _ => return false,
        }
    }
    false
}

/// The extent of the guard created by the acquisition at `i`, and its
/// binding name when `let`-bound.
///
/// * `let g = <acq>...;` — lives to the end of the enclosing block.
/// * bare temporary — lives to the end of the statement (`;`).
fn guard_extent(toks: &[Tok], i: usize, body_end: usize) -> (usize, Option<String>) {
    // Was this statement introduced by `let`?  Scan back to the nearest
    // statement boundary.
    let mut j = i as i64 - 1;
    let mut let_name: Option<String> = None;
    while j >= 0 {
        match &toks[j as usize].kind {
            Kind::Punct(';') | Kind::Punct('{') | Kind::Punct('}') => break,
            Kind::Ident(k) if k == "let" => {
                // Binding name: first plain ident after `let` (skip `mut`).
                let mut k2 = j as usize + 1;
                while let Some(t) = toks.get(k2) {
                    match t.ident() {
                        Some("mut") => k2 += 1,
                        Some(name) => {
                            let_name = Some(name.to_string());
                            break;
                        }
                        None => break,
                    }
                }
                break;
            }
            _ => j -= 1,
        }
    }
    if let_name.is_some() {
        // To the end of the enclosing block: find the `}` that closes the
        // deepest `{` open at position i.
        let mut depth = 0i32;
        for (k, t) in toks.iter().enumerate().take(body_end + 1).skip(i) {
            if t.is('{') {
                depth += 1;
            } else if t.is('}') {
                depth -= 1;
                if depth < 0 {
                    return (k, let_name);
                }
            }
        }
        return (body_end, let_name);
    }
    // Bare temporary: end of statement.
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(body_end).skip(i) {
        match t.kind {
            Kind::Punct('{') | Kind::Punct('(') | Kind::Punct('[') => depth += 1,
            Kind::Punct('}') | Kind::Punct(')') | Kind::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return (k, None);
                }
            }
            Kind::Punct(';') if depth == 0 => return (k, None),
            _ => {}
        }
    }
    (body_end, None)
}

// ---------------------------------------------------------------------------
// Rule 3: cast safety
// ---------------------------------------------------------------------------

/// Integer targets whose bare `as` casts are banned in codec files.  A cast
/// that truncates silently is exactly how the PR-5 u32-overflow bug slipped
/// in; `try_from` (or `from` for provable widenings) makes the intent typed.
const BANNED_CAST_TARGETS: &[&str] = &["u8", "u32", "u64", "usize"];

/// Scans codec files for bare `as <int>` casts in non-test code.
pub fn check_cast(f: &SourceFile, out: &mut Vec<Violation>) {
    if !codec_scope(f) {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.in_test[i] || t.ident() != Some("as") {
            continue;
        }
        // `as` in a use-rename (`use x as y`) has a non-type ident after it
        // too — but those name bindings, not casts.  Distinguish by the
        // target: only the banned integer names fire.
        if let Some(target) = toks.get(i + 1).and_then(|t| t.ident()) {
            if BANNED_CAST_TARGETS.contains(&target) {
                push(
                    out,
                    "cast",
                    f,
                    t.line,
                    format!(
                        "bare `as {target}` in a codec path — use `{target}::try_from` (or \
                         `::from` for a widening) so truncation is typed"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_panic(path: &str, src: &str) -> Vec<Violation> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check_panic(&f, &mut out);
        out
    }

    #[test]
    fn unwrap_fires_only_in_scope_and_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }";
        assert_eq!(run_panic("crates/store/src/a.rs", src).len(), 1);
        assert_eq!(run_panic("crates/corpus/src/a.rs", src).len(), 0);
        assert_eq!(run_panic("crates/index/src/compress.rs", src).len(), 1);
        assert_eq!(run_panic("crates/index/src/index.rs", src).len(), 0);
    }

    #[test]
    fn unwrap_as_a_free_function_name_does_not_fire() {
        // Only the method position panics: `Wrapper::unwrap(x)` is rare but
        // `unwrap(` as a local helper must not trip the rule.
        let src = "fn f() { let y = unwrap(x); }";
        assert_eq!(run_panic("crates/store/src/a.rs", src).len(), 0);
    }

    #[test]
    fn range_slicing_fires_only_in_codec_files() {
        let src = "fn f(b: &[u8]) -> &[u8] { &b[1..4] }";
        assert_eq!(run_panic("crates/store/src/segment.rs", src).len(), 1);
        assert_eq!(run_panic("crates/store/src/sharded.rs", src).len(), 0);
        // Scalar indexing does not fire (loop-bound conventions cover it).
        let scalar = "fn f(b: &[u8]) -> u8 { b[1] }";
        assert_eq!(run_panic("crates/store/src/segment.rs", scalar).len(), 0);
        // Array literals and attributes are not indexing.
        let lit = "fn f() { let a = [1, 2]; }";
        assert_eq!(run_panic("crates/store/src/segment.rs", lit).len(), 0);
    }

    fn run_lock(src: &str) -> Vec<Violation> {
        let f = SourceFile::parse("crates/store/src/x.rs", src);
        let mut out = Vec::new();
        check_lock(&f, &mut out);
        out
    }

    #[test]
    fn nested_shard_acquisition_fires() {
        let src = "fn f(&self) { let g = self.shards[a].read(); self.shards[b].write(); }";
        let v = run_lock(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("second shard-lock"));
    }

    #[test]
    fn block_scoped_guard_then_reacquire_is_clean() {
        let src = "fn f(&self) { let r = { let g = self.shards[a].read(); g.x() }; \
                   self.shards[a].write().sweep(); }";
        assert_eq!(run_lock(src).len(), 0);
    }

    #[test]
    fn dropped_guard_allows_reacquire() {
        let src = "fn f(&self) { let g = self.shards[a].read(); drop(g); self.shards[a].write(); }";
        assert_eq!(run_lock(src).len(), 0);
    }

    #[test]
    fn helper_funnels_count_as_acquisitions() {
        let src = "fn f(&self) { let t = self.shard_write(s); self.shard_read(s); }";
        assert_eq!(run_lock(src).len(), 1);
    }

    #[test]
    fn fsync_under_write_guard_fires_but_not_under_read() {
        let w = "fn f(&self) { let t = self.shard_write(s); io.sync_all(); }";
        assert_eq!(run_lock(w).len(), 1);
        let r = "fn f(&self) { let t = self.shard_read(s); io.sync_all(); }";
        assert_eq!(run_lock(r).len(), 0);
        let off = "fn f(&self) { self.shard_write(s).x(); io.rename(a, b); }";
        assert_eq!(run_lock(off).len(), 0);
    }

    #[test]
    fn unrelated_rwlocks_do_not_fire() {
        let src = "fn f(&self) { let g = self.pool.read(); self.pool.write(); }";
        assert_eq!(run_lock(src).len(), 0);
    }

    fn run_cast(path: &str, src: &str) -> Vec<Violation> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check_cast(&f, &mut out);
        out
    }

    #[test]
    fn casts_fire_in_codec_files_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(run_cast("crates/store/src/spill.rs", src).len(), 1);
        assert_eq!(run_cast("crates/store/src/sharded.rs", src).len(), 0);
        assert_eq!(run_cast("crates/index/src/compress.rs", src).len(), 1);
        // `as u16` / `as f64` are not in the banned set.
        let ok = "fn f(x: u8) -> f64 { x as f64 }";
        assert_eq!(run_cast("crates/store/src/spill.rs", ok).len(), 0);
        // use-renames don't fire.
        let use_as = "use std::io::Error as IoError;";
        assert_eq!(run_cast("crates/store/src/spill.rs", use_as).len(), 0);
    }
}
