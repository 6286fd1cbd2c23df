//! Per-file source model: token stream, allow directives, test spans.
//!
//! An *allow directive* suppresses one rule on one line:
//!
//! ```text
//! // analyze::allow(panic): index bounded by the loop above
//! let head = &chunk[0];
//! ```
//!
//! The directive must name a known rule and carry a non-empty reason after
//! the `):` — a bare allow is itself a violation (`allow-syntax`).  A
//! standalone directive applies to the next token-bearing line; a trailing
//! directive (after code, on the same line) applies to its own line.  Every
//! allow is counted and printed, and an allow that suppresses nothing is a
//! violation too (`unused-allow`), so stale exemptions can't accumulate.

use crate::lexer::{lex, Kind, Tok};

/// The rule names an allow directive may reference.
pub const RULES: &[&str] = &["panic", "lock", "cast"];

/// One parsed allow directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the directive itself sits on (1-based).
    pub line: usize,
    /// The source line the directive suppresses.
    pub target_line: usize,
    /// Rule being allowed (validated against [`RULES`]).
    pub rule: String,
    /// The written justification (non-empty by construction).
    pub reason: String,
}

/// A syntactically broken allow directive (unknown rule, missing reason).
#[derive(Debug, Clone)]
pub struct BrokenAllow {
    pub line: usize,
    pub what: String,
}

/// A lexed source file plus everything the rules need to scope themselves.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (also how rules decide applicability).
    pub path: String,
    /// Raw source lines for snippet extraction.
    pub lines: Vec<String>,
    /// The token stream (comments/whitespace gone).
    pub tokens: Vec<Tok>,
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]` / `#[test]`
    /// item and is exempt from every rule.
    pub in_test: Vec<bool>,
    /// Well-formed allow directives.
    pub allows: Vec<Allow>,
    /// Malformed allow directives (reported as violations).
    pub broken_allows: Vec<BrokenAllow>,
}

impl SourceFile {
    /// Parses `src` as the file at `path` (workspace-relative).
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let in_test = mark_test_spans(&tokens);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let (allows, broken_allows) = parse_allows(&lines, &tokens);
        SourceFile {
            path: path.to_string(),
            lines,
            tokens,
            in_test,
            allows,
            broken_allows,
        }
    }

    /// The trimmed source text of 1-based `line` (for diagnostics).
    pub fn snippet(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim())
            .unwrap_or("")
    }

    /// True when the file name (last path component) is `name`.
    pub fn is_named(&self, name: &str) -> bool {
        self.path
            .rsplit(['/', '\\'])
            .next()
            .is_some_and(|f| f == name)
    }

    /// The crate directory name this file belongs to (`crates/<name>/...`),
    /// or "" for files outside `crates/`.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.path.split(['/', '\\']);
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(name)) => name,
            _ => "",
        }
    }
}

/// Finds every `analyze::allow` directive in the raw lines and resolves its
/// target line against the token stream.
fn parse_allows(lines: &[String], tokens: &[Tok]) -> (Vec<Allow>, Vec<BrokenAllow>) {
    let mut allows = Vec::new();
    let mut broken = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let line = idx + 1;
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(at) = comment.find("analyze::allow") else {
            continue;
        };
        let rest = &comment[at + "analyze::allow".len()..];
        let Some(rest) = rest.strip_prefix('(') else {
            broken.push(BrokenAllow {
                line,
                what: "expected `analyze::allow(<rule>): <reason>`".into(),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            broken.push(BrokenAllow {
                line,
                what: "unterminated rule name in allow directive".into(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            broken.push(BrokenAllow {
                line,
                what: format!("unknown rule `{rule}` in allow directive"),
            });
            continue;
        }
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
        if reason.is_empty() {
            broken.push(BrokenAllow {
                line,
                what: format!("allow({rule}) carries no reason — every exemption must say why"),
            });
            continue;
        }
        // Standalone comment line => next token-bearing line; trailing
        // comment => the code on this very line.
        let standalone = raw[..comment_at].trim().is_empty();
        let target_line = if standalone {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > line)
                .unwrap_or(line)
        } else {
            line
        };
        allows.push(Allow {
            line,
            target_line,
            rule,
            reason,
        });
    }
    (allows, broken)
}

/// Marks every token inside a `#[cfg(test)]`- or `#[test]`-attributed item.
///
/// The walk is purely structural: when an attribute whose tokens mention
/// `cfg` + `test` (covers `#[cfg(test)]` and `#[cfg(any(test, ...))]`) or a
/// bare `#[test]` is seen, the following item — through its matching `}` or
/// terminating `;` — is marked, intervening attributes included.
fn mark_test_spans(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is('#') && tokens.get(i + 1).is_some_and(|t| t.is('[')) {
            let attr_end = match matching(tokens, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            let attr = &tokens[i + 1..attr_end];
            let mentions = |name: &str| attr.iter().any(|t| t.ident() == Some(name));
            // `not` guards against `#[cfg(not(test))]` marking live code.
            let is_test_attr = (mentions("cfg") && mentions("test") && !mentions("not"))
                || (attr.len() == 2 && mentions("test"))
                || mentions("should_panic");
            if is_test_attr {
                let item_end = item_end(tokens, attr_end + 1);
                for flag in in_test.iter_mut().take(item_end).skip(i) {
                    *flag = true;
                }
                i = item_end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// The token index one past the end of the item starting at `start`: through
/// the matching `}` of its first top-level `{`, or its terminating `;`.
pub fn item_end(tokens: &[Tok], start: usize) -> usize {
    let mut depth_paren = 0i32;
    let mut depth_bracket = 0i32;
    let mut i = start;
    while i < tokens.len() {
        match &tokens[i].kind {
            Kind::Punct('(') => depth_paren += 1,
            Kind::Punct(')') => depth_paren -= 1,
            Kind::Punct('[') => depth_bracket += 1,
            Kind::Punct(']') => depth_bracket -= 1,
            Kind::Punct('{') if depth_paren == 0 && depth_bracket == 0 => {
                return matching(tokens, i, '{', '}').map_or(tokens.len(), |e| e + 1);
            }
            Kind::Punct(';') if depth_paren == 0 && depth_bracket == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Index of the token closing the bracket opened at `open` (which must hold
/// the `open_c` punctuation).
pub fn matching(tokens: &[Tok], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is(open_c) {
            depth += 1;
        } else if t.is(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_marked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n\
                   fn live2() {}";
        let f = SourceFile::parse("crates/store/src/x.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.ident() == Some("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.ident() == Some("live2"))
            .unwrap();
        assert!(!live2.1, "code after the test module is live again");
    }

    #[test]
    fn cfg_test_on_a_single_fn_and_statement() {
        let src = "#[cfg(test)]\nfn helper() { a.unwrap(); }\nfn live() { b(); }";
        let f = SourceFile::parse("crates/store/src/x.rs", src);
        let unwrap = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.ident() == Some("unwrap"))
            .unwrap();
        assert!(unwrap.1);
        let live = f
            .tokens
            .iter()
            .zip(&f.in_test)
            .find(|(t, _)| t.ident() == Some("live"))
            .unwrap();
        assert!(!live.1);
    }

    #[test]
    fn allow_directives_parse_and_resolve_targets() {
        let src = "// analyze::allow(panic): bounded by construction\n\
                   let x = v[0];\n\
                   let y = w[1]; // analyze::allow(cast): proven fits\n\
                   // analyze::allow(nope): bad rule\n\
                   // analyze::allow(panic):\n\
                   fin();";
        let f = SourceFile::parse("crates/store/src/x.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "panic");
        assert_eq!(f.allows[0].target_line, 2);
        assert_eq!(f.allows[1].rule, "cast");
        assert_eq!(f.allows[1].target_line, 3);
        assert_eq!(f.broken_allows.len(), 2, "unknown rule + missing reason");
    }

    #[test]
    fn crate_and_file_scoping_helpers() {
        let f = SourceFile::parse("crates/store/src/spill.rs", "fn a() {}");
        assert_eq!(f.crate_name(), "store");
        assert!(f.is_named("spill.rs"));
        assert!(!f.is_named("segment.rs"));
    }
}
