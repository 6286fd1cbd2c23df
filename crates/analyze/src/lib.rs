//! `zerber-analyze` — the workspace invariant linter.
//!
//! Three project-specific rules (panic-freedom, lock discipline, cast safety)
//! run over a lexed token stream of every workspace source file; see
//! [`rules`] for the rule table.  Violations can be suppressed per-site with
//! a reasoned directive:
//!
//! ```text
//! // analyze::allow(cast): page ids are u32 by the on-disk format
//! let id = raw as u32;
//! ```
//!
//! Every allow is counted and printed, an allow with no reason or an unknown
//! rule is itself a violation, and an allow that suppresses nothing is
//! flagged (`unused-allow`) so exemptions can't outlive the code they
//! excused.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use rules::Violation;
use source::SourceFile;

/// One allow directive that actually suppressed something, for the report.
#[derive(Debug, Clone)]
pub struct UsedAllow {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub reason: String,
    /// Number of violations this single directive suppressed.
    pub suppressed: usize,
}

/// The outcome of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Violations that survived allow application, in file/line order.
    pub violations: Vec<Violation>,
    /// Allow directives that suppressed at least one violation.
    pub allows: Vec<UsedAllow>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// True when the scan found nothing to complain about.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects every `crates/*/src/**.rs` source under `root` as
/// `(workspace-relative path, contents)` pairs, sorted by path — the exact
/// set the `zerber-analyze` bin scans.  The analyzer's own crate is
/// skipped: its docs and tests discuss directive syntax, which would trip
/// the allow parser, and no rule scopes to it anyway.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.file_name().is_some_and(|n| n == "analyze") {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, src));
    }
    Ok(inputs)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes a set of `(path, contents)` pairs as one workspace.
///
/// Paths are workspace-relative (`crates/<name>/src/...`).
pub fn analyze_files(files: &[(String, String)]) -> Analysis {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();

    let mut raw: Vec<Violation> = Vec::new();
    for f in &parsed {
        rules::check_panic(f, &mut raw);
        rules::check_lock(f, &mut raw);
        rules::check_cast(f, &mut raw);
    }

    // Apply allows: a directive suppresses same-rule violations on its
    // target line of its own file.
    let mut analysis = Analysis {
        files_scanned: parsed.len(),
        ..Analysis::default()
    };
    for f in &parsed {
        let mut used = vec![0usize; f.allows.len()];
        for v in raw.iter_mut().filter(|v| v.file == f.path) {
            if let Some(k) = f
                .allows
                .iter()
                .position(|a| a.rule == v.rule && a.target_line == v.line)
            {
                used[k] += 1;
                v.rule = ""; // consumed
            }
        }
        for (a, &n) in f.allows.iter().zip(&used) {
            if n > 0 {
                analysis.allows.push(UsedAllow {
                    file: f.path.clone(),
                    line: a.line,
                    rule: a.rule.clone(),
                    reason: a.reason.clone(),
                    suppressed: n,
                });
            } else {
                analysis.violations.push(Violation {
                    rule: "unused-allow",
                    file: f.path.clone(),
                    line: a.line,
                    snippet: f.snippet(a.line).to_string(),
                    message: format!(
                        "allow({}) suppresses nothing — remove it so exemptions stay honest",
                        a.rule
                    ),
                });
            }
        }
        for b in &f.broken_allows {
            analysis.violations.push(Violation {
                rule: "allow-syntax",
                file: f.path.clone(),
                line: b.line,
                snippet: f.snippet(b.line).to_string(),
                message: b.what.clone(),
            });
        }
    }
    analysis
        .violations
        .extend(raw.into_iter().filter(|v| !v.rule.is_empty()));
    analysis
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    analysis
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, src: &str) -> Analysis {
        analyze_files(&[(path.to_string(), src.to_string())])
    }

    #[test]
    fn an_allow_suppresses_and_is_counted() {
        let src = "// analyze::allow(panic): upheld by the caller\n\
                   fn f() { x.unwrap(); }";
        let a = one("crates/store/src/a.rs", src);
        assert!(a.is_clean(), "{:?}", a.violations);
        assert_eq!(a.allows.len(), 1);
        assert_eq!(a.allows[0].suppressed, 1);
        assert_eq!(a.allows[0].reason, "upheld by the caller");
    }

    #[test]
    fn a_trailing_allow_targets_its_own_line() {
        let src = "fn f(x: u64) -> u32 {\n    x as u32 // analyze::allow(cast): fits, checked\n}";
        let a = one("crates/store/src/spill.rs", src);
        assert!(a.is_clean(), "{:?}", a.violations);
        assert_eq!(a.allows.len(), 1);
    }

    #[test]
    fn wrong_rule_allow_does_not_suppress_and_is_unused() {
        let src = "// analyze::allow(cast): wrong rule for an unwrap\n\
                   fn f() { x.unwrap(); }";
        let a = one("crates/store/src/a.rs", src);
        // Both the original violation and the unused allow surface.
        assert_eq!(a.violations.len(), 2, "{:?}", a.violations);
        assert!(a.violations.iter().any(|v| v.rule == "panic"));
        assert!(a.violations.iter().any(|v| v.rule == "unused-allow"));
    }

    #[test]
    fn broken_allow_is_a_violation() {
        let src = "// analyze::allow(panic):\nfn f() { g(); }";
        let a = one("crates/store/src/a.rs", src);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, "allow-syntax");
    }
}
