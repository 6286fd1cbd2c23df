//! Fixture-driven rule tests plus the workspace gate.
//!
//! Every file under `tests/fixtures/` carries a `// virtual: <path>` header
//! mapping it to the workspace path its rule scopes on (rules key off the
//! crate and file name, so the fixture must *pretend* to live there).  Each
//! `_bad` fixture trips exactly one rule; its `_ok` twin encodes the
//! sanctioned alternative and scans clean.  The final test runs the
//! analyzer over the live workspace — the same file set the bin scans — so
//! `cargo test` fails the moment a violation lands, not just CI.

use std::path::Path;

use zerber_analyze::{analyze_files, collect_workspace, Analysis};

/// Loads one fixture, resolving its `// virtual:` header to the path the
/// analyzer should believe it has.
fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let virt = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// virtual: "))
        .unwrap_or_else(|| panic!("fixture {name} lacks a `// virtual: <path>` header"))
        .trim()
        .to_string();
    (virt, src)
}

fn scan(names: &[&str]) -> Analysis {
    let files: Vec<_> = names.iter().map(|n| fixture(n)).collect();
    analyze_files(&files)
}

/// Asserts the scan found exactly one violation, of the given rule.
fn assert_trips_once(a: &Analysis, rule: &str) {
    assert_eq!(
        a.violations.len(),
        1,
        "expected exactly one `{rule}` violation, got {:#?}",
        a.violations
    );
    assert_eq!(a.violations[0].rule, rule, "{:#?}", a.violations);
}

fn assert_clean(a: &Analysis) {
    assert!(
        a.is_clean(),
        "expected a clean scan, got {:#?}",
        a.violations
    );
}

#[test]
fn unwrap_fixture_trips_panic_and_twin_is_clean() {
    assert_trips_once(&scan(&["panic_unwrap_bad.rs"]), "panic");
    assert_clean(&scan(&["panic_unwrap_ok.rs"]));
}

#[test]
fn range_slicing_fixture_trips_panic_and_twin_is_clean() {
    assert_trips_once(&scan(&["panic_slice_bad.rs"]), "panic");
    assert_clean(&scan(&["panic_slice_ok.rs"]));
}

#[test]
fn nested_lock_fixture_trips_lock_and_twin_is_clean() {
    let a = scan(&["lock_nested_bad.rs"]);
    assert_trips_once(&a, "lock");
    assert!(a.violations[0].message.contains("second shard-lock"));
    assert_clean(&scan(&["lock_nested_ok.rs"]));
}

#[test]
fn io_under_write_guard_fixture_trips_lock_and_twin_is_clean() {
    let a = scan(&["lock_io_bad.rs"]);
    assert_trips_once(&a, "lock");
    assert!(a.violations[0].message.contains("durable IO"));
    assert_clean(&scan(&["lock_io_ok.rs"]));
}

#[test]
fn bare_cast_fixture_trips_cast_and_twin_is_clean() {
    assert_trips_once(&scan(&["cast_bad.rs"]), "cast");
    assert_clean(&scan(&["cast_ok.rs"]));
}

#[test]
fn used_allow_suppresses_and_is_counted() {
    let a = scan(&["allow_used.rs"]);
    assert_clean(&a);
    assert_eq!(a.allows.len(), 1, "{:#?}", a.allows);
    assert_eq!(a.allows[0].rule, "panic");
    assert_eq!(a.allows[0].suppressed, 1);
}

#[test]
fn unused_allow_is_itself_flagged() {
    assert_trips_once(&scan(&["allow_unused.rs"]), "unused-allow");
}

/// The workspace gate: the live sources — the exact set the bin scans —
/// must be violation-free, and every allow in them must carry a reason.
#[test]
fn the_workspace_itself_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = collect_workspace(&root).expect("workspace sources are readable");
    assert!(
        files.len() > 50,
        "suspiciously few sources ({}) — did the walker break?",
        files.len()
    );
    let a = analyze_files(&files);
    assert!(
        a.is_clean(),
        "the workspace has analyzer violations:\n{}",
        zerber_analyze::report::render_text(&a)
    );
    for allow in &a.allows {
        assert!(
            !allow.reason.trim().is_empty(),
            "allow at {}:{} has no reason",
            allow.file,
            allow.line
        );
    }
}
