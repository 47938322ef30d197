//! End-to-end driver tests: each fixture under `tests/fixtures/` is a
//! miniature workspace with one seeded violation per analysis, proving the
//! linter exits nonzero on real findings, and the workspace self-check
//! proves the committed tree stays clean: every finding fails, so there is
//! no debt to carry.

use std::path::PathBuf;

use kalman_lint::diag::{Analysis, Level};
use kalman_lint::driver::{execute, Options, Outcome};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> Outcome {
    execute(&Options::for_root(fixture(name))).expect("fixture lints cleanly through the driver")
}

fn errors_of(outcome: &Outcome, analysis: Analysis) -> Vec<(String, u32, String)> {
    outcome
        .report
        .findings
        .iter()
        .filter(|f| f.level == Level::Error && f.analysis == analysis)
        .map(|f| (f.file.clone(), f.line, f.message.clone()))
        .collect()
}

#[test]
fn alloc_fixture_fails_with_a_call_chain() {
    let out = run_fixture("alloc");
    assert_eq!(
        out.exit_code, 1,
        "seeded violation must fail:\n{}",
        out.human
    );
    let errs = errors_of(&out, Analysis::Alloc);
    assert_eq!(
        errs.len(),
        5,
        "exactly the seeded push and growth calls:\n{}",
        out.human
    );
    assert!(errs.iter().all(|(file, _, _)| file == "src/hot.rs"));
    let seeded = [
        ("`.push(…)`", "hot_loop → helper"),
        ("`.reserve_exact(…)`", "hot_loop → grow"),
        ("`.resize(…)`", "hot_loop → grow"),
        ("`.resize_with(…)`", "hot_loop → grow"),
        ("`.extend_from_slice(…)`", "hot_loop → grow"),
    ];
    for (construct, chain) in seeded {
        assert!(
            errs.iter()
                .any(|(_, _, msg)| msg.contains(construct) && msg.contains(chain)),
            "names {construct} with the call chain {chain}:\n{}",
            out.human
        );
    }
    // The pragma'd cold constructor is silenced, and the pragma is used
    // (no hygiene warning about it).
    assert!(!out.human.contains("unused `lint: allow"), "{}", out.human);
}

#[test]
fn panic_fixture_flags_unwrap_but_not_the_pragma() {
    let out = run_fixture("panics");
    assert_eq!(out.exit_code, 1, "{}", out.human);
    let errs = errors_of(&out, Analysis::Panic);
    assert_eq!(errs.len(), 1, "only the bare unwrap:\n{}", out.human);
    assert!(errs[0].2.contains("`.unwrap()`"), "{}", errs[0].2);
    // The test-module unwrap and the pragma'd expect stay silent.
    assert!(!out.human.contains("expect"), "{}", out.human);
}

#[test]
fn unsafety_fixture_flags_block_and_missing_forbid() {
    let out = run_fixture("unsafety");
    assert_eq!(out.exit_code, 1, "{}", out.human);
    let errs = errors_of(&out, Analysis::Unsafe);
    assert_eq!(
        errs.len(),
        2,
        "undocumented block + missing forbid:\n{}",
        out.human
    );
    assert!(
        errs.iter().any(|(_, _, m)| m.contains("SAFETY")),
        "{}",
        out.human
    );
    assert!(
        errs.iter()
            .any(|(_, _, m)| m.contains("forbid(unsafe_code)")),
        "{}",
        out.human
    );
    // The SAFETY-documented block two functions down is not flagged.
    assert!(
        errs.iter()
            .filter(|(_, _, m)| m.contains("`unsafe` block"))
            .count()
            == 1,
        "{}",
        out.human
    );
}

#[test]
fn atomics_fixture_flags_both_zones() {
    let out = run_fixture("atomics");
    assert_eq!(out.exit_code, 1, "{}", out.human);
    let errs = errors_of(&out, Analysis::Atomic);
    assert_eq!(errs.len(), 2, "one per zone:\n{}", out.human);
    assert!(
        errs.iter()
            .any(|(f, _, m)| f == "src/relaxed/counters.rs" && m.contains("all-Relaxed")),
        "{}",
        out.human
    );
    assert!(
        errs.iter()
            .any(|(f, _, m)| f == "src/other.rs" && m.contains("justification")),
        "{}",
        out.human
    );
}

#[test]
fn workspace_self_check_is_clean_with_empty_baseline() {
    // `crates/lint` → the workspace root two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let out = execute(&Options::for_root(root)).expect("workspace lints");
    assert_eq!(
        out.exit_code, 0,
        "the committed tree must lint clean:\n{}",
        out.human
    );
    assert!(
        out.human.contains(" file(s), 0 error(s)"),
        "every suppression must be an inline reasoned pragma, never a failing finding:\n{}",
        out.human
    );
    assert!(
        out.human.contains("0 error(s), 0 warning(s)"),
        "no warnings either (unused pragmas are stale documentation):\n{}",
        out.human
    );
}
