//! One test per rule over the fixture corpus: each rule fires on its
//! known-bad snippet, stays quiet on known-good code, honors an
//! `allow(...)` with a reason, and rejects a reason-less allow.

use rmo_lint::lint_source;

const DET_PATH: &str = "crates/core/src/fixture.rs";
const COST_PATH: &str = "crates/congest/src/metrics.rs";
const LIB_PATH: &str = "crates/apps/src/fixture.rs";
const TEST_PATH: &str = "crates/apps/tests/fixture.rs";
const HARNESS_PATH: &str = "crates/harness/src/fixture.rs";
const SERVICE_PATH: &str = "crates/apps/src/service.rs";

fn rules_of(findings: &[rmo_lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d1_fires_on_hash_iteration_in_deterministic_modules() {
    let findings = lint_source(DET_PATH, include_str!("../fixtures/bad_d1.rs"));
    let d1: Vec<_> = findings.iter().filter(|f| f.rule == "D1").collect();
    // let-ascription iter, constructor-binding iter, `for … in` over a
    // reference, retain, drain (for-loop), struct-field values().
    assert!(
        d1.len() >= 6,
        "expected all order-escaping patterns to fire, got {d1:#?}"
    );
    let messages: String = d1.iter().map(|f| f.message.as_str()).collect();
    for pattern in ["iter", "retain", "drain", "values", "for … in"] {
        assert!(
            messages.contains(pattern),
            "no D1 finding mentions {pattern}"
        );
    }
}

#[test]
fn d1_stays_quiet_on_ordered_and_lookup_only_code() {
    let findings = lint_source(DET_PATH, include_str!("../fixtures/good_d1.rs"));
    assert!(
        findings.is_empty(),
        "BTree iteration and hash lookups are legal, got {findings:#?}"
    );
}

#[test]
fn d1_does_not_apply_outside_deterministic_modules() {
    let findings = lint_source(
        "crates/graph/src/fixture.rs",
        include_str!("../fixtures/bad_d1.rs"),
    );
    assert!(
        !rules_of(&findings).contains(&"D1"),
        "graph is not a deterministic module, got {findings:#?}"
    );
}

#[test]
fn d2_fires_anywhere_even_in_tests() {
    for path in [LIB_PATH, TEST_PATH, HARNESS_PATH] {
        let findings = lint_source(path, include_str!("../fixtures/bad_d2.rs"));
        let d2 = findings.iter().filter(|f| f.rule == "D2").count();
        assert!(d2 >= 2, "RandomState + DefaultHasher must fire at {path}");
    }
}

#[test]
fn d3_fires_on_wall_clock_and_thread_identity() {
    let findings = lint_source(LIB_PATH, include_str!("../fixtures/bad_d3.rs"));
    let d3: Vec<_> = findings.iter().filter(|f| f.rule == "D3").collect();
    let messages: String = d3.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.contains("Instant::now"), "got {d3:#?}");
    assert!(messages.contains("SystemTime"), "got {d3:#?}");
    assert!(messages.contains("thread::current"), "got {d3:#?}");
}

#[test]
fn d3_exempts_harness_bench_and_test_code() {
    for path in [HARNESS_PATH, "crates/core/benches/fixture.rs", TEST_PATH] {
        let findings = lint_source(path, include_str!("../fixtures/bad_d3.rs"));
        assert!(
            !rules_of(&findings).contains(&"D3"),
            "{path} is timing/test code, got {findings:#?}"
        );
    }
}

#[test]
fn c1_fires_on_narrowing_casts_in_cost_code_only() {
    let findings = lint_source(COST_PATH, include_str!("../fixtures/bad_c1.rs"));
    let c1 = findings.iter().filter(|f| f.rule == "C1").count();
    assert_eq!(
        c1, 2,
        "u64→u32 and u64→usize narrow; usize→u64 widens: {findings:#?}"
    );
    let elsewhere = lint_source(LIB_PATH, include_str!("../fixtures/bad_c1.rs"));
    assert!(
        !rules_of(&elsewhere).contains(&"C1"),
        "C1 is scoped to cost-accounting files, got {elsewhere:#?}"
    );
}

#[test]
fn p1_counts_library_sites_but_not_test_code() {
    let findings = lint_source(LIB_PATH, include_str!("../fixtures/bad_p1.rs"));
    let p1 = findings.iter().filter(|f| f.rule == "P1").count();
    assert_eq!(
        p1, 2,
        "one unwrap + one expect outside tests: {findings:#?}"
    );
    let in_tests = lint_source(TEST_PATH, include_str!("../fixtures/bad_p1.rs"));
    assert!(
        !rules_of(&in_tests).contains(&"P1"),
        "test files never count, got {in_tests:#?}"
    );
}

#[test]
fn l2_fires_on_locking_and_blocking_under_a_live_guard() {
    let findings = lint_source(SERVICE_PATH, include_str!("../fixtures/bad_l2.rs"));
    let l2: Vec<_> = findings.iter().filter(|f| f.rule == "L2").collect();
    assert_eq!(
        l2.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![16, 22, 27, 35],
        "second lock, send, recv, and solve under a guard: {l2:#?}"
    );
    let messages: String = l2.iter().map(|f| f.message.as_str()).collect();
    for pattern in [
        "`lock()` taken while guard",
        "`send()`",
        "`recv()`",
        "`solve()`",
    ] {
        assert!(
            messages.contains(pattern),
            "no L2 finding mentions {pattern}"
        );
    }
}

#[test]
fn l2_stays_quiet_on_disciplined_locking() {
    let findings = lint_source(SERVICE_PATH, include_str!("../fixtures/good_l2.rs"));
    assert!(
        !rules_of(&findings).contains(&"L2"),
        "temporary guards, drop-then-send, and scoped guards are legal: {findings:#?}"
    );
}

#[test]
fn l2_is_scoped_to_service_modules() {
    let findings = lint_source(LIB_PATH, include_str!("../fixtures/bad_l2.rs"));
    assert!(
        !rules_of(&findings).contains(&"L2"),
        "L2 only applies to service.rs-class files, got {findings:#?}"
    );
}

#[test]
fn l2_allow_with_reason_suppresses_the_blocking_call() {
    let src = "fn f(state: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {\n    let st = state.lock().unwrap();\n    // rmo-lint: allow(L2) — unbounded channel, send cannot block here.\n    tx.send(*st).ok();\n}\n";
    let findings = lint_source(SERVICE_PATH, src);
    assert!(
        !rules_of(&findings).contains(&"L2"),
        "the reasoned directive must suppress, got {findings:#?}"
    );
}

#[test]
fn raw_identifiers_do_not_swallow_the_rest_of_the_file() {
    // A tokenizer that reads `r#type` as a raw-string opener would eat
    // everything up to the next `#` — including the D2 violation below
    // the raw identifiers. Pin the fix at the rules level too.
    let findings = lint_source(LIB_PATH, include_str!("../fixtures/raw_idents.rs"));
    let d2: Vec<_> = findings.iter().filter(|f| f.rule == "D2").collect();
    assert_eq!(
        d2.len(),
        1,
        "RandomState after r#type must fire: {findings:#?}"
    );
    assert_eq!(d2[0].line, 7);
}

#[test]
fn allow_with_reason_suppresses_line_and_line_above() {
    let findings = lint_source(LIB_PATH, include_str!("../fixtures/allow_with_reason.rs"));
    assert!(
        findings.is_empty(),
        "both directives carry reasons, got {findings:#?}"
    );
}

#[test]
fn allow_without_reason_is_an_error() {
    let findings = lint_source(
        LIB_PATH,
        include_str!("../fixtures/allow_without_reason.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["E1"], "got {findings:#?}");
    assert!(findings[0].message.contains("without a reason"));
}

#[test]
fn allow_for_the_wrong_rule_does_not_suppress() {
    let src = "fn f() {\n    // rmo-lint: allow(D1) — wrong rule id entirely.\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n";
    let findings = lint_source(LIB_PATH, src);
    assert_eq!(rules_of(&findings), vec!["D3"], "got {findings:#?}");
}
