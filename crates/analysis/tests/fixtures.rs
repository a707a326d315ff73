//! Fixture-based integration tests: each analyzer pass gets a good tree
//! (no findings) and a bad tree (exact finding codes), built in memory via
//! [`SourceTree::from_parts`]. A final self-check loads the real workspace
//! with the checked-in baseline and asserts the ratchet is clean both ways
//! — no new findings, no stale entries.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use dssddi_analyze::baseline::{apply_baseline, Baseline};
use dssddi_analyze::findings::FindingCode;
use dssddi_analyze::workspace::SourceTree;
use dssddi_analyze::{analyze, kernels, locks, panics, wire_check};

fn codes(findings: &[dssddi_analyze::findings::Finding]) -> Vec<FindingCode> {
    findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------------------
// Pass 1: lock order
// ---------------------------------------------------------------------------

const LOCK_GOOD: &str = r#"
// LOCK ORDER:
//   1. S.a  outer
//   2. S.b  inner

use std::sync::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    pub fn nested(&self) {
        let ga = self.a.lock();
        let _gb = self.b.lock();
        drop(ga);
    }
}
"#;

const LOCK_BAD_CYCLE: &str = r#"
// LOCK ORDER:
//   1. S.a  outer
//   2. S.b  inner

use std::sync::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    pub fn forward(&self) {
        let ga = self.a.lock();
        let _gb = self.b.lock();
        drop(ga);
    }
    pub fn backward(&self) {
        let gb = self.b.lock();
        let _ga = self.a.lock();
        drop(gb);
    }
}
"#;

#[test]
fn lock_fixture_good_tree_is_clean() {
    let tree = SourceTree::from_parts(&[("crates/serving/src/fix.rs", LOCK_GOOD)]);
    let findings = locks::check_with_prefixes(&tree, &["crates/serving/src/"]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn lock_fixture_cycle_is_flagged() {
    let tree = SourceTree::from_parts(&[("crates/serving/src/fix.rs", LOCK_BAD_CYCLE)]);
    let findings = locks::check_with_prefixes(&tree, &["crates/serving/src/"]);
    let got = codes(&findings);
    // The reversed acquisition is both a cycle and an order violation.
    assert!(got.contains(&FindingCode::Lock001), "no LOCK001 in {got:?}");
    assert!(got.contains(&FindingCode::Lock005), "no LOCK005 in {got:?}");
}

// ---------------------------------------------------------------------------
// Pass 2: wire registry
// ---------------------------------------------------------------------------

fn wire_source(predict_tag: &str) -> String {
    format!(
        r#"
pub const MAGIC: &[u8; 4] = b"DSWR";
pub const TAG_PREDICT: u8 = {predict_tag};
pub const TAG_RELOAD: u8 = 2;

pub fn encode_request_ref(out: &mut Vec<u8>, req: &Request) {{
    match req {{
        Request::Predict => out.put_u8(TAG_PREDICT),
        Request::Reload => out.put_u8(TAG_RELOAD),
    }}
}}

pub fn decode_request(tag: u8) -> Option<Request> {{
    match tag {{
        TAG_PREDICT => Some(Request::Predict),
        TAG_RELOAD => Some(Request::Reload),
        _ => None,
    }}
}}

pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {{
    match resp {{
        Response::Predicted => out.put_u8(TAG_PREDICT),
    }}
}}

pub fn decode_response(tag: u8) -> Option<Response> {{
    match tag {{
        TAG_PREDICT => Some(Response::Predicted),
        _ => None,
    }}
}}
"#
    )
}

#[test]
fn wire_fixture_good_tree_is_clean() {
    let tree = SourceTree::from_parts(&[("crates/serving/src/wire.rs", &wire_source("1"))]);
    let findings = wire_check::check(&tree, &Default::default());
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn wire_fixture_duplicate_tag_is_flagged() {
    // TAG_PREDICT collides with TAG_RELOAD inside the request space.
    let tree = SourceTree::from_parts(&[("crates/serving/src/wire.rs", &wire_source("2"))]);
    let findings = wire_check::check(&tree, &Default::default());
    assert_eq!(codes(&findings), vec![FindingCode::Wire001], "{findings:?}");
}

#[test]
fn wire_fixture_renamed_or_tagless_codec_is_flagged() {
    // Renamed request codecs: the request tag space would otherwise be
    // checked against nothing and pass vacuously.
    let renamed = wire_source("1")
        .replace("fn encode_request_ref(", "fn write_request(")
        .replace("fn decode_request(", "fn parse_request(");
    let tree = SourceTree::from_parts(&[("crates/serving/src/wire.rs", &renamed)]);
    let findings = wire_check::check(&tree, &Default::default());
    let got = codes(&findings);
    assert!(!got.is_empty(), "renamed codecs went unnoticed");
    assert!(
        got.iter().all(|c| *c == FindingCode::Wire003),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`decode_request` not found")),
        "{findings:?}"
    );

    // An encoder that writes its tags through a helper instead of literal
    // `put_u8(TAG_X)` calls references no tag at all.
    let tagless = wire_source("1").replace(".put_u8(TAG_", ".put_tag(TAG_");
    let tree = SourceTree::from_parts(&[("crates/serving/src/wire.rs", &tagless)]);
    let findings = wire_check::check(&tree, &Default::default());
    for name in ["encode_request_ref", "encode_response"] {
        assert!(
            findings.iter().any(|f| f.code == FindingCode::Wire003
                && f.message
                    .contains(&format!("`{name}` references no `TAG_*` constant"))),
            "{name}: {findings:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Pass 3: panic policy (through the baseline ratchet)
// ---------------------------------------------------------------------------

const PANIC_BAD: &str = r#"
pub fn parse(s: &str) -> u32 {
    s.parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let _: u32 = "7".parse().unwrap();
    }
}
"#;

#[test]
fn panic_fixture_unbaselined_unwrap_is_new() {
    let tree = SourceTree::from_parts(&[("crates/core/src/fix.rs", PANIC_BAD)]);
    let findings = panics::check(&tree);
    // Only the non-test unwrap fires; the #[cfg(test)] one is skipped.
    assert_eq!(
        codes(&findings),
        vec![FindingCode::Panic001],
        "{findings:?}"
    );

    // Through the ratchet with an empty baseline, it surfaces as NEW.
    let all = analyze(&tree, &Baseline::default());
    let ratchet = apply_baseline(&all, &Baseline::default());
    assert_eq!(ratchet.new.len(), 1);
    assert!(ratchet.baselined.is_empty());

    // With a matching baseline entry it is tolerated.
    let base = Baseline::from_findings(&all, Default::default());
    let rebaselined = apply_baseline(&all, &base);
    assert!(rebaselined.new.is_empty());
    assert_eq!(rebaselined.baselined.len(), 1);
    assert!(rebaselined.stale.is_empty());
}

// ---------------------------------------------------------------------------
// Pass 4: kernel convention
// ---------------------------------------------------------------------------

const KERNEL_BAD: &str = r#"
/// Adds `a` and `b` elementwise.
pub fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _ = (a, b, out);
}
"#;

#[test]
fn kernel_fixture_output_last_is_flagged() {
    let tree = SourceTree::from_parts(&[("crates/tensor/src/fix.rs", KERNEL_BAD)]);
    let findings = kernels::check(&tree);
    let got = codes(&findings);
    // Output buffer is last (KERNEL001) and the doc lacks the
    // `fully overwrites` marker (KERNEL002).
    assert_eq!(got, vec![FindingCode::Kernel001, FindingCode::Kernel002]);
}

// ---------------------------------------------------------------------------
// Self-check: the real workspace against the checked-in baseline
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_is_clean_against_checked_in_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let base = Baseline::load(&root.join("analysis/baseline.toml")).expect("baseline parses");
    let analysis = dssddi_analyze::analyze_root(&root, &base).expect("workspace loads");
    assert!(
        analysis.ratchet.new.is_empty(),
        "un-baselined findings — fix them or run `dssddi-analyze --update-baseline`:\n{}",
        analysis
            .ratchet
            .new
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.ratchet.stale.is_empty(),
        "stale baseline entries — run `dssddi-analyze --update-baseline`:\n{}",
        analysis
            .ratchet
            .stale
            .iter()
            .map(|(f, c, want, got)| format!("{f} {c}: baseline allows {want}, saw {got}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
