//! Self-test: the analyzer must flag every seeded violation in the
//! fixture corpus — exact rule at the exact line — and stay silent on
//! the clean fixture. If a rule regresses into silence (or into
//! noise), this suite fails before the weakened analyzer ever gates a
//! commit.

use asgov_analyze::rules::{check_file, Finding};
use std::path::Path;

fn scan(fixture: &str, pretend_path: &str, crate_name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    check_file(pretend_path, crate_name, &source)
}

fn rule_lines(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn hot_path_fixture_violations_all_flagged() {
    let findings = scan("hot_path.rs", "crates/core/src/hot_path.rs", "asgov-core");
    assert_eq!(
        rule_lines(&findings),
        [
            ("hot-path-panic", 5),
            ("hot-path-panic", 9),
            ("hot-path-panic", 13),
            ("hot-path-panic", 17),
            ("hot-path-index", 21),
            ("hot-path-index", 25),
            ("hot-path-index", 25),
        ],
        "{findings:#?}"
    );
}

#[test]
fn hot_path_fixture_is_quiet_outside_hot_path_crates() {
    let findings = scan("hot_path.rs", "crates/cli/src/hot_path.rs", "asgov-cli");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nondeterminism_fixture_violations_all_flagged() {
    let findings = scan("nondet.rs", "crates/soc/src/nondet.rs", "asgov-soc");
    let lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "nondeterminism")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [4, 5, 7, 8, 12], "{findings:#?}");
}

#[test]
fn nondeterminism_fixture_exempt_in_harness_crates() {
    let findings = scan("nondet.rs", "crates/bench/src/nondet.rs", "asgov-bench");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_eq_fixture_violations_all_flagged() {
    let findings = scan(
        "float_eq.rs",
        "crates/linprog/src/float_eq.rs",
        "asgov-linprog",
    );
    assert_eq!(
        rule_lines(&findings),
        [
            ("float-eq", 5),
            ("float-eq", 9),
            ("float-eq", 25),
            ("float-eq", 29)
        ],
        "{findings:#?}"
    );
}

#[test]
fn obs_gating_fixture_flags_only_the_ungated_call() {
    let findings = scan("obs_gate.rs", "crates/core/src/obs_gate.rs", "asgov-core");
    assert_eq!(rule_lines(&findings), [("obs-gating", 5)], "{findings:#?}");
}

#[test]
fn taxonomy_fixture_flags_only_the_fabrication() {
    let findings = scan("taxonomy.rs", "crates/cli/src/taxonomy.rs", "asgov-cli");
    assert_eq!(
        rule_lines(&findings),
        [("error-taxonomy", 5)],
        "{findings:#?}"
    );
}

#[test]
fn allow_meta_rules_fire_on_the_allows_fixture() {
    let findings = scan("allows.rs", "crates/core/src/allows.rs", "asgov-core");
    assert_eq!(
        rule_lines(&findings),
        [
            ("allow-missing-reason", 10),
            ("unused-allow", 14),
            ("allow-unknown-rule", 17),
        ],
        "{findings:#?}"
    );
}

#[test]
fn codec_drift_fixture_flags_only_the_drifted_pair() {
    // Teeth: a reordered/narrowed reader must be caught at the writer's
    // definition line; the symmetric `Clean` pair in the same file must
    // stay quiet (precision).
    let findings = scan(
        "codec_drift.rs",
        "crates/core/src/codec_drift.rs",
        "asgov-core",
    );
    assert_eq!(
        rule_lines(&findings),
        [("codec-symmetry", 11)],
        "{findings:#?}"
    );
}

#[test]
fn codec_varint_fixture_flags_the_fixed_width_reader() {
    // Teeth: a `put_uvar` writer read back with `take_u64` is caught at
    // the writer's definition line, as a mismatch of two primitives
    // (not of an unknown `helper:uvar`); the all-varint pair is quiet.
    let findings = scan(
        "codec_varint.rs",
        "crates/fleet/src/codec_varint.rs",
        "asgov-fleet",
    );
    assert_eq!(
        rule_lines(&findings),
        [("codec-symmetry", 13)],
        "{findings:#?}"
    );
    let message = &findings.first().expect("one finding").message;
    assert!(
        message.contains("writer has uvar but reader has u64"),
        "{message}"
    );
}

#[test]
fn codec_order_fixture_flags_components_decoded_out_of_order() {
    // Teeth: two components written scheduler-then-ladder and read
    // ladder-then-scheduler are caught at the writer's definition line,
    // although every call is an `encode_state`/`decode_state`; the
    // components' own symmetric pair stays quiet.
    let findings = scan(
        "codec_order.rs",
        "crates/core/src/codec_order.rs",
        "asgov-core",
    );
    assert_eq!(
        rule_lines(&findings),
        [("codec-symmetry", 14)],
        "{findings:#?}"
    );
    let message = &findings.first().expect("one finding").message;
    assert!(
        message.contains("writer has helper:scheduler.state but reader has helper:ladder.state"),
        "{message}"
    );
}

#[test]
fn unit_mix_fixture_flags_each_cross_unit_op() {
    // Teeth: cross-unit `+`, cross-unit `<`, and a cross-suffix
    // binding each produce exactly one finding; the same-unit function
    // and the `ms_to_ticks` laundering path stay quiet.
    let findings = scan("unit_mix.rs", "crates/core/src/unit_mix.rs", "asgov-core");
    let lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "unit-mismatch")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [6, 7, 8], "{findings:#?}");
    assert_eq!(findings.len(), 3, "only unit findings: {findings:#?}");
}

#[test]
fn transitive_fixture_pair_connects_hot_caller_to_cold_panic() {
    // Teeth for the cross-file pass: nothing in the hot fixture panics
    // directly — the finding exists only because the graph connects
    // `hot_total -> relay -> pick` into the non-hot file. Per-file
    // scanning of either fixture alone must stay silent.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
    };
    let files = vec![
        (
            "crates/core/src/transitive_hot.rs".to_string(),
            "asgov-core".to_string(),
            read("transitive_hot.rs"),
        ),
        (
            "crates/linprog/src/transitive_cold.rs".to_string(),
            "asgov-linprog".to_string(),
            read("transitive_cold.rs"),
        ),
    ];
    let analysis = asgov_analyze::rules::check_workspace(&files);
    let keys: Vec<(&str, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        keys,
        [
            (
                "hot-path-transitive",
                "crates/core/src/transitive_hot.rs",
                6
            ),
            (
                "hot-path-transitive",
                "crates/core/src/transitive_hot.rs",
                10
            ),
        ],
        "{:#?}",
        analysis.findings
    );
    // Per-file mode cannot see the connection: both files scan clean.
    assert!(scan(
        "transitive_hot.rs",
        "crates/core/src/transitive_hot.rs",
        "asgov-core"
    )
    .is_empty());
    assert!(scan(
        "transitive_cold.rs",
        "crates/linprog/src/transitive_cold.rs",
        "asgov-linprog"
    )
    .is_empty());
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let findings = scan("clean.rs", "crates/core/src/clean.rs", "asgov-core");
    assert!(findings.is_empty(), "false positives:\n{findings:#?}");
}

/// End-to-end: the shipped binary over the real workspace must exit 0
/// (the repo holds the invariants it preaches) and write a parseable
/// report.
#[test]
fn workspace_is_clean_end_to_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report_path = std::env::temp_dir().join("asgov_analyze_selftest_report.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_asgov-analyze"))
        .args([
            "--workspace",
            "--quick",
            "--root",
            root.to_str().expect("utf-8 root"),
            "--report",
            report_path.to_str().expect("utf-8 report path"),
        ])
        .output()
        .expect("run asgov-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "analyzer found violations:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&report_path).expect("report written");
    let j = asgov_util::Json::parse(&report).expect("report parses");
    assert_eq!(
        j.get("schema").and_then(asgov_util::Json::as_str),
        Some("asgov-analyze/v2")
    );
    assert_eq!(
        j.get("clean").and_then(asgov_util::Json::as_bool),
        Some(true)
    );
    // v2 additions: a per-rule count section covering every rule id,
    // and a codec-pair inventory in which every Restartable impl is
    // verified.
    let rules = j.get("rules").expect("v2 report has a rules section");
    for rule in asgov_analyze::rules::RULE_IDS {
        assert_eq!(
            rules.get(rule).and_then(asgov_util::Json::as_f64),
            Some(0.0),
            "clean tree must report zero {rule} findings"
        );
    }
    let pairs = j.get("codec_pairs").expect("v2 report has codec_pairs");
    let mut i = 0;
    let mut restartable_seen = 0;
    while let Some(p) = pairs.at(i) {
        assert_eq!(
            p.get("verified").and_then(asgov_util::Json::as_bool),
            Some(true),
            "unverified codec pair in a clean tree: {p:?}"
        );
        if p.get("restartable").and_then(asgov_util::Json::as_bool) == Some(true) {
            restartable_seen += 1;
        }
        i += 1;
    }
    assert!(i >= 2, "codec-pair inventory looks truncated: {i} pairs");
    let restartable_impls = restartable_impls_in_non_test_source(root);
    assert!(restartable_impls >= 1, "no Restartable impl found");
    assert_eq!(
        restartable_seen, restartable_impls,
        "every Restartable impl must appear in the inventory exactly once"
    );
    std::fs::remove_file(&report_path).ok();
}

/// `impl Restartable for` items in the workspace's non-test source:
/// files outside `tests/`, `examples/` and `benches/` trees, up to each
/// file's first `#[cfg(test)]`.
fn restartable_impls_in_non_test_source(root: &Path) -> usize {
    let files = asgov_analyze::workspace::discover(root).expect("discover");
    let mut count = 0;
    for file in files {
        if ["/tests/", "/examples/", "/benches/"]
            .iter()
            .any(|d| format!("/{}", file.rel).contains(d))
        {
            continue;
        }
        let source = std::fs::read_to_string(&file.path).expect("read source");
        let tokens = asgov_analyze::lexer::lex(&source);
        let code: Vec<&str> = tokens
            .iter()
            .filter(|t| !t.is_comment())
            .map(|t| t.text.as_str())
            .collect();
        let end = code
            .windows(6)
            .position(|w| w == ["#", "[", "cfg", "(", "test", ")"])
            .unwrap_or(code.len());
        count += code[..end]
            .windows(3)
            .filter(|w| *w == ["impl", "Restartable", "for"])
            .count();
    }
    count
}

#[test]
fn persist_codec_is_covered_and_clean() {
    // Coverage regression guard for the snapshot codec:
    // `crates/core/src/persist.rs` must be discovered as part of the
    // `asgov-core` hot-path crate (hot-path-panic / hot-path-index /
    // nondeterminism all apply — a decode path that panics turns a
    // corrupt checkpoint into a supervisor crash), and the real source
    // must scan clean. Note the file is exempt from `error-taxonomy`
    // only: it is where `SnapshotError` variants are born.
    let root = asgov_analyze::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = asgov_analyze::workspace::discover(&root).expect("discover");
    let persist = files
        .iter()
        .find(|f| f.rel == "crates/core/src/persist.rs")
        .expect("persist.rs not discovered by workspace scan");
    assert_eq!(persist.crate_name, "asgov-core");

    let source = std::fs::read_to_string(&persist.path).expect("read persist.rs");
    let findings = check_file(&persist.rel, &persist.crate_name, &source);
    assert!(
        findings.is_empty(),
        "snapshot codec must stay lint-clean: {findings:#?}"
    );
}

#[test]
fn event_engine_hot_path_is_covered_and_clean() {
    // Coverage regression guard for the event-driven simulator core:
    // `crates/soc/src/event.rs` must be discovered as part of the
    // `asgov-soc` hot-path crate (so hot-path-panic / hot-path-index /
    // nondeterminism all apply to it), and the real source must scan
    // clean — the residue loops run millions of times per simulated
    // run and may not panic, index, or draw ambient entropy.
    let root = asgov_analyze::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = asgov_analyze::workspace::discover(&root).expect("discover");
    let event = files
        .iter()
        .find(|f| f.rel == "crates/soc/src/event.rs")
        .expect("event.rs not discovered by workspace scan");
    assert_eq!(event.crate_name, "asgov-soc");

    let source = std::fs::read_to_string(&event.path).expect("read event.rs");
    let findings = check_file(&event.rel, &event.crate_name, &source);
    assert!(
        findings.is_empty(),
        "event engine hot path must stay lint-clean: {findings:#?}"
    );
}

#[test]
fn fleet_shard_loop_is_covered_and_clean() {
    // Coverage regression guard for the fleet: `crates/fleet` must be
    // discovered as the `asgov-fleet` hot-path crate (hot-path-panic /
    // hot-path-index / nondeterminism all apply — the shard loop runs
    // a device-epoch 10⁵ times per run and must neither panic nor
    // draw ambient entropy), and the real sources must scan clean.
    let root = asgov_analyze::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = asgov_analyze::workspace::discover(&root).expect("discover");
    let fleet: Vec<_> = files
        .iter()
        .filter(|f| f.rel.starts_with("crates/fleet/src/"))
        .collect();
    assert!(
        fleet.iter().any(|f| f.rel == "crates/fleet/src/shard.rs"),
        "shard.rs not discovered by workspace scan"
    );
    for file in fleet {
        assert_eq!(file.crate_name, "asgov-fleet");
        let source = std::fs::read_to_string(&file.path).expect("read fleet source");
        let findings = check_file(&file.rel, &file.crate_name, &source);
        assert!(
            findings.is_empty(),
            "{} must stay lint-clean: {findings:#?}",
            file.rel
        );
    }
}
