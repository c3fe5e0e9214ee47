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
        Some("asgov-analyze/v3")
    );
    assert_eq!(
        j.get("clean").and_then(asgov_util::Json::as_bool),
        Some(true)
    );
    // A per-rule count section covering every rule id.
    let rules = j.get("rules").expect("report has a rules section");
    for rule in asgov_analyze::rules::RULE_IDS {
        assert_eq!(
            rules.get(rule).and_then(asgov_util::Json::as_f64),
            Some(0.0),
            "clean tree must report zero {rule} findings"
        );
    }
    std::fs::remove_file(&report_path).ok();
}

/// A usage error is exit 2, distinct from the findings' exit 1, and
/// comes before any scan.
#[test]
fn an_unknown_or_repeated_flag_is_a_usage_error() {
    for (args, named) in [
        (&["--workspace", "--frobnicate"][..], "\"--frobnicate\""),
        (
            &["--workspace", "--quick", "--quick"],
            "--quick is given more than once",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_asgov-analyze"))
            .args(args)
            .output()
            .expect("run asgov-analyze");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(err.contains(named), "{args:?}: {err}");
    }
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

/// `--baseline` fails on inventory drift that no finding shows: the
/// fixture tree adds a file after `inventory_baseline.json` was taken.
/// A baseline regenerated from the tree passes.
#[test]
fn baseline_catches_inventory_drift() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let root = std::env::temp_dir().join("asgov_analyze_inventory_fixture");
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("fixture tree");
    std::fs::write(root.join("Cargo.toml"), "").expect("fixture manifest");
    std::fs::copy(fixtures.join("inventory.rs"), src.join("lib.rs")).expect("fixture source");
    std::fs::write(
        src.join("extra.rs"),
        "//! A file added after the baseline.\n",
    )
    .expect("extra file");
    let report = root.join("report.json");
    let run = |baseline: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_asgov-analyze"))
            .args(["--workspace", "--skip-interleavings", "--root"])
            .arg(&root)
            .arg("--report")
            .arg(&report)
            .arg("--baseline")
            .arg(baseline)
            .output()
            .expect("run asgov-analyze")
    };

    let out = run(&fixtures.join("inventory_baseline.json"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "inventory drift passed:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
    for line in [
        "+ inventory: files_scanned 2",
        "- inventory: files_scanned 1",
    ] {
        assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
    }

    let regenerated = root.join("baseline.json");
    std::fs::copy(&report, &regenerated).expect("regenerate the baseline");
    let out = run(&regenerated);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "regenerated baseline failed:\n{stdout}"
    );
    assert!(stdout.contains("no inventory drift"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}
