//! `BENCHMARK.json` is well-formed and agrees with the code, and every
//! workload, at the tiny size, emits exactly the declared metrics with
//! its checks passing.

use asgov_benchmark::{run, RunOptions, Size, Workload, END_TO_END, PER_LAYER};
use asgov_util::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        _ => panic!("not an object: {j:?}"),
    }
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {j:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_well_formed() {
    let j = benchmark_json();
    assert_eq!(
        keys(&j),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = entries(&j, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = entries(&j, "paths");
    assert_eq!(paths, [Json::from("benchmark")]);
    let seconds = j
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = std::collections::BTreeSet::new();
    let workloads = entries(&j, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(valid_name(str_of(w, "name")) && names.insert(str_of(w, "name")));
    }
    for (section, range, bounded) in [("end_to_end", 1..=16, true), ("per_layer", 1..=128, false)] {
        let metrics = entries(&j, section);
        assert!(range.contains(&metrics.len()), "{section} count");
        for m in metrics {
            let expected: &[&str] = if bounded {
                &["better", "bound", "name", "unit"]
            } else {
                &["better", "name", "unit"]
            };
            assert_eq!(keys(m), expected, "{m:?}");
            let name = str_of(m, "name");
            assert!(
                valid_name(name) && names.insert(name),
                "{name}: bad or repeated"
            );
            assert!(valid_unit(str_of(m, "unit")), "{name}: bad unit");
            assert!(matches!(str_of(m, "better"), "lower" | "higher"));
            if bounded {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let j = benchmark_json();
    let declared = |section: &str| -> Vec<(String, String)> {
        entries(&j, section)
            .iter()
            .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
            .collect()
    };
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), code(&END_TO_END));
    assert_eq!(declared("per_layer"), code(&PER_LAYER));
    let workloads: Vec<&str> = entries(&j, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    // set-up time has the largest bound, so work moved into set-up shows.
    let setup = entries(&j, "end_to_end")
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
    assert!(entries(&j, "end_to_end")
        .iter()
        .all(|m| bound(m) <= bound(setup)));
}

fn tiny(workload: Workload, trace: bool) {
    let opts = RunOptions {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    let result = run(&opts);
    let failed: Vec<_> = result.checks.iter().filter(|c| !c.ok).collect();
    assert!(
        failed.is_empty(),
        "{}: failed checks {failed:?}",
        workload.name()
    );
    assert!(result.correct() && result.attempted > 0 && result.failed == 0);

    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let emitted: Vec<(&str, &str)> = result
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(emitted, declared, "{}", workload.name());
    for m in result.metrics.iter().chain(&result.extras) {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    let line = result.to_json();
    assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
    if trace {
        let coverage = result
            .metrics
            .iter()
            .find(|m| m.name == "trace.coverage_pct")
            .map(|m| m.value);
        assert!(
            coverage >= Some(90.0),
            "{}: coverage {coverage:?}",
            workload.name()
        );
    }
}

#[test]
fn tiny_fleet_exact() {
    tiny(Workload::FleetExact, false);
    tiny(Workload::FleetExact, true);
}

#[test]
fn tiny_fleet_coarse() {
    tiny(Workload::FleetCoarse, false);
    tiny(Workload::FleetCoarse, true);
}

#[test]
fn tiny_fleet_churn() {
    tiny(Workload::FleetChurn, false);
    tiny(Workload::FleetChurn, true);
}

#[test]
fn tiny_paper() {
    tiny(Workload::Paper, false);
    tiny(Workload::Paper, true);
}
