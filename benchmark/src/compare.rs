//! `workloads compare DIR_A DIR_B`: compare two sets of runs.
//!
//! Each directory holds the result files of `workloads --out DIR`. For
//! every workload and metric, the report gives each side's median and
//! quartiles, its spread (interquartile range over median), the share
//! of seed-matched pairs B wins, and — for end-to-end metrics — a
//! verdict against the metric's bound in `BENCHMARK.json`:
//!
//! - `improved`: B wins at least 9/10 of the pairs (ties count for
//!   neither) and the medians differ by more than A's interquartile
//!   range;
//! - `unresolved`: A's spread is wider than the bound and not every B
//!   run beats every A run;
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `no worse`: otherwise.
//!
//! `identical` marks metrics whose seed-matched values agree bit for
//! bit.

use crate::stats::{median, quartiles, spread};
use asgov_util::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run's result file.
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Declared metrics and extras, by name.
    pub values: BTreeMap<String, f64>,
}

/// How a metric is judged: direction, and the end-to-end bound.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse (end-to-end only).
    pub bound: Option<f64>,
}

/// Parse one result file.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn parse_run(text: &str) -> Result<RunFile, String> {
    let j = Json::parse(text).map_err(|e| e.to_string())?;
    let field = |key: &str| j.get(key).ok_or(format!("missing {key:?}"));
    let mut values = BTreeMap::new();
    for key in ["metrics", "extras"] {
        if let Some(Json::Obj(map)) = j.get(key) {
            for (name, m) in map {
                let v = m.get("value").and_then(Json::as_f64);
                values.insert(name.clone(), v.ok_or(format!("{name}: no numeric value"))?);
            }
        }
    }
    Ok(RunFile {
        workload: field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        seed: field("seed")?.as_f64().ok_or("seed is not a number")? as u64,
        trace: field("trace")?.as_bool().ok_or("trace is not a bool")?,
        values,
    })
}

/// Read every `*.json` result file in `dir`.
///
/// # Errors
///
/// An unreadable directory or file, or a malformed result file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The judging rule of every metric `BENCHMARK.json` declares.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let j = Json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in j.get(section).and_then(Json::as_array).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            out.insert(
                name.to_string(),
                Rule {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// Values of `metric` over `runs`, ordered by seed (stable for repeats).
fn series(runs: &[&RunFile], metric: &str) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = runs
        .iter()
        .filter_map(|r| r.values.get(metric).map(|&x| (r.seed, x)))
        .collect();
    v.sort_by_key(|&(seed, _)| seed);
    v
}

/// Verdict of B against A under `rule`.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule, b_wins: usize, pairs: usize) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    if pairs > 0 && b_wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 {
        return "improved";
    }
    let Some(bound) = rule.bound else {
        return "-";
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let worse_by = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    if spread(a) > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "no worse"
    }
}

/// The comparison report of run sets `a` and `b`.
pub fn report(a: &[RunFile], b: &[RunFile], rules: &BTreeMap<String, Rule>) -> String {
    // (workload, traced) -> (A's runs, B's runs)
    type Sides<'a> = (Vec<&'a RunFile>, Vec<&'a RunFile>);
    let mut groups: BTreeMap<(String, bool), Sides> = BTreeMap::new();
    for r in a {
        groups
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .0
            .push(r);
    }
    for r in b {
        groups
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .1
            .push(r);
    }
    let mut out = String::new();
    for ((workload, trace), (ra, rb)) in &groups {
        let _ = writeln!(
            out,
            "== {workload}{} (A: {} runs, B: {} runs)",
            if *trace { " traced" } else { "" },
            ra.len(),
            rb.len()
        );
        let _ = writeln!(
            out,
            "{:<32} {:>32} {:>32} {:>7}  verdict",
            "metric", "A median [q1, q3] spread", "B median [q1, q3] spread", "B wins"
        );
        let names: std::collections::BTreeSet<&String> =
            ra.iter().chain(rb).flat_map(|r| r.values.keys()).collect();
        for name in names {
            let (sa, sb) = (series(ra, name), series(rb, name));
            let va: Vec<f64> = sa.iter().map(|x| x.1).collect();
            let vb: Vec<f64> = sb.iter().map(|x| x.1).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let rule = rules.get(name.as_str()).copied();
            let pairs = va.len().min(vb.len());
            let identical = va.len() == vb.len()
                && sa
                    .iter()
                    .zip(&sb)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
            let wins = rule.map_or(0, |r| {
                va.iter()
                    .zip(&vb)
                    .filter(|(x, y)| if r.lower_is_better { y < x } else { y > x })
                    .count()
            });
            let verdict = rule.map_or("-", |r| verdict(&va, &vb, r, wins, pairs));
            let _ = writeln!(
                out,
                "{name:<32} {:>32} {:>32} {:>7}  {verdict}{}",
                summary(&va),
                summary(&vb),
                if rule.is_some() {
                    format!("{wins}/{pairs}")
                } else {
                    "-".into()
                },
                if identical { " (identical)" } else { "" }
            );
        }
        out.push('\n');
    }
    out
}

fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!(
        "{} [{}, {}] {:.1}%",
        sig(median(v)),
        sig(q1),
        sig(q3),
        100.0 * spread(v)
    )
}

/// Four significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule {
        lower_is_better: false,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let better = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &better, HIGHER, 5, 5), "improved");
        let same = [100.2, 100.8, 99.1, 100.4, 99.6];
        assert_eq!(verdict(&a, &same, HIGHER, 2, 5), "no worse");
        let worse = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&a, &worse, HIGHER, 0, 5), "worse");
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&noisy, &same, HIGHER, 2, 5), "unresolved");
    }

    #[test]
    fn result_files_round_trip() {
        let text = r#"{"workload": "paper", "seed": 3, "trace": false, "correct": true,
            "attempted": 6, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
            "extras": {"regen_s": {"value": 1.25, "unit": "s"}}}"#;
        let run = parse_run(text).expect("well-formed");
        assert_eq!(run.workload, "paper");
        assert_eq!(run.seed, 3);
        assert_eq!(run.values.get("regen_s"), Some(&1.25));
        assert_eq!(run.values.len(), 2);
    }
}
