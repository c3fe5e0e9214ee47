//! CLI entry point: `cargo run -p asgov-analyze -- --workspace`.
//!
//! Exit status is the contract: 0 when every lint passes and the
//! interleaving gate verifies, 2 on a usage error, 1 otherwise — CI
//! runs this binary as a blocking job. A machine-readable report is
//! always written (default `ANALYZE_report.json`), findings or not, so
//! the artifact can be uploaded unconditionally.

use asgov_analyze::{interleave, report::Report, rules, workspace};
use asgov_util::args::{ArgError, Flags};
use asgov_util::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
asgov-analyze — invariant lints + interleaving checker

USAGE:
  asgov-analyze --workspace [--root <DIR>] [--report <FILE>]
                [--baseline <FILE>] [--skip-interleavings] [--quick]

OPTIONS:
  --workspace           Scan every crate in the workspace (required)
  --root <DIR>          Workspace root (default: discovered upward
                        from the current directory)
  --report <FILE>       Report path (default: <root>/ANALYZE_report.json)
  --baseline <FILE>     Diff findings and the inventory (the number of
                        files scanned) against a committed report; a
                        finding not in the baseline, or any inventory
                        change, fails the run. The diff is written next
                        to the report as <report>.diff
  --skip-interleavings  Lint only; skip the interleaving checker
  --quick               Smaller interleaving configurations (CI smoke)
  --help                Print this text";

struct Args {
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    baseline: Option<PathBuf>,
    skip_interleavings: bool,
    quick: bool,
}

fn parse_args(f: &mut Flags<'_>) -> Result<Args, ArgError> {
    if f.flag("--help")? {
        println!("{USAGE}");
        std::process::exit(0);
    }
    if !f.flag("--workspace")? {
        return Err(ArgError::usage(
            "pass --workspace to select the analysis target",
        ));
    }
    let path = |v: Option<&str>| v.map(PathBuf::from);
    Ok(Args {
        root: path(f.value("--root")?),
        report: path(f.value("--report")?),
        baseline: path(f.value("--baseline")?),
        skip_interleavings: f.flag("--skip-interleavings")?,
        quick: f.flag("--quick")?,
    })
}

/// One finding key for baseline comparison. Line numbers shift under
/// unrelated edits, so the key is (rule, file, message) — a finding
/// that merely moved is not "new", one that changed substance is.
fn finding_keys(findings: &Json) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(f) = findings.at(i) {
        let s = |k: &str| {
            f.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        out.push((s("rule"), s("file"), s("message")));
        i += 1;
    }
    out
}

/// The inventory a baseline holds the tree to: the scanned-file count.
fn inventory_key(report: &Json) -> String {
    let files = report
        .get("files_scanned")
        .map_or("-".into(), Json::to_string);
    format!("files_scanned {files}")
}

/// Compare the current report against a committed baseline. Returns
/// the diff text and whether the run must fail: a *new* finding
/// appeared, or the inventory ([`inventory_key`]) changed at all.
fn baseline_diff(baseline_raw: &str, current: &Json) -> (String, bool) {
    let empty = Json::Arr(vec![]);
    let baseline = Json::parse(baseline_raw).unwrap_or(Json::Null);
    let base_keys = finding_keys(baseline.get("findings").unwrap_or(&empty));
    let cur_keys = finding_keys(current.get("findings").unwrap_or(&empty));
    let mut diff = String::new();
    let mut new_count = 0usize;
    for k in &cur_keys {
        if !base_keys.contains(k) {
            new_count += 1;
            diff.push_str(&format!("+ [{}] {}: {}\n", k.0, k.1, k.2));
        }
    }
    for k in &base_keys {
        if !cur_keys.contains(k) {
            diff.push_str(&format!("- [{}] {}: {}\n", k.0, k.1, k.2));
        }
    }
    if diff.is_empty() {
        diff.push_str("no finding drift against baseline\n");
    }
    let base_inv = inventory_key(&baseline);
    let cur_inv = inventory_key(current);
    let inventory_drift = base_inv != cur_inv;
    if inventory_drift {
        diff.push_str(&format!(
            "+ inventory: {cur_inv}\n- inventory: {base_inv}\n"
        ));
    } else {
        diff.push_str("no inventory drift against baseline\n");
    }
    (diff, new_count > 0 || inventory_drift)
}

fn main() -> ExitCode {
    let args = asgov_util::args::parse_env(USAGE, parse_args);

    let Some(root) = args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace::find_root(&d))
    }) else {
        eprintln!("error: could not locate the workspace root; pass --root");
        return ExitCode::FAILURE;
    };

    let files = match workspace::discover(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        match std::fs::read_to_string(&file.path) {
            Ok(source) => {
                sources.push((file.rel.clone(), file.crate_name.clone(), source));
            }
            Err(e) => {
                eprintln!("error: reading {}: {e}", file.path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let analysis = rules::check_workspace(&sources);

    let interleave = if args.skip_interleavings {
        None
    } else {
        Some(interleave::run_all(args.quick))
    };

    let report = Report {
        findings: analysis.findings,
        files_scanned: files.len(),
        interleave,
    };

    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "asgov-analyze: {} files, {} finding(s)",
        report.files_scanned,
        report.findings.len()
    );
    if let Some(il) = &report.interleave {
        for (cfg, out) in &il.ordered {
            let bound = cfg
                .preemption_bound
                .map_or("exhaustive".to_string(), |b| format!("≤{b} preemptions"));
            match &out.violation {
                None => println!(
                    "interleave: jobs={} threads={} ({bound}): {} schedules, bit-identical",
                    cfg.jobs, cfg.threads, out.schedules
                ),
                Some(v) => println!(
                    "interleave: jobs={} threads={} ({bound}): VIOLATION: {v}",
                    cfg.jobs, cfg.threads
                ),
            }
        }
        for (cfg, out) in &il.pool {
            let bound = cfg
                .preemption_bound
                .map_or("exhaustive".to_string(), |b| format!("≤{b} preemptions"));
            match &out.violation {
                None => println!(
                    "interleave: pool workers={} batches={} ({bound}): {} schedules, handoff sound",
                    cfg.workers, cfg.batches, out.schedules
                ),
                Some(v) => println!(
                    "interleave: pool workers={} batches={} ({bound}): VIOLATION: {v}",
                    cfg.workers, cfg.batches
                ),
            }
        }
        println!(
            "interleave: checker teeth {}, pool teeth {}, real-harness differential {}, real-pool differential {}",
            if il.teeth_ok { "ok" } else { "LOST" },
            if il.pool_teeth_ok { "ok" } else { "LOST" },
            if il.real_harness_ok { "ok" } else { "FAILED" },
            if il.real_pool_ok { "ok" } else { "FAILED" },
        );
    }

    let report_path = args
        .report
        .unwrap_or_else(|| root.join("ANALYZE_report.json"));
    let report_json = report.to_json();
    if let Err(e) = std::fs::write(&report_path, report_json.to_pretty()) {
        eprintln!("error: writing {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }
    println!("report: {}", report_path.display());

    let mut regressed = false;
    if let Some(baseline_path) = &args.baseline {
        let baseline_raw = match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let (diff, has_new) = baseline_diff(&baseline_raw, &report_json);
        let diff_path = report_path.with_extension("json.diff");
        if let Err(e) = std::fs::write(&diff_path, &diff) {
            eprintln!("error: writing {}: {e}", diff_path.display());
            return ExitCode::FAILURE;
        }
        print!("baseline: {diff}");
        println!("baseline diff: {}", diff_path.display());
        if has_new {
            eprintln!(
                "error: new findings or inventory drift relative to the committed baseline \
                 (regenerate it with --skip-interleavings --report <baseline>)"
            );
            regressed = true;
        }
    }

    if report.clean() && !regressed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(findings: &[(&str, &str, &str)]) -> Json {
        let arr = findings
            .iter()
            .map(|(r, f, m)| {
                Json::Obj(
                    [
                        ("rule".to_string(), Json::Str((*r).into())),
                        ("file".to_string(), Json::Str((*f).into())),
                        ("message".to_string(), Json::Str((*m).into())),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        Json::Obj(
            [("findings".to_string(), Json::Arr(arr))]
                .into_iter()
                .collect(),
        )
    }

    #[test]
    fn identical_reports_have_no_drift() {
        let base = report_with(&[("float-eq", "a.rs", "x == y")]);
        let (diff, has_new) = baseline_diff(&base.to_pretty(), &base);
        assert!(!has_new);
        assert!(diff.contains("no finding drift"));
    }

    #[test]
    fn new_finding_fails_and_is_listed() {
        let base = report_with(&[]);
        let cur = report_with(&[("unit-mismatch", "b.rs", "ms + ticks")]);
        let (diff, has_new) = baseline_diff(&base.to_pretty(), &cur);
        assert!(has_new);
        assert!(
            diff.contains("+ [unit-mismatch] b.rs: ms + ticks"),
            "{diff}"
        );
    }

    #[test]
    fn fixed_finding_is_reported_but_passes() {
        let base = report_with(&[("float-eq", "a.rs", "x == y")]);
        let cur = report_with(&[]);
        let (diff, has_new) = baseline_diff(&base.to_pretty(), &cur);
        assert!(!has_new, "removals must not fail the gate");
        assert!(diff.contains("- [float-eq] a.rs: x == y"), "{diff}");
    }

    /// A report with `files` scanned files and no findings.
    fn inventory(files: usize) -> Json {
        let mut doc = report_with(&[]);
        doc.set("files_scanned", files);
        doc
    }

    #[test]
    fn inventory_drift_fails_and_is_listed() {
        let base = inventory(10);
        let (diff, failed) = baseline_diff(&base.to_pretty(), &base);
        assert!(!failed);
        assert!(diff.contains("no inventory drift"), "{diff}");

        let cur = inventory(11);
        let (diff, failed) = baseline_diff(&base.to_pretty(), &cur);
        assert!(failed, "a new scanned file must fail the gate");
        assert!(diff.contains("+ inventory: files_scanned 11"), "{diff}");
        assert!(diff.contains("- inventory: files_scanned 10"), "{diff}");
    }

    #[test]
    fn unreadable_baseline_counts_everything_as_new() {
        let cur = report_with(&[("float-eq", "a.rs", "x == y")]);
        let (_, has_new) = baseline_diff("not json at all", &cur);
        assert!(has_new, "a garbage baseline must not silently pass");
    }
}
