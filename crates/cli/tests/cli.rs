//! End-to-end CLI tests: drive the parsed commands through the real
//! pipeline with a temp directory for the profile artifacts.

use std::process::Command;

fn asgov() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asgov"))
}

#[test]
fn list_apps_names_all_models() {
    let out = asgov().arg("list-apps").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for app in [
        "VidCon",
        "MobileBench",
        "AngryBirds",
        "WeChat",
        "MXPlayer",
        "Spotify",
        "eBook",
    ] {
        assert!(text.contains(app), "missing {app} in:\n{text}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = asgov().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("USAGE"));
}

#[test]
fn overflowing_duration_is_a_usage_error() {
    // 18446744073709552 s is 2^64 ms + 384 ms: it once wrapped to a
    // 384 ms run that exited 0.
    let out = asgov()
        .args([
            "baseline",
            "--app",
            "Spotify",
            "--duration-s",
            "18446744073709552",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--duration-s") && err.contains("USAGE"),
        "{err}"
    );
}

/// `trace` was folded into `control --out`, and a flag given twice is
/// refused rather than letting one occurrence win: both exit 2 before
/// any work, print nothing on stdout and name the argument.
#[test]
fn trace_is_an_unknown_subcommand_and_a_repeated_flag_is_refused() {
    for (args, why) in [
        (
            &["trace", "--app", "Spotify", "--duration-s", "1"][..],
            "unknown subcommand \"trace\"",
        ),
        (
            &["baseline", "--app", "Spotify", "--app", "WeChat"],
            "--app is given more than once",
        ),
        (
            &["control", "--app", "Spotify", "--capacity", "64"],
            "unrecognized argument \"--capacity\"",
        ),
    ] {
        let out = asgov().args(args).output().expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            err.contains(why) && err.contains("USAGE"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn unknown_app_fails_cleanly() {
    let out = asgov()
        .args(["baseline", "--app", "DoesNotExist", "--duration-s", "1"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown application"));
}

#[test]
fn profile_then_control_round_trip() {
    let dir = std::env::temp_dir().join("asgov_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let profile_path = dir.join("spotify.tsv");

    let out = asgov()
        .args([
            "profile",
            "--app",
            "Spotify",
            "--runs",
            "1",
            "--window-s",
            "4",
            "--stride",
            "4",
            "--out",
            profile_path.to_str().unwrap(),
        ])
        .output()
        .expect("run profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(profile_path.exists());

    let out = asgov()
        .args([
            "control",
            "--app",
            "Spotify",
            "--profile",
            profile_path.to_str().unwrap(),
            "--target",
            "0.11",
            "--duration-s",
            "10",
        ])
        .output()
        .expect("run control");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("achieved"));
    assert!(text.contains("0 actuation failures"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `control --out` without `--profile` profiles the app, runs it and
/// writes the trace that `stats` reads back.
#[test]
fn control_trace_then_stats_round_trip() {
    let dir = std::env::temp_dir().join("asgov_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("spotify.trace.jsonl");

    let out = asgov()
        .args([
            "control",
            "--app",
            "Spotify",
            "--duration-s",
            "10",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("run control");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycle records"));

    // Every line of the artifact is a schema-tagged record.
    let jsonl = std::fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "trace file is empty");
    for line in &lines {
        assert!(
            line.contains("\"schema\":\"asgov-obs/v2\""),
            "untagged line: {line}"
        );
    }

    let out = asgov()
        .args(["stats", "--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&format!("{} records", lines.len())));
    assert!(text.contains("|error|"));
    assert!(text.contains("dwell splits"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden-input test: `stats` must accept a hand-written JSONL trace,
/// including `null` float fields (the serializer's encoding of
/// non-finite values), and exclude those from the error aggregates
/// instead of poisoning or rejecting them.
#[test]
fn stats_reads_golden_jsonl_with_null_floats() {
    let dir = std::env::temp_dir().join("asgov_cli_golden_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("golden.trace.jsonl");
    let golden = concat!(
        r#"{"actuation_ns":12400,"base_estimate":0.231,"cycle":0,"error":0.013,"fault":null,"innovation":-0.004,"level":"full","lower_bw":3,"lower_freq":7,"measured_gips":0.487,"required_speedup":2.16,"schema":"asgov-obs/v1","solve_ns":1850,"t_ms":2000,"target_gips":0.5,"tau_lower_ms":1200,"tau_upper_ms":800,"upper_bw":4,"upper_freq":8}"#,
        "\n",
        r#"{"actuation_ns":9100,"base_estimate":0.235,"cycle":1,"error":null,"fault":"busy","innovation":null,"level":"safe-config","lower_bw":3,"lower_freq":7,"measured_gips":null,"required_speedup":2.1,"schema":"asgov-obs/v1","solve_ns":1700,"t_ms":4000,"target_gips":0.5,"tau_lower_ms":2000,"tau_upper_ms":0,"upper_bw":3,"upper_freq":7}"#,
        "\n",
    );
    std::fs::write(&trace_path, golden).unwrap();

    let out = asgov()
        .args(["stats", "--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 records"), "{text}");
    // The finite record's error is the whole aggregate: mean == max == 0.013.
    assert!(text.contains("mean 0.0130"), "{text}");
    assert!(text.contains("max 0.0130"), "{text}");
    assert!(
        text.contains("1 record(s) with non-finite error excluded"),
        "{text}"
    );
    // Replayed metrics see the fault and the degraded level.
    assert!(text.contains("busy"), "{text}");
    assert!(text.contains("safe-config"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_rejects_a_malformed_trace() {
    let dir = std::env::temp_dir().join("asgov_cli_badtrace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("bad.trace.jsonl");
    std::fs::write(&trace_path, "{not json\n").unwrap();
    let out = asgov()
        .args(["stats", "--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// `stats` accepts records whose times decrease (two traces
/// concatenated) and refuses an integer field that is negative.
#[test]
fn stats_spans_concatenated_traces_and_refuses_negative_integers() {
    let dir = std::env::temp_dir().join("asgov_cli_concat_test");
    std::fs::create_dir_all(&dir).unwrap();
    let line = |cycle: i64, t_ms: u64| {
        format!(
            r#"{{"actuation_ns":0,"base_estimate":0.2,"cycle":{cycle},"error":0.0,"fault":null,"innovation":0.0,"level":"full","lower_bw":3,"lower_freq":7,"measured_gips":0.5,"required_speedup":2.0,"schema":"asgov-obs/v1","solve_ns":0,"t_ms":{t_ms},"target_gips":0.5,"tau_lower_ms":2000,"tau_upper_ms":0,"upper_bw":3,"upper_freq":7}}"#
        )
    };
    let concatenated = dir.join("concat.trace.jsonl");
    let text = [
        line(0, 6_000),
        line(1, 8_000),
        line(0, 2_000),
        line(1, 4_000),
    ]
    .join("\n");
    std::fs::write(&concatenated, text).unwrap();
    let out = asgov()
        .args(["stats", "--trace", concatenated.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 records spanning 6.0 s"), "{text}");

    let negative = dir.join("negative.trace.jsonl");
    std::fs::write(&negative, line(-1, 2_000)).unwrap();
    let out = asgov()
        .args(["stats", "--trace", negative.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"cycle\""), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `control` refuses, with an error and exit code 1 rather than a
/// panic, a profile that cannot drive a controller: one with no rows,
/// an index off the Nexus 6 ladders, a `NaN` speedup, or an index that
/// is not an unsigned integer. It writes no trace from one.
#[test]
fn control_refuses_a_profile_that_cannot_drive_a_controller() {
    let dir = std::env::temp_dir().join("asgov_cli_badprofile_test");
    std::fs::create_dir_all(&dir).unwrap();
    let header = "# app\tSpotify\n# base_gips\t0.05\n\
                  # freq_idx\tbw_idx\tgpu_idx\tspeedup\tpower_w\tmeasured\n";
    let cases = [
        ("empty", "", "no entries"),
        ("offladder", "99\t0\t-1\t1\t1.5\t1\n", "off the device"),
        ("nan", "0\t0\t-1\tNaN\t1.5\t1\n", "malformed profile line"),
        (
            "negative",
            "-3\t0\t-1\t1\t1.5\t1\n",
            "malformed profile line",
        ),
        (
            "fraction",
            "1.5\t0\t-1\t1\t1.5\t1\n",
            "malformed profile line",
        ),
    ];
    for (name, rows, why) in cases {
        let path = dir.join(format!("{name}.tsv"));
        std::fs::write(&path, format!("{header}{rows}")).unwrap();
        let trace_out = dir.join(format!("{name}.trace.jsonl"));
        let out = asgov()
            .args(["control", "--app", "Spotify", "--profile"])
            .arg(&path)
            .args(["--target", "0.1", "--duration-s", "4", "--out"])
            .arg(&trace_out)
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains("error:") && err.contains(why), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        assert!(
            !trace_out.exists(),
            "{name}: no trace from a refused profile"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_reports_the_four_quantities() {
    let out = asgov()
        .args(["baseline", "--app", "Spotify", "--duration-s", "5"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for q in ["R_def", "P_def", "T_def", "E_def"] {
        assert!(text.contains(q), "missing {q}");
    }
}

/// Profile Spotify into `dir` (coordinated, or `--cpu-only`), then run
/// `asgov control` from that profile at a fixed target; returns stdout.
fn control_stdout(dir: &str, cpu_only: bool) -> String {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let profile_path = dir.join("spotify.tsv");
    let profile_path = profile_path.to_str().unwrap();
    let mode: &[&str] = if cpu_only { &["--cpu-only"] } else { &[] };
    let out = asgov()
        .args(["profile", "--app", "Spotify", "--runs", "1"])
        .args(["--window-s", "2", "--stride", "4", "--out", profile_path])
        .args(mode)
        .output()
        .expect("run profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = asgov()
        .args(["control", "--app", "Spotify", "--profile", profile_path])
        .args(["--target", "0.11", "--duration-s", "8"])
        .args(mode)
        .output()
        .expect("run control");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn control_output_is_pinned() {
    assert_eq!(
        control_stdout("asgov_cli_pin_coordinated", false),
        concat!(
            "Spotify under the asgov controller (target 0.1100 GIPS, BL):\n",
            "  achieved = 0.1330 GIPS\n",
            "  power    = 1.565 W\n",
            "  energy   = 12.5 J over 8.0 s\n",
            "  base-speed estimate = 0.1340 GIPS, 4 control cycles, 0 actuation failures\n",
            "  health   = healthy: no faults observed\n",
        )
    );
}

#[test]
fn cpu_only_control_output_is_pinned() {
    assert_eq!(
        control_stdout("asgov_cli_pin_cpu_only", true),
        concat!(
            "Spotify under the asgov controller (target 0.1100 GIPS, BL):\n",
            "  achieved = 0.1330 GIPS\n",
            "  power    = 1.672 W\n",
            "  energy   = 13.4 J over 8.0 s\n",
            "  base-speed estimate = 0.1340 GIPS, 4 control cycles, 0 actuation failures\n",
            "  health   = healthy: no faults observed\n",
        )
    );
}

/// `asgov compare` prints the Table III row `harness::compare` gives
/// at the default options, over the app's own test duration: for a
/// deadline-critical app the performance is its completion time, and
/// the controller leg is Table III's.
#[test]
fn compare_prints_the_harness_comparison() {
    use asgov_experiments::harness::{compare, ExperimentOptions};
    use asgov_workloads::{apps, BackgroundLoad, LoadLevel};

    let text = compare_stdout(&[]);
    let mut app = apps::by_name("VidCon", BackgroundLoad::with_level(LoadLevel::Baseline, 1))
        .expect("registry app");
    let header = format!("VidCon (BL, {} s):", app.spec().test_duration_ms / 1000);
    let c = compare(
        &asgov_soc::DeviceConfig::nexus6(),
        &mut app,
        &ExperimentOptions::default(),
    );
    assert!(!c.truncated(), "both legs run VidCon to completion");
    let m = &c.controller;
    let controller = format!(
        "controller: {:.4} GIPS  {:.3} W  {:.1} J",
        m.gips, m.power_w, m.energy_j
    );
    let row = format!(
        "=> {:+.1}% energy at {:+.1}% performance",
        c.energy_savings_pct(),
        c.performance_delta_pct()
    );
    for want in [&header, &controller, &row] {
        assert!(text.contains(want.as_str()), "want {want:?} in:\n{text}");
    }
}

/// A window shorter than VidCon's completion time cuts both legs short,
/// so the completion times compare nothing: the performance cell reads
/// `n/a`, not `+0.0%`.
#[test]
fn compare_flags_a_truncated_deadline_run() {
    let text = compare_stdout(&["--duration-s", "30"]);
    assert!(text.contains("VidCon (BL, 30 s):"), "{text}");
    assert!(text.contains("energy at n/a performance"), "{text}");
}

/// `asgov compare --app VidCon` with `extra` flags; returns stdout.
fn compare_stdout(extra: &[&str]) -> String {
    let out = asgov()
        .args(["compare", "--app", "VidCon"])
        .args(extra)
        .output()
        .expect("run compare");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}
