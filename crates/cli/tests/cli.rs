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

#[test]
fn oversized_trace_capacity_is_a_usage_error() {
    // It once reached `Vec::with_capacity` after profiling and panicked
    // with `capacity overflow` (exit 101).
    let out = asgov()
        .args([
            "trace",
            "--app",
            "Spotify",
            "--target",
            "0.1",
            "--duration-s",
            "1",
            "--capacity",
            "18446744073709551615",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--capacity") && err.contains("USAGE"), "{err}");
    assert!(
        !err.contains("profiling"),
        "profiled before rejecting: {err}"
    );
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

#[test]
fn trace_then_stats_round_trip() {
    let dir = std::env::temp_dir().join("asgov_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("spotify.trace.jsonl");

    let out = asgov()
        .args([
            "trace",
            "--app",
            "Spotify",
            "--duration-s",
            "10",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("run trace");
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
