//! The `asgov` command line: its usage text and the [`Command`] each
//! subcommand parses into, read with [`asgov_util::args`].

use asgov_profiler::ProfileOptions;
use asgov_util::args::{ArgError, Flags};
use asgov_workloads::LoadLevel;

/// CLI usage text.
pub const USAGE: &str = "\
asgov — application-specific performance-aware energy optimization

USAGE:
  asgov list-apps
  asgov profile  --app <NAME> [--out <FILE>] [--stride <N>] [--runs <N>]
                 [--window-s <N>] [--load BL|NL|HL] [--cpu-only]
  asgov baseline --app <NAME> [--duration-s <N>] [--load BL|NL|HL]
  asgov control  --app <NAME> [--profile <FILE>] [--target <GIPS>]
                 [--duration-s <N>] [--load BL|NL|HL] [--cpu-only]
                 [--out <FILE>]
  asgov compare  --app <NAME> [--duration-s <N>] [--load BL|NL|HL]
  asgov stats    --trace <FILE>

COMMANDS:
  list-apps   List the built-in application models
  profile     Offline-profile an application (paper Stage 1); writes a
              TSV table to --out (default: <app>.profile.tsv)
  baseline    Measure the default-governor run (R_def, P_def, E_def)
  control     Run the online controller (paper Stage 2) from a saved
              profile, or from a fresh one without --profile; with
              --out, also write its per-cycle JSONL trace there
  compare     Profile + baseline + controller, print the Table III row
              (over the app's own test duration unless --duration-s)
  stats       Aggregate a JSONL trace file: cycle counts, error and
              latency statistics, fault and degradation tallies";

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `asgov list-apps`
    ListApps,
    /// `asgov profile`
    Profile {
        app: String,
        out: Option<String>,
        stride: usize,
        runs: usize,
        window_ms: u64,
        load: LoadLevel,
        cpu_only: bool,
    },
    /// `asgov baseline`
    Baseline {
        app: String,
        duration_ms: u64,
        load: LoadLevel,
    },
    /// `asgov control`; without `profile` it profiles the app first,
    /// and with `out` it writes the run's per-cycle JSONL trace there.
    Control {
        app: String,
        profile: Option<String>,
        target: Option<f64>,
        duration_ms: u64,
        load: LoadLevel,
        cpu_only: bool,
        out: Option<String>,
    },
    /// `asgov compare`; `duration_ms` overrides the app's test duration.
    Compare {
        app: String,
        duration_ms: Option<u64>,
        load: LoadLevel,
    },
    /// `asgov stats`
    Stats { trace: String },
}

/// Simulated length of `baseline` and `control` runs without
/// `--duration-s`, ms.
const DEFAULT_DURATION_MS: u64 = 60_000;

fn load(f: &mut Flags<'_>) -> Result<LoadLevel, ArgError> {
    let v = f.value("--load")?.unwrap_or("BL").to_uppercase();
    LoadLevel::from_label(&v)
        .ok_or_else(|| ArgError::usage(format!("--load must be BL, NL or HL, got {v:?}")))
}

fn app(f: &mut Flags<'_>) -> Result<String, ArgError> {
    f.required("--app").map(str::to_string)
}

/// Read a [`Command`] from the subcommand and its flags; pass it to
/// [`asgov_util::args::parse`], which refuses any argument left over.
///
/// # Errors
///
/// Returns [`ArgError`] on unknown subcommands, missing required
/// flags or unparsable values.
pub fn command(f: &mut Flags<'_>) -> Result<Command, ArgError> {
    let owned = |v: Option<&str>| v.map(str::to_string);
    Ok(match f.subcommand() {
        Some("list-apps") => Command::ListApps,
        Some("profile") => {
            let defaults = ProfileOptions::default();
            Command::Profile {
                app: app(f)?,
                out: owned(f.value("--out")?),
                stride: f.num("--stride")?.unwrap_or(defaults.freq_stride),
                runs: f.num("--runs")?.unwrap_or(defaults.runs_per_config),
                window_ms: f.secs_as_ms("--window-s")?.unwrap_or(defaults.run_ms),
                load: load(f)?,
                cpu_only: f.flag("--cpu-only")?,
            }
        }
        Some("baseline") => Command::Baseline {
            app: app(f)?,
            duration_ms: f.secs_as_ms("--duration-s")?.unwrap_or(DEFAULT_DURATION_MS),
            load: load(f)?,
        },
        Some("control") => Command::Control {
            app: app(f)?,
            profile: owned(f.value("--profile")?),
            target: f.num("--target")?,
            duration_ms: f.secs_as_ms("--duration-s")?.unwrap_or(DEFAULT_DURATION_MS),
            load: load(f)?,
            cpu_only: f.flag("--cpu-only")?,
            out: owned(f.value("--out")?),
        },
        Some("compare") => Command::Compare {
            app: app(f)?,
            duration_ms: f.secs_as_ms("--duration-s")?,
            load: load(f)?,
        },
        Some("stats") => Command::Stats {
            trace: f.required("--trace")?.to_string(),
        },
        Some(other) => return Err(ArgError::usage(format!("unknown subcommand {other:?}"))),
        None => return Err(ArgError::usage("missing subcommand")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ArgError> {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        asgov_util::args::parse(&argv, command)
    }

    #[test]
    fn parses_list_apps() {
        assert_eq!(parse(&["list-apps"]).unwrap(), Command::ListApps);
    }

    #[test]
    fn parses_profile_with_defaults() {
        let cmd = parse(&["profile", "--app", "AngryBirds"]).unwrap();
        match cmd {
            Command::Profile {
                app,
                stride,
                runs,
                window_ms,
                load,
                cpu_only,
                out,
            } => {
                assert_eq!(app, "AngryBirds");
                assert_eq!((stride, runs, window_ms), (2, 3, 30_000));
                assert_eq!(load, LoadLevel::Baseline);
                assert!(!cpu_only);
                assert!(out.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_flag() {
        let e = parse(&["baseline", "--app", "X", "--frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unrecognized"));
    }

    #[test]
    fn compare_defaults_to_the_app_duration_and_has_one_protocol() {
        assert_eq!(
            parse(&["compare", "--app", "VidCon"]).unwrap(),
            Command::Compare {
                app: "VidCon".into(),
                duration_ms: None,
                load: LoadLevel::Baseline,
            }
        );
        let e = parse(&["compare", "--app", "VidCon", "--quick"]).unwrap_err();
        assert!(e.to_string().contains("unrecognized argument"), "{e}");
    }

    #[test]
    fn rejects_bad_load() {
        let e = parse(&["baseline", "--app", "X", "--load", "XXL"]).unwrap_err();
        assert!(e.to_string().contains("--load"));
    }

    #[test]
    fn parses_control() {
        let cmd = parse(&[
            "control",
            "--app",
            "Spotify",
            "--profile",
            "p.tsv",
            "--target",
            "0.12",
            "--cpu-only",
            "--load",
            "hl",
        ])
        .unwrap();
        match cmd {
            Command::Control {
                app,
                profile,
                target,
                load,
                cpu_only,
                ..
            } => {
                assert_eq!(app, "Spotify");
                assert_eq!(profile.as_deref(), Some("p.tsv"));
                assert_eq!(target, Some(0.12));
                assert_eq!(load, LoadLevel::Heavy);
                assert!(cpu_only);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_errors() {
        for args in [&["control"][..], &["profile"], &["stats"]] {
            let e = parse(args).unwrap_err();
            assert!(e.to_string().ends_with("is required"), "{args:?}: {e}");
        }
        assert_eq!(parse(&[]), Err(ArgError::usage("missing subcommand")));
    }

    /// `control` needs only `--app`: without `--profile` it profiles
    /// first, and without `--out` it writes no trace.
    #[test]
    fn parses_control_with_defaults() {
        assert_eq!(
            parse(&["control", "--app", "VidCon"]),
            Ok(Command::Control {
                app: "VidCon".into(),
                profile: None,
                target: None,
                duration_ms: 60_000,
                load: LoadLevel::Baseline,
                cpu_only: false,
                out: None,
            })
        );
    }

    #[test]
    fn trace_is_folded_into_control() {
        let e = parse(&["trace", "--app", "VidCon"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown subcommand \"trace\"");
        let e = parse(&["control", "--app", "X", "--capacity", "64"]).unwrap_err();
        assert_eq!(e.to_string(), "unrecognized argument \"--capacity\"");
    }

    #[test]
    fn rejects_a_repeated_flag() {
        let e = parse(&["control", "--app", "X", "--out", "a", "--out", "b"]).unwrap_err();
        assert_eq!(e.to_string(), "--out is given more than once");
    }

    #[test]
    fn seconds_past_the_millisecond_range_are_rejected() {
        let max_s = u64::MAX / 1000;
        for sub in ["baseline", "compare", "control"] {
            let ok = parse(&[sub, "--app", "X", "--duration-s", &max_s.to_string()]);
            assert!(ok.is_ok(), "{sub}: {ok:?}");
            let e = parse(&[sub, "--app", "X", "--duration-s", "18446744073709552"]);
            assert_eq!(
                e,
                Err(ArgError::SecondsOverflow {
                    flag: "--duration-s",
                    secs: 18_446_744_073_709_552,
                }),
                "{sub}"
            );
        }
        let e = parse(&[
            "profile",
            "--app",
            "X",
            "--window-s",
            &(max_s + 1).to_string(),
        ])
        .unwrap_err();
        assert!(e.to_string().contains("--window-s"), "{e}");
    }

    #[test]
    fn parses_stats() {
        let cmd = parse(&["stats", "--trace", "run.jsonl"]).unwrap();
        assert_eq!(
            cmd,
            Command::Stats {
                trace: "run.jsonl".into()
            }
        );
    }
}
