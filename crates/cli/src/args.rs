//! Minimal hand-rolled argument parsing (the workspace deliberately
//! carries no CLI dependency).

use asgov_profiler::ProfileOptions;
use asgov_workloads::LoadLevel;
use std::fmt;

/// CLI usage text.
pub const USAGE: &str = "\
asgov — application-specific performance-aware energy optimization

USAGE:
  asgov list-apps
  asgov profile  --app <NAME> [--out <FILE>] [--stride <N>] [--runs <N>]
                 [--window-s <N>] [--load BL|NL|HL] [--cpu-only | --gpu]
  asgov baseline --app <NAME> [--duration-s <N>] [--load BL|NL|HL]
  asgov control  --app <NAME> --profile <FILE> [--target <GIPS>]
                 [--duration-s <N>] [--load BL|NL|HL] [--cpu-only]
  asgov compare  --app <NAME> [--duration-s <N>] [--load BL|NL|HL]
  asgov trace    --app <NAME> [--profile <FILE>] [--target <GIPS>]
                 [--duration-s <N>] [--load BL|NL|HL] [--out <FILE>]
                 [--capacity <N>]   (records kept, at most 65536)
  asgov stats    --trace <FILE>

COMMANDS:
  list-apps   List the built-in application models
  profile     Offline-profile an application (paper Stage 1); writes a
              TSV table to --out (default: <app>.profile.tsv)
  baseline    Measure the default-governor run (R_def, P_def, E_def)
  control     Run the online controller from a saved profile (Stage 2)
  compare     Profile + baseline + controller, print the Table III row
              (over the app's own test duration unless --duration-s)
  trace       Run the controller with the observability sink attached;
              writes per-cycle JSONL to --out (default: <app>.trace.jsonl)
              and prints the metrics summary
  stats       Aggregate a JSONL trace file: cycle counts, error and
              latency statistics, fault and degradation tallies";

/// Ceiling on `trace --capacity`, in cycle records. The ring reserves
/// its whole capacity up front, and a control cycle ends about every
/// 2 s, so this keeps the newest ~36 h of a simulated run.
pub const MAX_TRACE_CAPACITY: usize = 1 << 16;

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
        gpu: bool,
    },
    /// `asgov baseline`
    Baseline {
        app: String,
        duration_ms: u64,
        load: LoadLevel,
    },
    /// `asgov control`
    Control {
        app: String,
        profile: String,
        target: Option<f64>,
        duration_ms: u64,
        load: LoadLevel,
        cpu_only: bool,
    },
    /// `asgov compare`; `duration_ms` overrides the app's test duration.
    Compare {
        app: String,
        duration_ms: Option<u64>,
        load: LoadLevel,
    },
    /// `asgov trace`
    Trace {
        app: String,
        profile: Option<String>,
        target: Option<f64>,
        duration_ms: u64,
        load: LoadLevel,
        out: Option<String>,
        capacity: usize,
    },
    /// `asgov stats`
    Stats { trace: String },
}

/// Parse error (the CLI prints it with the usage text and exits 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unknown subcommand, missing or stray flag, or unparsable value.
    Usage(String),
    /// A seconds flag whose value does not fit in `u64` milliseconds.
    SecondsOverflow {
        /// The flag, e.g. `--duration-s`.
        flag: &'static str,
        /// The value given, in seconds.
        secs: u64,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => write!(f, "{msg}"),
            Self::SecondsOverflow { flag, secs } => write!(
                f,
                "{flag}: {secs} s is too long (at most {} s)",
                u64::MAX / 1000
            ),
        }
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError::Usage(msg.into())
}

struct Flags<'a> {
    argv: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String]) -> Self {
        Self {
            used: vec![false; argv.len()],
            argv,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<&'a str>, ParseError> {
        for i in 0..self.argv.len() {
            if self.argv[i] == name {
                self.used[i] = true;
                let v = self
                    .argv
                    .get(i + 1)
                    .ok_or_else(|| err(format!("{name} needs a value")))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn flag(&mut self, name: &str) -> bool {
        for i in 0..self.argv.len() {
            if self.argv[i] == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn finish(self) -> Result<(), ParseError> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(err(format!("unrecognized argument {:?}", self.argv[i])));
            }
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| err(format!("{name}: cannot parse {v:?}")))
}

/// A seconds flag's value converted once to milliseconds, the unit the
/// simulator runs in; `None` when the flag is absent.
fn secs_as_ms(f: &mut Flags, flag: &'static str) -> Result<Option<u64>, ParseError> {
    let Some(v) = f.value(flag)? else {
        return Ok(None);
    };
    let secs: u64 = parse_num(flag, v)?;
    secs.checked_mul(1000)
        .map(Some)
        .ok_or(ParseError::SecondsOverflow { flag, secs })
}

/// Simulated length of `baseline`, `control` and `trace` runs without
/// `--duration-s`, ms.
const DEFAULT_DURATION_MS: u64 = 60_000;

fn parse_load(v: Option<&str>) -> Result<LoadLevel, ParseError> {
    let v = v.unwrap_or("BL").to_uppercase();
    LoadLevel::from_label(&v).ok_or_else(|| err(format!("--load must be BL, NL or HL, got {v:?}")))
}

/// Parse an argv (without the binary name) into a [`Command`].
///
/// # Errors
///
/// Returns [`ParseError`] on unknown subcommands, missing required
/// flags, unparsable values or stray arguments.
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return Err(err("missing subcommand"));
    };
    let rest = &argv[1..];
    let mut f = Flags::new(rest);
    let cmd = match sub.as_str() {
        "list-apps" => Command::ListApps,
        "profile" => {
            let defaults = ProfileOptions::default();
            let app = f.value("--app")?.ok_or_else(|| err("--app is required"))?;
            let out = f.value("--out")?.map(str::to_string);
            let stride = match f.value("--stride")? {
                Some(v) => parse_num("--stride", v)?,
                None => defaults.freq_stride,
            };
            let runs = match f.value("--runs")? {
                Some(v) => parse_num("--runs", v)?,
                None => defaults.runs_per_config,
            };
            let window_ms = secs_as_ms(&mut f, "--window-s")?.unwrap_or(defaults.run_ms);
            let load = parse_load(f.value("--load")?)?;
            let cpu_only = f.flag("--cpu-only");
            let gpu = f.flag("--gpu");
            if cpu_only && gpu {
                return Err(err("--cpu-only and --gpu are mutually exclusive"));
            }
            Command::Profile {
                app: app.to_string(),
                out,
                stride,
                runs,
                window_ms,
                load,
                cpu_only,
                gpu,
            }
        }
        "baseline" => Command::Baseline {
            app: f
                .value("--app")?
                .ok_or_else(|| err("--app is required"))?
                .to_string(),
            duration_ms: secs_as_ms(&mut f, "--duration-s")?.unwrap_or(DEFAULT_DURATION_MS),
            load: parse_load(f.value("--load")?)?,
        },
        "control" => Command::Control {
            app: f
                .value("--app")?
                .ok_or_else(|| err("--app is required"))?
                .to_string(),
            profile: f
                .value("--profile")?
                .ok_or_else(|| err("--profile is required"))?
                .to_string(),
            target: match f.value("--target")? {
                Some(v) => Some(parse_num("--target", v)?),
                None => None,
            },
            duration_ms: secs_as_ms(&mut f, "--duration-s")?.unwrap_or(DEFAULT_DURATION_MS),
            load: parse_load(f.value("--load")?)?,
            cpu_only: f.flag("--cpu-only"),
        },
        "compare" => Command::Compare {
            app: f
                .value("--app")?
                .ok_or_else(|| err("--app is required"))?
                .to_string(),
            duration_ms: secs_as_ms(&mut f, "--duration-s")?,
            load: parse_load(f.value("--load")?)?,
        },
        "trace" => Command::Trace {
            app: f
                .value("--app")?
                .ok_or_else(|| err("--app is required"))?
                .to_string(),
            profile: f.value("--profile")?.map(str::to_string),
            target: match f.value("--target")? {
                Some(v) => Some(parse_num("--target", v)?),
                None => None,
            },
            duration_ms: secs_as_ms(&mut f, "--duration-s")?.unwrap_or(DEFAULT_DURATION_MS),
            load: parse_load(f.value("--load")?)?,
            out: f.value("--out")?.map(str::to_string),
            capacity: match f.value("--capacity")? {
                Some(v) => match parse_num("--capacity", v)? {
                    n if n > MAX_TRACE_CAPACITY => {
                        return Err(err(format!(
                            "--capacity: {n} records is too many (at most {MAX_TRACE_CAPACITY})"
                        )))
                    }
                    n => n,
                },
                None => 4096,
            },
        },
        "stats" => Command::Stats {
            trace: f
                .value("--trace")?
                .ok_or_else(|| err("--trace is required"))?
                .to_string(),
        },
        other => return Err(err(format!("unknown subcommand {other:?}"))),
    };
    f.finish()?;
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parses_list_apps() {
        assert_eq!(parse(&v(&["list-apps"])).unwrap(), Command::ListApps);
    }

    #[test]
    fn parses_profile_with_defaults() {
        let cmd = parse(&v(&["profile", "--app", "AngryBirds"])).unwrap();
        match cmd {
            Command::Profile {
                app,
                stride,
                runs,
                window_ms,
                load,
                cpu_only,
                gpu,
                out,
            } => {
                assert_eq!(app, "AngryBirds");
                assert_eq!((stride, runs, window_ms), (2, 3, 30_000));
                assert_eq!(load, LoadLevel::Baseline);
                assert!(!cpu_only && !gpu);
                assert!(out.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_conflicting_axes() {
        let e = parse(&v(&["profile", "--app", "X", "--cpu-only", "--gpu"])).unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn rejects_unknown_flag() {
        let e = parse(&v(&["baseline", "--app", "X", "--frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("unrecognized"));
    }

    #[test]
    fn compare_defaults_to_the_app_duration_and_has_one_protocol() {
        assert_eq!(
            parse(&v(&["compare", "--app", "VidCon"])).unwrap(),
            Command::Compare {
                app: "VidCon".into(),
                duration_ms: None,
                load: LoadLevel::Baseline,
            }
        );
        let e = parse(&v(&["compare", "--app", "VidCon", "--quick"])).unwrap_err();
        assert!(e.to_string().contains("unrecognized argument"), "{e}");
    }

    #[test]
    fn rejects_bad_load() {
        let e = parse(&v(&["baseline", "--app", "X", "--load", "XXL"])).unwrap_err();
        assert!(e.to_string().contains("--load"));
    }

    #[test]
    fn parses_control() {
        let cmd = parse(&v(&[
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
        ]))
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
                assert_eq!(profile, "p.tsv");
                assert_eq!(target, Some(0.12));
                assert_eq!(load, LoadLevel::Heavy);
                assert!(cpu_only);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(parse(&v(&["control", "--app", "X"])).is_err());
        assert!(parse(&v(&["profile"])).is_err());
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["trace"])).is_err());
        assert!(parse(&v(&["stats"])).is_err());
    }

    #[test]
    fn parses_trace_with_defaults() {
        let cmd = parse(&v(&["trace", "--app", "VidCon"])).unwrap();
        match cmd {
            Command::Trace {
                app,
                profile,
                target,
                duration_ms,
                load,
                out,
                capacity,
            } => {
                assert_eq!(app, "VidCon");
                assert!(profile.is_none() && target.is_none() && out.is_none());
                assert_eq!((duration_ms, capacity), (60_000, 4096));
                assert_eq!(load, LoadLevel::Baseline);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn seconds_past_the_millisecond_range_are_rejected() {
        let max_s = u64::MAX / 1000;
        for sub in ["baseline", "compare", "trace"] {
            let ok = parse(&v(&[sub, "--app", "X", "--duration-s", &max_s.to_string()]));
            assert!(ok.is_ok(), "{sub}: {ok:?}");
            let e = parse(&v(&[
                sub,
                "--app",
                "X",
                "--duration-s",
                "18446744073709552",
            ]));
            assert_eq!(
                e,
                Err(ParseError::SecondsOverflow {
                    flag: "--duration-s",
                    secs: 18_446_744_073_709_552,
                }),
                "{sub}"
            );
        }
        let e = parse(&v(&[
            "profile",
            "--app",
            "X",
            "--window-s",
            &(max_s + 1).to_string(),
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--window-s"), "{e}");
    }

    #[test]
    fn trace_capacity_above_the_ceiling_is_rejected() {
        let at = |n: String| parse(&v(&["trace", "--app", "X", "--capacity", &n]));
        assert!(USAGE.contains(&format!("at most {MAX_TRACE_CAPACITY})")));
        assert!(at(MAX_TRACE_CAPACITY.to_string()).is_ok());
        for n in [(MAX_TRACE_CAPACITY + 1).to_string(), usize::MAX.to_string()] {
            let e = at(n.clone()).unwrap_err();
            assert!(e.to_string().contains("--capacity"), "{n}: {e}");
        }
    }

    #[test]
    fn parses_stats() {
        let cmd = parse(&v(&["stats", "--trace", "run.jsonl"])).unwrap();
        assert_eq!(
            cmd,
            Command::Stats {
                trace: "run.jsonl".into()
            }
        );
    }
}
