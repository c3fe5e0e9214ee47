//! The benchmark's command line.
//!
//! ```text
//! workloads [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! workloads compare DIR_A DIR_B
//! ```
//!
//! With `--workload`, runs that workload and prints every metric as
//! `name value unit`, each check as `check ok|FAILED: what`, and, last,
//! the result as one JSON line; exits 1 if a check failed. Without it,
//! runs every workload in turn, each in a fresh child process so peak
//! RSS is per workload. `--out DIR` also writes each result to a file
//! in `DIR`, which `compare` reads.

use asgov_benchmark::{compare, run, RunOptions, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// Measured-phase length when `--seconds` is not given
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let raw = value()?;
                cli.seed = Some(raw.parse().map_err(|_| format!("bad seed {raw:?}"))?);
            }
            "--seconds" => {
                let raw = value()?;
                cli.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {raw:?}"))?;
            }
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Run one workload; the process exit code.
fn run_one(workload: Workload, cli: &Cli) -> i32 {
    let opts = RunOptions {
        workload,
        seed: cli.seed.unwrap_or_else(|| workload.default_seed()),
        seconds: cli.seconds,
        trace: cli.trace,
        size: Size::Full,
    };
    eprintln!(
        "workloads: {} seed {} for {} s{}",
        workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" }
    );
    let result = run(&opts);
    for m in result.metrics.iter().chain(&result.extras) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for c in &result.checks {
        println!("check {}: {}", if c.ok { "ok" } else { "FAILED" }, c.name);
    }
    if let Some(dir) = &cli.out {
        if let Err(e) = write_result(dir, &opts, &result.to_file_json(&opts).to_pretty()) {
            eprintln!("workloads: writing a result to {}: {e}", dir.display());
            return 1;
        }
    }
    println!("{}", result.to_json());
    i32::from(!result.correct())
}

/// Write `text` to a fresh `<workload>-t<trace>-s<seed>[-n].json` in `dir`.
fn write_result(dir: &Path, opts: &RunOptions, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-t{}-s{}",
        opts.workload.name(),
        u8::from(opts.trace),
        opts.seed
    );
    let path = (1..)
        .map(|n| match n {
            1 => dir.join(format!("{stem}.json")),
            n => dir.join(format!("{stem}-{n}.json")),
        })
        .find(|p| !p.exists())
        .expect("an unbounded range has a free name");
    std::fs::write(path, text)
}

/// Run every workload, each in a child process; the exit code.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("workloads: locating this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workloads: {} exited with {s}", w.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("workloads: starting {}: {e}", w.name());
                code = 1;
            }
        }
    }
    code
}

fn compare_main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: workloads compare DIR_A DIR_B");
        return 2;
    };
    let loaded = (|| -> Result<String, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let rules = compare::rules(&text)?;
        let (ra, rb) = (
            compare::load_dir(Path::new(a))?,
            compare::load_dir(Path::new(b))?,
        );
        Ok(compare::report(&ra, &rb, &rules))
    })();
    match loaded {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(e) => {
            eprintln!("workloads compare: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        exit(compare_main(&args[1..]));
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("workloads: {msg}");
            exit(2);
        }
    };
    exit(match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&args),
    });
}
