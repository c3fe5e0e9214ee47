//! Command-line flags: the one parser every binary of the workspace
//! reads its arguments through (the workspace deliberately carries no
//! CLI dependency).
//!
//! An argument is a `--name value` pair, a bare `--name` switch, or a
//! leading subcommand. A binary asks for each flag it knows by name, in
//! any order; [`Flags::finish`] then refuses whatever is left over. A
//! value never begins with `--`, so a flag can never be mistaken for
//! the value of the one before it, and a flag given twice is refused
//! rather than letting one occurrence silently win.
//!
//! [`parse_env`] runs a binary's reader over the process's own
//! arguments and ends the process with status 2 on any error, before
//! the binary does any work. It also makes a closed stdout end the
//! process quietly with status 0 (see [`parse_env`]).

use std::fmt;
use std::str::FromStr;

/// Why an argument list was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// Unknown subcommand or argument, a missing, repeated or stray
    /// flag, or a value that does not parse.
    Usage(String),
    /// A seconds flag whose value does not fit in `u64` milliseconds.
    SecondsOverflow {
        /// The flag, e.g. `--duration-s`.
        flag: &'static str,
        /// The value given, in seconds.
        secs: u64,
    },
}

impl ArgError {
    /// A [`ArgError::Usage`] with `msg`.
    pub fn usage(msg: impl Into<String>) -> Self {
        Self::Usage(msg.into())
    }
}

impl fmt::Display for ArgError {
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

impl std::error::Error for ArgError {}

/// An argument list being read flag by flag; see the module docs.
#[derive(Debug)]
pub struct Flags<'a> {
    argv: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    /// Flags over `argv` (without the program name), none read yet.
    pub fn new(argv: &'a [String]) -> Self {
        Self {
            used: vec![false; argv.len()],
            argv,
        }
    }

    /// The first argument as a subcommand name; `None` when there are
    /// no arguments or the first is a flag.
    pub fn subcommand(&mut self) -> Option<&'a str> {
        let first = self.argv.first().filter(|a| !a.starts_with("--"))?;
        self.used[0] = true;
        Some(first)
    }

    /// The position of flag `name`, marked read; `None` when absent.
    fn claim(&mut self, name: &str) -> Result<Option<usize>, ArgError> {
        let mut at = self.argv.iter().enumerate().filter(|(_, a)| *a == name);
        let first = at.next().map(|(i, _)| i);
        if at.next().is_some() {
            return Err(ArgError::usage(format!("{name} is given more than once")));
        }
        if let Some(i) = first {
            self.used[i] = true;
        }
        Ok(first)
    }

    /// The value of `--name value`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// The flag is repeated, or is last or followed by another flag.
    pub fn value(&mut self, name: &str) -> Result<Option<&'a str>, ArgError> {
        let Some(i) = self.claim(name)? else {
            return Ok(None);
        };
        match self.argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.used[i + 1] = true;
                Ok(Some(v))
            }
            _ => Err(ArgError::usage(format!("{name} needs a value"))),
        }
    }

    /// The value of a flag the command cannot run without.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], and when the flag is absent.
    pub fn required(&mut self, name: &str) -> Result<&'a str, ArgError> {
        self.value(name)?
            .ok_or_else(|| ArgError::usage(format!("{name} is required")))
    }

    /// The value of `name` parsed as a `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], and when the value does not parse.
    pub fn num<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, ArgError> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError::usage(format!("{name}: cannot parse {v:?}")))
            })
            .transpose()
    }

    /// A seconds flag's value converted once to milliseconds, the unit
    /// the simulator runs in; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Flags::num`], and [`ArgError::SecondsOverflow`] when the
    /// milliseconds do not fit in a `u64`.
    pub fn secs_as_ms(&mut self, flag: &'static str) -> Result<Option<u64>, ArgError> {
        let Some(secs) = self.num::<u64>(flag)? else {
            return Ok(None);
        };
        secs.checked_mul(1000)
            .map(Some)
            .ok_or(ArgError::SecondsOverflow { flag, secs })
    }

    /// Whether the switch `name` is present.
    ///
    /// # Errors
    ///
    /// The switch is repeated.
    pub fn flag(&mut self, name: &str) -> Result<bool, ArgError> {
        Ok(self.claim(name)?.is_some())
    }

    /// Refuse any argument nothing has read.
    ///
    /// # Errors
    ///
    /// Names the first such argument.
    pub fn finish(self) -> Result<(), ArgError> {
        match self.used.iter().position(|used| !used) {
            Some(i) => Err(ArgError::usage(format!(
                "unrecognized argument {:?}",
                self.argv[i]
            ))),
            None => Ok(()),
        }
    }
}

/// Read `argv` (without the program name) with `read`, then refuse any
/// argument it left unread.
///
/// # Errors
///
/// The first [`ArgError`] of `read` or of [`Flags::finish`].
pub fn parse<T>(
    argv: &[String],
    read: impl FnOnce(&mut Flags<'_>) -> Result<T, ArgError>,
) -> Result<T, ArgError> {
    let mut flags = Flags::new(argv);
    let parsed = read(&mut flags)?;
    flags.finish()?;
    Ok(parsed)
}

/// [`parse`] over this process's arguments. On any error — including
/// an argument that is not UTF-8 — prints `<program>: <error>` and
/// then `usage`, when not empty, to stderr, and exits with status 2.
///
/// It first installs a panic hook under which a `print!` that finds
/// stdout closed ends the process with status 0 and prints nothing: a
/// reader that stopped early (`fleet | head -1`) wanted no more
/// output, so that is not a failure. Every other panic reaches the hook
/// installed before.
pub fn parse_env<T>(usage: &str, read: impl FnOnce(&mut Flags<'_>) -> Result<T, ArgError>) -> T {
    quiet_on_closed_stdout();
    let mut args = std::env::args_os();
    let program = args
        .next()
        .map(std::path::PathBuf::from)
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_default();
    let parsed = args
        .map(|a| {
            a.into_string()
                .map_err(|a| ArgError::usage(format!("argument {a:?} is not UTF-8")))
        })
        .collect::<Result<Vec<String>, _>>()
        .and_then(|argv| parse(&argv, read));
    parsed.unwrap_or_else(|e| {
        eprintln!("{program}: {e}");
        if !usage.is_empty() {
            eprintln!("\n{usage}");
        }
        std::process::exit(2)
    })
}

/// For a binary that takes no arguments: refuse any, as [`parse_env`].
pub fn none() {
    parse_env("", |_| Ok(()));
}

/// Chain a panic hook that exits with status 0 on the panic `print!`
/// raises when stdout's reader has gone.
fn quiet_on_closed_stdout() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload_as_str().is_some_and(is_closed_stdout) {
            std::process::exit(0);
        }
        previous(info);
    }));
}

/// Is `msg` the panic message of a `print!` to a closed stdout?
fn is_closed_stdout(msg: &str) -> bool {
    msg.strip_prefix("failed printing to stdout: ")
        .is_some_and(|err| err.starts_with("Broken pipe"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read `args` with `read`, owning what it returns.
    fn read<T>(
        args: &[&str],
        read: impl FnOnce(&mut Flags<'_>) -> Result<T, ArgError>,
    ) -> Result<T, ArgError> {
        let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse(&argv, read)
    }

    fn owned(v: Option<&str>) -> Option<String> {
        v.map(str::to_string)
    }

    #[test]
    fn flags_read_in_any_order() {
        let got = read(&["--b", "--a", "1", "--c", "x"], |f| {
            Ok((owned(f.value("--c")?), f.num::<u32>("--a")?, f.flag("--b")?))
        });
        assert_eq!(got, Ok((Some("x".into()), Some(1), true)));
        let absent = read(&[], |f| Ok((owned(f.value("--c")?), f.flag("--b")?)));
        assert_eq!(absent, Ok((None, false)));
    }

    #[test]
    fn leftovers_are_refused_by_name() {
        for args in [&["--frobnicate"][..], &["--a", "1", "stray"], &["cmd"]] {
            let e = read(args, |f| f.num::<u32>("--a")).unwrap_err();
            let last = args[args.len() - 1];
            assert_eq!(
                e.to_string(),
                format!("unrecognized argument {last:?}"),
                "{args:?}"
            );
        }
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        let e = read(&["--a", "1", "--a", "2"], |f| f.num::<u32>("--a")).unwrap_err();
        assert_eq!(e.to_string(), "--a is given more than once");
        let e = read(&["--b", "--b"], |f| f.flag("--b")).unwrap_err();
        assert_eq!(e.to_string(), "--b is given more than once");
    }

    #[test]
    fn a_value_is_never_a_flag() {
        for args in [&["--a"][..], &["--a", "--b"]] {
            let e = read(args, |f| Ok((owned(f.value("--a")?), f.flag("--b")?))).unwrap_err();
            assert_eq!(e, ArgError::usage("--a needs a value"), "{args:?}");
        }
        // A single dash is a value: a negative number, say.
        assert_eq!(read(&["--a", "-1"], |f| f.num::<i32>("--a")), Ok(Some(-1)));
    }

    #[test]
    fn required_and_unparsable_values() {
        let e = read(&[], |f| f.required("--app").map(str::to_string)).unwrap_err();
        assert_eq!(e.to_string(), "--app is required");
        let e = read(&["--n", "x1"], |f| f.num::<u64>("--n")).unwrap_err();
        assert_eq!(e.to_string(), "--n: cannot parse \"x1\"");
    }

    #[test]
    fn subcommand_is_the_first_argument_unless_it_is_a_flag() {
        let got = read(&["list", "--a", "1"], |f| {
            Ok((owned(f.subcommand()), f.num::<u32>("--a")?))
        });
        assert_eq!(got, Ok((Some("list".into()), Some(1))));
        let got = read(&["--a", "1"], |f| {
            Ok((owned(f.subcommand()), f.num::<u32>("--a")?))
        });
        assert_eq!(got, Ok((None, Some(1))));
        assert_eq!(read(&[], |f| Ok(owned(f.subcommand()))), Ok(None));
    }

    #[test]
    fn only_a_broken_stdout_pipe_is_quiet() {
        assert!(is_closed_stdout(
            "failed printing to stdout: Broken pipe (os error 32)"
        ));
        for other in [
            "failed printing to stderr: Broken pipe (os error 32)",
            "failed printing to stdout: No space left on device (os error 28)",
            "index out of bounds",
        ] {
            assert!(!is_closed_stdout(other), "{other}");
        }
    }

    #[test]
    fn seconds_past_the_millisecond_range_are_refused() {
        let max_s = (u64::MAX / 1000).to_string();
        let ms = read(&["--s", &max_s], |f| f.secs_as_ms("--s"));
        assert_eq!(ms, Ok(Some(u64::MAX / 1000 * 1000)));
        let e = read(&["--s", "18446744073709552"], |f| f.secs_as_ms("--s")).unwrap_err();
        assert_eq!(
            e,
            ArgError::SecondsOverflow {
                flag: "--s",
                secs: 18_446_744_073_709_552,
            }
        );
        assert!(e
            .to_string()
            .starts_with("--s: 18446744073709552 s is too long"));
    }
}
