//! `asgov` — command-line interface to the energy-optimization toolkit.
//!
//! ```text
//! asgov list-apps
//! asgov profile  --app AngryBirds [--out profile.tsv] [--stride 2] [--runs 3] [--cpu-only]
//! asgov baseline --app AngryBirds [--duration-s 60]
//! asgov control  --app AngryBirds [--profile profile.tsv] [--target GIPS] [--duration-s 60] [--cpu-only] [--out run.jsonl]
//! asgov compare  --app AngryBirds [--duration-s 60] [--load BL|NL|HL]
//! asgov stats    --trace run.jsonl
//! ```

mod args;
mod commands;

use std::io::ErrorKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cmd = asgov_util::args::parse_env(args::USAGE, args::command);
    exit_code(commands::run(cmd, &mut std::io::stdout().lock()))
}

/// A command's exit status. A reader that closed stdout early (`asgov
/// … | head`) wanted no more output, so a broken pipe ends the command
/// quietly rather than as an error.
fn exit_code(result: commands::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Write};

    /// A stdout whose reader has gone.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_the_command_quietly() {
        let result = commands::run(args::Command::ListApps, &mut ClosedPipe);
        assert!(result.is_err(), "the write error reaches main");
        assert_eq!(exit_code(result), ExitCode::SUCCESS);
        let other = Err(io::Error::from(ErrorKind::NotFound).into());
        assert_eq!(exit_code(other), ExitCode::FAILURE);
    }
}
