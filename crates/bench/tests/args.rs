//! `asgov-bench` takes only `--quick`: anything else, or `--quick`
//! twice, exits 2 before any suite runs.

use std::process::Command;

#[test]
fn refuses_an_unknown_or_repeated_flag() {
    for (args, named) in [
        (&["--frobnicate"][..], "\"--frobnicate\""),
        (&["--quick", "--quick"], "--quick is given more than once"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_asgov-bench"))
            .args(args)
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(err.contains(named), "{args:?}: {err}");
    }
}
