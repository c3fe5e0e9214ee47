//! Every experiment binary refuses an argument it does not know: exit
//! status 2 before any work, nothing on stdout, and the argument named
//! on stderr. A stale flag in a script fails loudly instead of running
//! something else.

use std::process::Command;

const BINARIES: [&str; 16] = [
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
    env!("CARGO_BIN_EXE_table5"),
    env!("CARGO_BIN_EXE_fig1"),
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig4"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_scope"),
    env!("CARGO_BIN_EXE_related_work"),
    env!("CARGO_BIN_EXE_traces"),
    env!("CARGO_BIN_EXE_chaos"),
    env!("CARGO_BIN_EXE_fleet"),
];

fn assert_refused(bin: &str, args: &[&str], named: &str) {
    let out = Command::new(bin).args(args).output().expect("run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    assert!(err.contains(named), "{bin} {args:?}: {err}");
}

#[test]
fn every_binary_refuses_an_unknown_flag() {
    for bin in BINARIES {
        assert_refused(bin, &["--frobnicate"], "\"--frobnicate\"");
    }
}

/// `--quick` was a second protocol; every experiment now runs the
/// paper's only.
#[test]
fn a_stale_quick_flag_is_refused() {
    assert_refused(env!("CARGO_BIN_EXE_table3"), &["--quick"], "\"--quick\"");
}

/// `fleet` picks its tier with `--smoke`, `--bench` or `--bench-1m`
/// only; there is no `--tier`.
#[test]
fn a_tier_flag_is_refused() {
    assert_refused(
        env!("CARGO_BIN_EXE_fleet"),
        &["--tier", "smoke"],
        "\"--tier\"",
    );
}

/// The binaries that take flags refuse one given twice.
#[test]
fn a_repeated_flag_is_refused() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_chaos"), &["--trace", "--trace"][..]),
        (env!("CARGO_BIN_EXE_fleet"), &["--seed", "1", "--seed", "2"]),
        (
            env!("CARGO_BIN_EXE_traces"),
            &["--app", "WeChat", "--app", "VidCon"],
        ),
    ] {
        assert_refused(bin, args, "given more than once");
    }
}
