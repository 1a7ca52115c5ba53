//! The `tablegen` command line: a known artifact runs and exits 0; an
//! unknown subcommand is refused with a usage line instead of silently
//! running nothing.

use std::process::Command;

fn tablegen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tablegen"))
        .args(args)
        .output()
        .expect("tablegen starts")
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = tablegen(&["bogus"]);
    assert!(!out.status.success(), "tablegen bogus exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "no usage line: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran something: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn known_subcommand_runs() {
    let out = tablegen(&["table1"]);
    assert!(out.status.success(), "tablegen table1 failed: {out:?}");
    assert!(!out.stdout.is_empty(), "table1 printed nothing");
}
