//! The `csched` command line: bad input exits 2 with a usage line before
//! any work starts, `--help` prints usage and exits 0, and a reader that
//! closes stdout early ends the command quietly.

use std::io::Read as _;
use std::process::{Command, Output, Stdio};

fn csched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csched"))
        .args(args)
        .output()
        .unwrap()
}

#[track_caller]
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = csched(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: csched"), "{args:?}: {stderr}");
    // Rejected before any work: nothing reaches stdout.
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn unknown_subcommand_exits_2() {
    assert_usage_error(&["figure28"], "unknown subcommand \"figure28\"");
    assert_usage_error(&[], "subcommands: report, table1,");
}

#[test]
fn unknown_flags_exit_2() {
    assert_usage_error(
        &["report", "--no-sim", "--campain"],
        "unknown flag --campain",
    );
    assert_usage_error(&["report", "--nosim"], "unknown flag --nosim");
    assert_usage_error(&["table1", "--metric-json"], "unknown flag --metric-json");
    assert_usage_error(
        &["soak", "--server-bin", "serve"],
        "unknown flag --server-bin",
    );
    assert_usage_error(
        &["serve", "--client", "127.0.0.1:1", "--durable"],
        "unknown flag --durable",
    );
    assert_usage_error(
        &["explain", "FFT", "distributed", "extra"],
        "unexpected argument",
    );
}

#[test]
fn malformed_values_exit_2() {
    assert_usage_error(&["table1", "--jobs", "x"], "--jobs: not a number: x");
    assert_usage_error(
        &["serve", "--addr", "127.0.0.1:0", "--jobs", "x"],
        "--jobs: not a number: x",
    );
    assert_usage_error(&["explore", "--seed", "-3"], "--seed: not a number: -3");
    assert_usage_error(&["report", "--journal"], "--journal needs 1 value");
    assert_usage_error(&["oracle", "--cell", "Merge"], "--cell needs 2 values");
    assert_usage_error(
        &["chaos", "--runs", "2", "--runs", "3"],
        "--runs given twice",
    );
}

#[test]
fn unknown_machines_and_kernels_exit_2() {
    assert_usage_error(
        &[
            "serve",
            "--client",
            "127.0.0.1:1",
            "--kernel",
            "FFT",
            "--arch",
            "foo",
        ],
        "unknown machine \"foo\"",
    );
    assert_usage_error(&["one-cell", "FFT", "foo"], "unknown machine \"foo\"");
    assert_usage_error(
        &["chaos", "--arch", "clustered"],
        "unknown machine \"clustered\"",
    );
    assert_usage_error(
        &["bench", "--archs", "central,distributed-x99"],
        "unknown machine",
    );
    assert_usage_error(
        &["oracle", "--cell", "Nope", "central"],
        "unknown kernel \"Nope\"",
    );
    assert_usage_error(
        &["explore", "--kernels", "Merge,Nope"],
        "unknown kernel \"Nope\"",
    );
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = csched(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "report", "table1", "one-cell", "explain", "ablation", "bench", "chaos", "explore",
        "oracle", "serve", "dash", "soak",
    ] {
        assert!(stdout.contains(sub), "{sub} missing from: {stdout}");
        let out = csched(&[sub, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{sub} --help");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.contains(&format!("csched {sub}")), "{sub}: {usage}");
    }
}

#[test]
fn chaos_takes_the_shared_machine_names() {
    for arch in ["clustered4", "toy"] {
        let out = csched(&[
            "chaos",
            "--arch",
            arch,
            "--seed",
            "1",
            "--runs",
            "1",
            "--kernels",
            "1",
            "--step-limit",
            "2000",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{arch}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    // About 420 KB of JSON: far past a 64 KiB pipe buffer, so the writer
    // is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_csched"))
        .args(["table1", "--metrics-json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).unwrap();
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
