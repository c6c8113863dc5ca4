//! `csched` — the one command of the evaluation harness.
//!
//! Usage: `csched <subcommand> [args]`; `csched <subcommand> --help`
//! prints a subcommand's usage. Every subcommand parses its arguments
//! with the shared [`args`] helper: an unknown flag, a malformed number
//! or an unknown machine or kernel exits 2 with a usage line.
//!
//! | subcommand | what it does |
//! |---|---|
//! | `report` | every table and figure of the paper in one run |
//! | `table1` | Table 1, kernel self-checks, metrics and campaign JSON |
//! | `one-cell` | one kernel on one machine, with diagnostics |
//! | `explain` | the binding constraint behind one cell's II |
//! | `ablation` | the §4.4/§4.6 design-choice ablation table |
//! | `bench` | the perf-regression bench: measure or compare |
//! | `chaos` | a seeded multi-fault chaos campaign |
//! | `explore` | the design-space search and its Pareto frontier |
//! | `oracle` | the exact oracle's optimality-gap report |
//! | `serve` | the scheduler service and its client |
//! | `dash` | a live terminal dashboard for `serve` |
//! | `soak` | the chaos soak of `serve` through a faulty proxy |

// Every subcommand reports typed failures through `CliError`; none may
// panic its way out.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::process::ExitCode;

use args::{CliError, Outcome};

// Every subcommand writes its stdout through these two macros, which
// shadow the standard ones for the whole crate: when the reader of
// stdout has gone away (`csched table1 --metrics-json | head -c 100`),
// the command ends quietly with exit 0 instead of panicking.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}
macro_rules! println {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A closed pipe ends the process with exit 0 — the
/// reader took what it wanted; any other write error ends it with
/// exit 1 and a message on stderr.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("csched: writing to stdout: {e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
}

mod ablation;
mod args;
mod bench;
mod chaos;
mod dash;
mod explain;
mod explore;
mod one_cell;
mod oracle;
mod report;
mod serve;
mod soak;
mod table1;

/// Every subcommand: its name, usage text and entry point.
type Command = (&'static str, &'static str, fn(&[String]) -> Outcome);

const COMMANDS: &[Command] = &[
    ("report", report::USAGE, report::run),
    ("table1", table1::USAGE, table1::run),
    ("one-cell", one_cell::USAGE, one_cell::run),
    ("explain", explain::USAGE, explain::run),
    ("ablation", ablation::USAGE, ablation::run),
    ("bench", bench::USAGE, bench::run),
    ("chaos", chaos::USAGE, chaos::run),
    ("explore", explore::USAGE, explore::run),
    ("oracle", oracle::USAGE, oracle::run),
    ("serve", serve::USAGE, serve::run),
    ("dash", dash::USAGE, dash::run),
    ("soak", soak::USAGE, soak::run),
];

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    format!(
        "usage: csched <subcommand> [args]  (csched <subcommand> --help for its flags)\n\
         subcommands: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if name == "--help" || name == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(name, usage_text, run)) = COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("csched: unknown subcommand {name:?}\n{}", usage());
        return ExitCode::from(2);
    };
    match run(&argv[1..]) {
        Ok(code) => code,
        Err(CliError::Help) => {
            println!("{usage_text}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(message)) => {
            eprintln!("csched {name}: {message}\n{usage_text}");
            ExitCode::from(2)
        }
        Err(CliError::Exit(code, message)) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            ExitCode::from(code)
        }
    }
}
