//! The one command-line parser every subcommand shares (std only).
//!
//! A subcommand declares the flags it accepts as a spec string and how
//! many positional arguments it takes; [`Args::parse`] checks the
//! command line against that spec, so an unknown or repeated flag, a
//! missing value or a surplus positional is a usage error (exit 2),
//! never ignored.
//! Typed accessors then turn values into numbers, machines and kernels,
//! again as usage errors when they do not parse.

use std::process::ExitCode;
use std::str::FromStr;

use csched_kernels::Workload;
use csched_machine::{imagine, Architecture};

/// Why a subcommand stopped before finishing normally.
#[derive(Debug)]
pub enum CliError {
    /// `--help` / `-h`: print the usage text to stdout and exit 0.
    Help,
    /// A bad command line: exit 2 with the message and the usage text.
    Usage(String),
    /// A failure after the command line was accepted: exit with `code`
    /// after printing the message (if any) to stderr.
    Exit(u8, String),
}

impl CliError {
    /// A usage error.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    /// A post-parse failure exiting with `code`.
    pub fn exit(code: u8, message: impl std::fmt::Display) -> Self {
        CliError::Exit(code, message.to_string())
    }
}

/// What a subcommand returns: its exit code, or why it stopped.
pub type Outcome = Result<ExitCode, CliError>;

/// A command line checked against a subcommand's flag table.
pub struct Args {
    /// Every flag occurrence, in command-line order, with its values.
    found: Vec<(String, Vec<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (the arguments after the subcommand name) against
    /// the flag `spec`, accepting at most `max_positionals` positional
    /// arguments. Anything starting with `-` is a flag.
    ///
    /// `spec` lists the accepted flags, separated by spaces: `--json` is
    /// a switch, `--jobs=1` takes one value, `--cell=2` takes two, and a
    /// trailing `+` (`--cell=2+`) lets the flag repeat.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Usage`] on an
    /// unknown or repeated flag, a missing value, or a surplus
    /// positional.
    pub fn parse(argv: &[String], spec: &str, max_positionals: usize) -> Result<Args, CliError> {
        let mut args = Args {
            found: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            if !arg.starts_with('-') {
                if args.positionals.len() == max_positionals {
                    return Err(CliError::usage(format!("unexpected argument {arg:?}")));
                }
                args.positionals.push(arg.clone());
                continue;
            }
            let arity = spec
                .split_whitespace()
                .find_map(|flag| match flag.split_once('=') {
                    Some((name, arity)) => (name == arg).then_some(arity),
                    None => (flag == arg).then_some("0"),
                })
                .ok_or_else(|| CliError::usage(format!("unknown flag {arg}")))?;
            let repeat = arity.ends_with('+');
            if !repeat && args.has(arg) {
                return Err(CliError::usage(format!("{arg} given twice")));
            }
            let arity: usize = arity.trim_end_matches('+').parse().unwrap_or(0);
            let values: Vec<String> = rest
                .by_ref()
                .take(arity)
                .take_while(|v| !v.starts_with("--"))
                .cloned()
                .collect();
            if values.len() < arity {
                let plural = if arity == 1 { "" } else { "s" };
                return Err(CliError::usage(format!(
                    "{arg} needs {arity} value{plural}"
                )));
            }
            args.found.push((arg.clone(), values));
        }
        Ok(args)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.found.iter().any(|(name, _)| *name == flag)
    }

    /// The value of a one-value `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.found
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, values)| values.first())
            .map(String::as_str)
    }

    /// The values of every occurrence of a multi-value `flag`, in
    /// command-line order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a [String]> + 'a {
        self.found
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, values)| values.as_slice())
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The number given to `flag`, if any.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse as a `T`.
    pub fn num_opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("{flag}: not a number: {v}")))
            })
            .transpose()
    }

    /// The number given to `flag`, or `default`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse as a `T`.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.num_opt(flag)?.unwrap_or(default))
    }
}

/// The machine names [`machine`] accepts, for usage text.
const MACHINES: &str =
    "central | clustered2 | clustered4 | distributed | central-xN | distributed-xN";

/// The largest scale factor `central-xN` / `distributed-xN` accepts
/// (the §8 projection's 96 arithmetic units).
const MAX_SCALE: usize = 8;

/// Resolves an Imagine machine name: the four paper organisations, or a
/// scaled central/distributed machine named as its constructor names it
/// (`imagine-distributed-x2` is `distributed-x2`), for N in 2..=8.
///
/// # Errors
///
/// [`CliError::Usage`] naming the accepted machines.
pub fn machine(name: &str) -> Result<Architecture, CliError> {
    let scaled = |prefix: &str| {
        name.strip_prefix(prefix)
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| (2..=MAX_SCALE).contains(n))
    };
    match name {
        "central" => Ok(imagine::central()),
        "clustered2" => Ok(imagine::clustered(2)),
        "clustered4" => Ok(imagine::clustered(4)),
        "distributed" => Ok(imagine::distributed()),
        _ => {
            if let Some(n) = scaled("central-x") {
                Ok(imagine::central_scaled(n))
            } else if let Some(n) = scaled("distributed-x") {
                Ok(imagine::distributed_scaled(n))
            } else {
                Err(CliError::usage(format!(
                    "unknown machine {name:?} (want {MACHINES}; N in 2..={MAX_SCALE})"
                )))
            }
        }
    }
}

/// Resolves a comma-separated list of machine names.
///
/// # Errors
///
/// As [`machine`], for the first unknown name.
pub fn machines(list: &str) -> Result<Vec<Architecture>, CliError> {
    list.split(',').map(machine).collect()
}

/// Resolves a Table 1 kernel name (case-insensitive).
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown name.
pub fn kernel(name: &str) -> Result<Workload, CliError> {
    csched_kernels::by_name(name).ok_or_else(|| CliError::usage(format!("unknown kernel {name:?}")))
}

/// Resolves a comma-separated list of kernel names.
///
/// # Errors
///
/// As [`kernel`], for the first unknown name.
pub fn kernels(list: &str) -> Result<Vec<Workload>, CliError> {
    list.split(',').map(kernel).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, positionals: usize) -> Result<Args, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv, "--json --jobs=1 --cell=2+", positionals)
    }

    #[test]
    fn accepts_every_kind_of_argument() {
        let args = parse(
            "FFT --cell Merge central --json --jobs 2 --cell Sort distributed",
            1,
        )
        .unwrap();
        assert!(args.has("--json"));
        assert_eq!(args.num::<usize>("--jobs", 1).unwrap(), 2);
        let cells: Vec<&[String]> = args.all("--cell").collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1], ["Sort", "distributed"]);
        assert_eq!(args.positionals(), ["FFT"]);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for (line, positionals) in [
            ("--jsno", 0),
            ("--jobs", 0),
            ("--jobs --json", 0),
            ("--json --json", 0),
            ("--cell Merge", 0),
            ("FFT", 0),
            ("-x", 0),
        ] {
            assert!(
                matches!(parse(line, positionals), Err(CliError::Usage(_))),
                "{line}"
            );
        }
        let args = parse("--jobs x", 0).unwrap();
        assert!(matches!(
            args.num::<usize>("--jobs", 1),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse("--json -h", 0), Err(CliError::Help)));
    }

    #[test]
    fn machine_names_follow_the_constructors() {
        for (name, arch) in [
            ("central", "imagine-central"),
            ("clustered2", "imagine-clustered-2"),
            ("clustered4", "imagine-clustered-4"),
            ("distributed", "imagine-distributed"),
            ("central-x2", "imagine-central-x2"),
            ("distributed-x4", "imagine-distributed-x4"),
            ("distributed-x8", "imagine-distributed-x8"),
        ] {
            assert_eq!(machine(name).unwrap().name(), arch);
        }
        for bad in [
            "foo",
            "clustered",
            "central-x1",
            "central-x9",
            "distributed-x",
            "toy",
        ] {
            assert!(machine(bad).is_err(), "{bad}");
        }
    }
}
