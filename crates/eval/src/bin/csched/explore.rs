//! `csched explore`: design-space exploration. Searches architectures
//! around the paper's four machines and prints the Pareto frontier.
//!
//! Candidates are drawn from the default
//! [`csched_machine::gen::DesignSpace`] (enumerated when it fits inside
//! `--candidates`, sampled from `--seed` otherwise), the full Table 1
//! kernel suite is scheduled on each one under a shared placement-attempt
//! budget, and the four-objective Pareto frontier (harmonic-mean II,
//! register-file area, power, delay) is printed as a text table — or as
//! the full deterministic JSON report with `--json`, which is
//! byte-identical for every `--jobs` value and across `--resume`.
//!
//! `--journal` checkpoints completed cells; `--resume` replays a journal
//! so a killed sweep only recomputes unfinished candidates. Exit codes:
//! 0 on success, 2 on usage/journal errors.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use csched_eval::campaign::Journal;
use csched_eval::explore::{explore, ExploreConfig};
use csched_ir::Kernel;

use crate::args::{self, Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched explore [--candidates N] [--seed N] [--rounds N] \
[--step-limit N] [--jobs N] [--kernels A,B,...] [--no-anchors] [--json] \
[--journal PATH] [--resume PATH]";

const FLAGS: &str = "--candidates=1 --seed=1 --rounds=1 --step-limit=1 --jobs=1 --kernels=1 \
    --no-anchors --json --journal=1 --resume=1";

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 0)?;
    let config = ExploreConfig {
        candidates: args.num("--candidates", 24)?,
        seed: args.num("--seed", 0xC5C4ED)?,
        refine_rounds: args.num("--rounds", 1)?,
        step_limit: args.num("--step-limit", 1_000_000)?,
        anchors: !args.has("--no-anchors"),
        ..ExploreConfig::default()
    };
    let jobs: usize = args.num("--jobs", 1)?;

    let workloads = match args.value("--kernels") {
        Some(list) => args::kernels(list)?,
        None => csched_kernels::all(),
    };
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();

    let resume = match args.value("--resume") {
        Some(p) => Journal::load(Path::new(p)).map_err(|e| CliError::exit(2, e))?,
        None => HashMap::new(),
    };
    let mut journal = args
        .value("--journal")
        .map(|p| Journal::open(Path::new(p)))
        .transpose()
        .map_err(|e| CliError::exit(2, e))?;

    let start = std::time::Instant::now();
    let report = explore(&config, &kernels, jobs, journal.as_mut(), &resume)
        .map_err(|e| CliError::exit(2, e))?;
    // Timing and resume statistics go to stderr only: stdout must be a
    // pure function of the search, identical across --jobs and --resume.
    eprintln!(
        "(explored {} candidates, {} resumed, {} on frontier, jobs={jobs}, {:.1?})",
        report.candidates.len(),
        report.resumed,
        report.frontier.len(),
        start.elapsed()
    );

    if args.has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_frontier());
    }
    Ok(ExitCode::SUCCESS)
}
