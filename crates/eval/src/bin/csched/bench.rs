//! `csched bench`: the perf-regression bench. Measures a kernel×machine
//! grid into a `BENCH_<label>.json`, or diffs two such files.
//!
//! Generate: `csched bench [--label L] [--reps N] [--kernels FFT,Merge]
//! [--archs central,distributed] [--out PATH] [--jobs N]`. `--archs`
//! takes any machine name, the scaled `central-xN` / `distributed-xN`
//! included, so the same report covers the machines of the §8 scaling
//! projection. `--jobs` parallelises the sweep (deterministic fields
//! unchanged; timings get noisier under contention, so keep baselines
//! at 1).
//!
//! Compare: `csched bench --compare BASELINE CURRENT
//! [--time-tolerance 2.0] [--strict-time]`. Deterministic fields (ok,
//! II, copies, attempts) are compared exactly — any drift exits 1. Wall
//! clock is advisory unless `--strict-time`, because the committed
//! baseline was measured on other hardware.
//!
//! Exit codes: 0 clean, 1 regression or failed cell, 2 usage or I/O
//! error.

use std::process::ExitCode;

use csched_core::SchedulerConfig;
use csched_eval::bench;

use crate::args::{self, Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched bench [--label L] [--reps N] [--kernels A,B,...] \
[--archs M,N,...] [--out PATH] [--jobs N]
       csched bench --compare BASELINE CURRENT [--time-tolerance X] [--strict-time]";

const FLAGS: &str = "--label=1 --reps=1 --kernels=1 --archs=1 --out=1 --jobs=1 --compare=2 \
    --time-tolerance=1 --strict-time";

/// Flags of one mode that the other mode does not take.
const GENERATE_ONLY: [&str; 6] = [
    "--label",
    "--reps",
    "--kernels",
    "--archs",
    "--out",
    "--jobs",
];
const COMPARE_ONLY: [&str; 2] = ["--time-tolerance", "--strict-time"];

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 0)?;
    let (mode, stray) = match args.all("--compare").next() {
        Some(paths) => (Some(paths), GENERATE_ONLY.as_slice()),
        None => (None, COMPARE_ONLY.as_slice()),
    };
    if let Some(flag) = stray.iter().find(|f| args.has(f)) {
        return Err(CliError::usage(format!(
            "{flag} does not apply {} --compare",
            if mode.is_some() { "with" } else { "without" }
        )));
    }
    match mode {
        Some([base_path, cur_path]) => compare(&args, base_path, cur_path),
        _ => generate(&args),
    }
}

fn compare(args: &Args, base_path: &str, cur_path: &str) -> Outcome {
    let tolerance: f64 = args.num("--time-tolerance", 2.0)?;
    let read = |path: &str| -> Result<bench::BenchReport, CliError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::exit(2, format!("{path}: {e}")))?;
        bench::parse_bench_json(&text).map_err(|e| CliError::exit(2, format!("{path}: {e}")))
    };
    let baseline = read(base_path)?;
    let current = read(cur_path)?;
    let outcome = bench::compare(&baseline, &current, tolerance);
    print!("{}", outcome.render());
    let failed = !outcome.failures.is_empty()
        || (args.has("--strict-time") && !outcome.advisories.is_empty());
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn generate(args: &Args) -> Outcome {
    let label = args.value("--label").unwrap_or("local");
    let reps: u32 = args.num("--reps", 3)?;
    let workloads = match args.value("--kernels") {
        Some(list) => args::kernels(list)?,
        None => csched_kernels::all(),
    };
    let archs = match args.value("--archs") {
        Some(list) => args::machines(list)?,
        None => csched_machine::imagine::all_variants(),
    };
    let out_path = args
        .value("--out")
        .map_or_else(|| format!("BENCH_{label}.json"), String::from);
    let jobs: usize = args.num("--jobs", 1)?;

    let kernels: Vec<&csched_ir::Kernel> = workloads.iter().map(|w| &w.kernel).collect();
    let report = bench::run_bench_jobs(
        label,
        reps,
        &kernels,
        &archs,
        &SchedulerConfig::default(),
        jobs,
    );
    std::fs::write(&out_path, bench::bench_json(&report))
        .map_err(|e| CliError::exit(2, format!("{out_path}: {e}")))?;
    let bad = report.cells.iter().filter(|c| !c.ok).count();
    eprintln!(
        "wrote {out_path}: {} cells ({} failed), best-of-{reps} timings",
        report.cells.len(),
        bad
    );
    Ok(if bad > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
