//! `csched oracle`: the exact-scheduling oracle. Certifies minimum IIs
//! and reports the heuristic optimality gap.
//!
//! With no `--cell` flags the oracle sweeps the full paper grid (ten
//! Table 1 kernels × four Imagine register-file organisations) plus
//! `--explore-sample` seeded explore-family machines; each `--cell`
//! restricts the run to that kernel × machine pair. `--journal` appends
//! each finished cell to a JSONL journal as soon as it completes;
//! `--resume` replays completed cells from that journal so a killed run
//! recomputes nothing, and the report is byte-identical to an
//! uninterrupted one. Output is the `gap-v1` JSON report (or a
//! plain-text table with `--table`).
//!
//! Exit status: 0 on success (including `gap_unknown` cells — an
//! exhausted search budget is an answer, not an error), 1 when any cell
//! records a `disagreement` (the oracle certified a minimum II *above* a
//! validated heuristic schedule — a soundness bug), 2 on usage or
//! journal errors.

use std::path::Path;
use std::process::ExitCode;

use csched_eval::gap::{gap_json, gap_table, run_gap, run_gap_over, GapCell, GapConfig};

use crate::args::{self, Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched oracle [flags]
  --cell <kernel> <machine>  certify one cell (repeatable); machine is central |
                          clustered2 | clustered4 | distributed | central-xN |
                          distributed-xN
  --journal <path>        append each finished cell to a JSONL journal
  --resume                replay completed cells from --journal
  --exact-steps <n>       oracle step budget per cell (default 2000000)
  --heuristic-steps <n>   heuristic step budget per cell (default 400000)
  --max-ii <n>            oracle II search cap (default 128)
  --explore-sample <n>    seeded explore machines appended to the grid
  --seed <n>              explore subsample seed (default 2000)
  --table                 plain-text table instead of gap-v1 JSON
  --help                  this text
exit status: 0 ok, 1 soundness disagreement, 2 usage/journal error";

const FLAGS: &str = "--cell=2+ --journal=1 --resume --exact-steps=1 --heuristic-steps=1 \
    --max-ii=1 --explore-sample=1 --seed=1 --table";

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 0)?;
    let mut cfg = GapConfig::default();
    cfg.exact_step_limit = args.num("--exact-steps", cfg.exact_step_limit)?;
    cfg.heuristic_step_limit = args.num("--heuristic-steps", cfg.heuristic_step_limit)?;
    cfg.seed = args.num("--seed", cfg.seed)?;
    cfg.exact.max_ii = args.num("--max-ii", cfg.exact.max_ii)?;
    cfg.explore_sample = args.num("--explore-sample", cfg.explore_sample)?;

    let journal = args.value("--journal").map(Path::new);
    let resume = args.has("--resume");
    if resume && journal.is_none() {
        return Err(CliError::usage("--resume needs --journal"));
    }

    let mut cells: Vec<GapCell> = Vec::new();
    for cell in args.all("--cell") {
        let [kernel_name, arch_name] = cell else {
            return Err(CliError::usage("--cell needs <kernel> <machine>"));
        };
        cells.push(GapCell {
            arch: args::machine(arch_name)?,
            kernel: args::kernel(kernel_name)?.kernel,
        });
    }

    let report = if cells.is_empty() {
        run_gap(&cfg, journal, resume)
    } else {
        run_gap_over(&cells, &cfg, journal, resume)
    }
    .map_err(|e| CliError::exit(2, format!("oracle: {e}")))?;

    if args.has("--table") {
        print!("{}", gap_table(&report));
    } else {
        println!("{}", gap_json(&report));
    }
    for r in report.disagreements() {
        eprintln!(
            "oracle: SOUNDNESS DISAGREEMENT on {} x {}: {}",
            r.kernel, r.arch, r.detail
        );
    }
    Ok(if report.disagreements().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
