//! `csched report`: every table and figure of the paper in one run —
//! Table 1, the Figures 25–27 cost bars, Figures 28 and 29, the §1/§8
//! headline ratios and the §8 scaling projection at 12–96 arithmetic
//! units. `--csv` appends machine-readable blocks for plotting.
//!
//! `--campaign` (implied by `--journal`/`--resume`) switches the grid to
//! crash-consistent campaign mode: every cell runs under a hard
//! placement-attempt budget with per-cell isolation, completed cells are
//! checkpointed to `--journal`, and `--resume` replays a previous journal
//! so an interrupted evaluation picks up where it stopped and produces
//! the identical report. Campaign mode skips simulation (figures need
//! only the journaled IIs) and exits 1 if any cell Failed or TimedOut.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use csched_core::SchedulerConfig;
use csched_eval::campaign::{self, CellStatus, Journal};
use csched_eval::{costs, grid, report};
use csched_ir::Kernel;

use crate::args::{Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched report [--no-sim] [--csv] [--campaign] \
[--journal PATH] [--resume PATH] [--step-limit N]";

const FLAGS: &str = "--no-sim --csv --campaign --journal=1 --resume=1 --step-limit=1";

/// The §8 projection's scale factors: 12, 24, 48 and 96 arithmetic units.
const SCALES: [usize; 4] = [1, 2, 4, 8];

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 0)?;
    let journal_path = args.value("--journal").map(Path::new);
    let resume_path = args.value("--resume").map(Path::new);
    let campaign_mode = args.has("--campaign") || journal_path.is_some() || resume_path.is_some();
    let step_limit: u64 = args.num("--step-limit", 1_000_000)?;

    let workloads = csched_kernels::all();
    println!("{}", report::table1(&workloads));

    let cost_err = |e| CliError::exit(1, format!("cost model: {e}"));
    let rows = costs::figures_25_27().map_err(cost_err)?;
    let headline = costs::headline().map_err(cost_err)?;
    println!("{}", report::figures_25_27(&rows));

    let archs = csched_machine::imagine::all_variants();
    let config = SchedulerConfig::default();
    let start = std::time::Instant::now();

    let (grid, bad_cells) = if campaign_mode {
        let kernels: Vec<(&str, &Kernel)> = workloads
            .iter()
            .map(|w| (w.kernel.name(), &w.kernel))
            .collect();
        let resume = match resume_path {
            Some(p) => Journal::load(p).map_err(|e| CliError::exit(2, e))?,
            None => HashMap::new(),
        };
        let mut journal = journal_path
            .map(Journal::open)
            .transpose()
            .map_err(|e| CliError::exit(2, e))?;
        let result = campaign::run_campaign(
            &kernels,
            &archs,
            &config,
            step_limit,
            journal.as_mut(),
            &resume,
        )
        .map_err(|e| CliError::exit(2, e))?;
        eprintln!(
            "(campaign: {} cells, {} resumed, scheduled in {:.1?})",
            result.records.len(),
            result.resumed,
            start.elapsed()
        );
        let arch_names: Vec<String> = archs.iter().map(|a| a.name().to_string()).collect();
        let grid = campaign::grid_from_records(&result.records, &arch_names);
        let bad: Vec<String> = result
            .records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::Failed | CellStatus::TimedOut))
            .map(|r| {
                format!(
                    "{} on {}: {}: {}",
                    r.kernel,
                    r.arch,
                    r.status.name(),
                    r.detail
                )
            })
            .collect();
        (grid, bad)
    } else {
        let grid = grid::run_grid(&workloads, &archs, &config, !args.has("--no-sim"))
            .map_err(|e| CliError::exit(1, format!("evaluation failed: {e}")))?;
        eprintln!("(grid scheduled in {:.1?})", start.elapsed());
        (grid, Vec::new())
    };

    if !grid.rows.is_empty() {
        println!("{}", report::figure28(&grid));
        println!("{}", report::figure29(&grid));
        println!("{}", report::headline(&headline, Some(&grid)));
    } else {
        println!("{}", report::headline(&headline, None));
    }
    println!("{}", report::scaling(&costs::scaling(&SCALES)));

    if args.has("--csv") {
        println!("--- grid.csv ---");
        print!("{}", report::grid_csv(&grid));
        println!("--- cost.csv ---");
        print!("{}", report::cost_csv(&rows));
    }

    if !bad_cells.is_empty() {
        for line in &bad_cells {
            eprintln!("bad cell: {line}");
        }
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}
