//! `csched ablation`: the §4.4/§4.6 design choices (operation order, the
//! communication-cost heuristic, closing-first stub search, the
//! permutation budget) on a subset of kernels across the distributed and
//! clustered(4) machines, as II (copies) per cell. Quality only; perfbench
//! times the scheduler.

use std::process::ExitCode;

use csched_core::{schedule_kernel, SchedulerConfig};

use crate::args::{self, Args, Outcome};

pub const USAGE: &str = "usage: csched ablation";

pub fn run(argv: &[String]) -> Outcome {
    Args::parse(argv, "", 0)?;
    let kernels = args::kernels("FFT,DCT,Sort,Merge,Block Warp")?;
    let archs = [
        csched_machine::imagine::distributed(),
        csched_machine::imagine::clustered(4),
    ];
    let configs: Vec<(&str, SchedulerConfig)> = vec![
        ("paper", SchedulerConfig::paper()),
        ("cycle-order", SchedulerConfig::cycle_order()),
        ("no-comm-cost", SchedulerConfig::without_comm_cost()),
        ("no-closing-first", SchedulerConfig::without_closing_first()),
        (
            "budget-8",
            SchedulerConfig {
                search_budget: 8,
                ..SchedulerConfig::default()
            },
        ),
    ];
    for arch in &archs {
        println!("=== {} : II (copies) ===", arch.name());
        print!("{:<18}", "config");
        for w in &kernels {
            print!("{:>14}", w.kernel.name());
        }
        println!();
        for (label, config) in &configs {
            print!("{label:<18}");
            for w in &kernels {
                match schedule_kernel(arch, &w.kernel, config.clone()) {
                    Ok(s) => print!(
                        "{:>14}",
                        format!("{} ({})", s.ii().unwrap_or(0), s.num_copies())
                    ),
                    Err(_) => print!("{:>14}", "fail"),
                }
            }
            println!();
        }
        println!();
    }
    Ok(ExitCode::SUCCESS)
}
