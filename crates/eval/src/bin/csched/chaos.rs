//! `csched chaos`: a seeded multi-fault chaos campaign against the
//! scheduler.
//!
//! Draws `--runs` pseudo-random combinations of up to `--max-faults`
//! simultaneous resource faults (dead buses, ports, functional units),
//! schedules the first `--kernels` Table 1 workloads on each degraded
//! machine under a hard `--step-limit` placement-attempt budget, and
//! prints the campaign digest. The digest is a pure function of the
//! seed, machine, kernels, and configuration — rerunning with the same
//! arguments reproduces it byte for byte. `--arch` takes any Imagine
//! machine name, or `toy` for the motivating example's machine.
//!
//! Exits 0 when every run held the robustness contract (valid schedule,
//! typed rejection, or in-deadline stop — never a panic, never a budget
//! overrun), 1 otherwise. CI runs a tiny seeded campaign as a smoke
//! test.

use std::process::ExitCode;

use csched_core::faultinject::{chaos_campaign, render_chaos_campaign, ChaosConfig};
use csched_core::SchedulerConfig;
use csched_ir::Kernel;

use crate::args::{self, Args, Outcome};

pub const USAGE: &str = "usage: csched chaos [--seed N] [--runs N] [--max-faults N] \
[--step-limit N] [--arch toy | central | clustered2 | clustered4 | distributed | central-xN | \
distributed-xN] [--kernels N]";

const FLAGS: &str = "--seed=1 --runs=1 --max-faults=1 --step-limit=1 --arch=1 --kernels=1";

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 0)?;
    let defaults = ChaosConfig::default();
    let chaos = ChaosConfig {
        seed: args.num("--seed", defaults.seed)?,
        runs: args.num("--runs", defaults.runs)?,
        max_faults: args.num("--max-faults", defaults.max_faults)?,
        step_limit: args.num("--step-limit", defaults.step_limit)?,
    };
    let arch = match args.value("--arch") {
        Some("toy") => csched_machine::toy::motivating_example(),
        name => args::machine(name.unwrap_or("distributed"))?,
    };
    let kernel_count: usize = args.num("--kernels", 3)?;

    let workloads = csched_kernels::all();
    let kernels: Vec<(&str, &Kernel)> = workloads
        .iter()
        .take(kernel_count.max(1))
        .map(|w| (w.kernel.name(), &w.kernel))
        .collect();

    let entries = chaos_campaign(&arch, &kernels, &SchedulerConfig::default(), &chaos);
    print!("{}", render_chaos_campaign(&entries));

    let violations: Vec<_> = entries
        .iter()
        .filter(|e| !e.verdict.contract_held() || e.attempts_spent > e.step_limit)
        .collect();
    for v in &violations {
        eprintln!(
            "CONTRACT VIOLATION: run {} kernel {} faults {:?}: {:?}",
            v.run, v.kernel, v.fault_descs, v.verdict
        );
    }
    Ok(if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
