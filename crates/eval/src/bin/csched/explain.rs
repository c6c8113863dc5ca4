//! `csched explain`: bottleneck attribution for one kernel×architecture
//! cell. Names the constraint binding the achieved II (the recurrence
//! cycle setting RecMII, the unit saturating ResMII, or the transport
//! resource that forced the II past both), ranks resources by
//! occupancy, and prints counterfactual bounds.
//!
//! `--json` prints the attribution as one JSON object (stable field
//! order; the CI smoke step greps it). Exit codes: 0 ok, 1 scheduling
//! failed, 2 usage error.

use std::process::ExitCode;

use csched_core::{explain, schedule_kernel, SchedulerConfig};

use crate::args::{self, Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched explain <kernel> [machine] [--json]  \
(machine: central | clustered2 | clustered4 | distributed (default) | central-xN | distributed-xN)";

const FLAGS: &str = "--json";

pub fn run(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, FLAGS, 2)?;
    let [kernel_name, rest @ ..] = args.positionals() else {
        return Err(CliError::usage("needs a kernel name"));
    };
    let w = args::kernel(kernel_name)?;
    let arch = args::machine(rest.first().map_or("distributed", String::as_str))?;
    let s = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default()).map_err(|e| {
        CliError::exit(
            1,
            format!(
                "explain: scheduling {} on {} failed: {e}",
                w.kernel.name(),
                arch.name()
            ),
        )
    })?;
    let ex = explain::explain(&arch, &w.kernel, &s);
    if args.has("--json") {
        println!("{}", ex.to_json());
    } else {
        print!("{}", ex.render_text());
    }
    Ok(ExitCode::SUCCESS)
}
