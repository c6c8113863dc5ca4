//! The workload seed: one seed always gives the same inputs and the same
//! deterministic metrics; another seed gives another explore machine set.
//!
//! The runs schedule whole workloads, so run these with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use perfbench::cells::{self, Family};
use perfbench::serve;
use perfbench::stats::Report;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The end-to-end metrics that must repeat exactly.
const DETERMINISTIC: [&str; 6] = [
    "code_cycles_geomean",
    "copies",
    "registers_geomean",
    "search_steps",
    "oracle_nodes",
    "decided_share",
];

fn deterministic(report: &Report) -> Vec<(String, f64)> {
    let found: Vec<(String, f64)> = report
        .metrics
        .iter()
        .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value))
        .collect();
    assert_eq!(
        found.len(),
        DETERMINISTIC.len(),
        "missing metrics in {report:?}"
    );
    found
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the explore workload twice; run with --release"
)]
fn same_seed_repeats_deterministic_metrics() {
    let dir = workdir("explore");
    let runs: Vec<Vec<(String, f64)>> = (0..2)
        .map(|_| {
            let r = perfbench::run(Family::Explore, 7, 0.01, false, &dir).expect("explore runs");
            assert!(r.correct && r.failed == 0, "{r:?}");
            deterministic(&r)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn seed_selects_explore_machines() {
    let a = cells::explore_machines(7);
    assert_eq!(a, cells::explore_machines(7));
    let b = cells::explore_machines(8);
    assert_eq!(a.len(), b.len(), "one machine per stratum for every seed");
    assert_ne!(a, b, "another seed draws another machine set");
}

#[test]
fn seed_orders_the_cells_not_the_mix() {
    for family in Family::ALL {
        let a = cells::setup(family, 7).expect("cells");
        let b = cells::setup(family, 8).expect("cells");
        assert_eq!(a.order, cells::setup(family, 7).expect("cells").order);
        assert_ne!(a.order, b.order, "{family:?}");
        // Every seed sends each cell the same number of times.
        let n = a.order.len();
        let stream = serve::stream(n);
        assert_eq!(stream.len(), n * (1 + serve::warm_repeats(n)));
        assert!(stream.len() - n >= serve::WARM_HITS);
    }
}
