//! The oracle stage: the heuristic-versus-exact gap pass over the cells
//! whose kernel is one of [`crate::cells::ORACLE_KERNELS`], every cell under the same
//! exact step budget, so some cells are decided and some are not. Each
//! cell builds its machine afresh, as the gap pass over a design space
//! does.

use std::collections::BTreeMap;
use std::time::Instant;

use csched::core::{
    certify_min_ii, schedule_kernel_budgeted, ConnCache, SchedulerConfig, StepBudget,
};
use csched::eval::{measure_gap_cell, GapConfig, GapRecord};
use csched::kernels::Workload;

use crate::cells::{Cells, Recipe};
use crate::host::{rescale, HostSpeed};
use crate::stats::{median, secs, Report};
use crate::trace::Tracer;

/// Oracle cells per round, at least: a workload with fewer oracle cells
/// runs its oracle pass more than once a round, so that the stage's
/// time has as many samples as the others'.
pub const MIN_CELLS_PER_ROUND: usize = 36;

/// Oracle passes per round for `cells` oracle cells.
pub fn passes_per_round(cells: usize) -> usize {
    MIN_CELLS_PER_ROUND.div_ceil(cells.max(1))
}

/// Oracle nodes per cell; at this budget about a third of the cells are
/// decided.
pub const EXACT_STEPS: u64 = 200_000;

pub fn gap_config() -> GapConfig {
    GapConfig {
        exact_step_limit: EXACT_STEPS,
        ..GapConfig::default()
    }
}

/// One cell's verdict, reduced to what must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub status: String,
    pub heuristic_ii: Option<u64>,
    pub exact_ii: Option<u64>,
    pub nodes: u64,
}

impl From<&GapRecord> for Verdict {
    fn from(r: &GapRecord) -> Self {
        Verdict {
            status: r.status.clone(),
            heuristic_ii: r.heuristic_ii,
            exact_ii: r.exact_ii,
            nodes: r.nodes,
        }
    }
}

impl Verdict {
    pub fn decided(&self) -> bool {
        self.status == "certified" || self.status == "infeasible"
    }
}

/// A cell fails when the oracle errs or contradicts the heuristic, or
/// certifies an II above the heuristic's.
fn check(v: &Verdict) -> Result<(), String> {
    if v.status == "disagreement" || v.status == "error" {
        return Err(v.status.clone());
    }
    match (v.exact_ii, v.heuristic_ii) {
        (Some(x), Some(h)) if x > h => Err(format!("certified II {x} above heuristic II {h}")),
        _ => Ok(()),
    }
}

/// One untraced cell: build the machine, then the gap pass.
fn plain_cell(recipe: &Recipe, w: &Workload, cfg: &GapConfig) -> Result<Verdict, String> {
    let arch = recipe.build()?;
    std::hint::black_box(arch.fingerprint());
    Ok(Verdict::from(&measure_gap_cell(&arch, &w.kernel, cfg)))
}

/// One traced cell: the calls `measure_gap_cell` makes, each in a span,
/// giving the same verdict.
fn traced_cell(
    t: &mut Tracer,
    recipe: &Recipe,
    w: &Workload,
    cfg: &GapConfig,
) -> Result<Verdict, String> {
    let (arch, _) = t.span("build", || {
        let arch = recipe.build();
        if let Ok(a) = &arch {
            std::hint::black_box(a.fingerprint());
        }
        arch
    });
    let arch = arch?;
    t.span("prepare", || std::hint::black_box(ConnCache::new(&arch)));
    let (heuristic, _) = t.span("heuristic", || {
        let budget = StepBudget::new(cfg.heuristic_step_limit);
        schedule_kernel_budgeted(&arch, &w.kernel, SchedulerConfig::default(), &budget)
    });
    let (exact, _) = t.span("exact", || {
        certify_min_ii(
            &arch,
            &w.kernel,
            &cfg.exact,
            &StepBudget::new(cfg.exact_step_limit),
        )
    });
    let exact = exact.map_err(|e| format!("oracle: {e}"))?;
    let heuristic_ii = heuristic.ok().map(|s| u64::from(s.ii().unwrap_or(0)));
    let exact_ii = exact.verdict.certified_ii().map(u64::from);
    let status = match (exact_ii, heuristic_ii) {
        (Some(x), Some(h)) if x > h => "disagreement",
        _ => exact.verdict.name(),
    };
    Ok(Verdict {
        status: status.to_string(),
        heuristic_ii,
        exact_ii,
        nodes: exact.nodes(),
    })
}

pub struct Pass {
    pub wall_s: f64,
    /// One verdict per oracle cell, in visiting order.
    pub verdicts: Vec<Result<Verdict, String>>,
    pub layers: BTreeMap<&'static str, f64>,
    /// The host-speed factor of this pass alone.
    pub factor: f64,
}

pub fn pass(
    cells: &Cells,
    cfg: &GapConfig,
    host: &mut HostSpeed,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mark = tracer.as_ref().map_or(0, |t| t.len());
    let host_mark = host.mark();
    let mut reference_s = 0.0;
    let start = Instant::now();
    let verdicts = cells
        .oracle_order()
        .into_iter()
        .map(|(wi, mi)| {
            let (recipe, w) = (&cells.machines[mi].recipe, &cells.workloads[wi]);
            reference_s += host.sample();
            let v = match tracer.as_deref_mut() {
                Some(t) => {
                    t.set_run((wi * cells.machines.len() + mi) as u64);
                    let cell = t.begin("oracle");
                    let v = traced_cell(t, recipe, w, cfg);
                    t.end(cell);
                    v
                }
                None => plain_cell(recipe, w, cfg),
            };
            v.and_then(|v| check(&v).map(|()| v))
                .map_err(|e| format!("oracle: {}: {e}", cells.name((wi, mi))))
        })
        .collect();
    let layers = tracer.map(|t| t.self_secs(mark)).unwrap_or_default();
    // Left out of the pass's time: the host-speed reference, and in
    // traced passes the separate connectivity cache, which the untraced
    // pass does not build.
    let prepare_s = layers.get("prepare").copied().unwrap_or(0.0);
    Pass {
        wall_s: secs(start.elapsed()) - reference_s - prepare_s,
        verdicts,
        layers,
        factor: host.factor_since(host_mark),
    }
}

/// The end-to-end metrics: the stage's time, the oracle's search work
/// and the share of cells it decides.
pub fn report_plain(report: &mut Report, host: &HostSpeed, plain: &[&Pass], verdicts: &[Verdict]) {
    let decided = verdicts.iter().filter(|v| v.decided()).count();
    report.push(
        "oracle_s",
        median(
            &plain
                .iter()
                .map(|p| rescale(p.wall_s, p.factor, host))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    report.push(
        "oracle_nodes",
        verdicts.iter().map(|v| v.nodes).sum::<u64>() as f64,
        "count",
    );
    report.push(
        "decided_share",
        decided as f64 / verdicts.len().max(1) as f64,
        "share",
    );
}

/// The per-layer metrics of the traced passes.
pub fn report_traced(
    report: &mut Report,
    host: &HostSpeed,
    traced: &[&Pass],
    verdicts: &[Verdict],
) {
    let layer = |name: &str| {
        median(
            &traced
                .iter()
                .map(|p| rescale(p.layers.get(name).copied().unwrap_or(0.0), p.factor, host))
                .collect::<Vec<_>>(),
        )
    };
    let count = |status: &str| verdicts.iter().filter(|v| v.status == status).count() as f64;
    let nodes: u64 = verdicts.iter().map(|v| v.nodes).sum();
    for name in ["build", "prepare", "heuristic", "exact"] {
        report.push(format!("oracle.{name}.ms"), layer(name) * 1e3, "ms");
    }
    report.push(
        "oracle.exact.nodes_per_s",
        nodes as f64 / layer("exact"),
        "1/s",
    );
    report.push("oracle.exact.certified", count("certified"), "count");
    report.push("oracle.exact.gap_unknown", count("gap_unknown"), "count");
}
