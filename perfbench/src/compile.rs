//! The compile stage: every cell, one thread. Each cell schedules,
//! validates, analyses register pressure, explains the binding
//! constraint, computes the schedule metrics and simulates the result
//! against the scalar reference.

use std::collections::BTreeMap;
use std::time::Instant;

use csched::core::SchedulerConfig;
use csched::core::{explain, regalloc, schedule_kernel, validate, ConnCache, ScheduleMetrics};
use csched::kernels::Workload;
use csched::machine::Architecture;

use crate::cells::Cells;
use crate::host::{rescale, HostSpeed};
use crate::stats::{geomean, median, secs, Report};
use crate::trace::{within, Tracer};

/// The deterministic outputs of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    pub cycles: u64,
    pub copies: u64,
    pub attempts: u64,
    pub registers: u64,
    pub overflow: bool,
}

/// Runs one cell; `Err` names the check that failed.
pub fn run_cell(
    w: &Workload,
    arch: &Architecture,
    mut tracer: Option<&mut Tracer>,
) -> Result<CellResult, String> {
    let cell = format!("{} on {}", w.kernel.name(), arch.name());
    let config = SchedulerConfig::default();
    let schedule = within(tracer.as_deref_mut(), "schedule", || {
        schedule_kernel(arch, &w.kernel, config)
    })
    .map_err(|e| format!("{cell}: {e}"))?;
    within(tracer.as_deref_mut(), "validate", || {
        validate::validate(arch, &w.kernel, &schedule)
    })
    .map_err(|e| format!("{cell}: invalid schedule: {e:?}"))?;
    let pressure = within(tracer.as_deref_mut(), "regalloc", || {
        regalloc::analyze(arch, &w.kernel, &schedule)
    });
    within(tracer.as_deref_mut(), "explain", || {
        std::hint::black_box(explain(arch, &w.kernel, &schedule));
    });
    within(tracer.as_deref_mut(), "metrics", || {
        std::hint::black_box(ScheduleMetrics::compute(arch, &w.kernel, &schedule));
    });
    let sim = within(tracer, "simulate", || {
        let mut mem = w.memory();
        let sim = csched::sim::execute(&w.kernel, &schedule, &mut mem, w.trip)
            .map_err(|e| e.to_string())?;
        w.verify(&mem).map(|()| sim)
    })
    .map_err(|e| format!("{cell}: simulation: {e}"))?;
    Ok(CellResult {
        cycles: sim.cycles,
        copies: schedule.num_copies() as u64,
        attempts: schedule.stats().attempts,
        registers: pressure.max_required() as u64,
        overflow: !pressure.fits(),
    })
}

/// One compile pass over every cell.
pub struct Pass {
    pub wall_s: f64,
    /// One result per cell, in visiting order.
    pub results: Vec<Result<CellResult, String>>,
    /// Traced passes only: self seconds per layer, and each cell's
    /// schedule seconds in visiting order.
    pub layers: BTreeMap<&'static str, f64>,
    pub schedule_s: Vec<f64>,
    /// The host-speed factor of this pass alone.
    pub factor: f64,
}

pub fn pass(cells: &Cells, host: &mut HostSpeed, mut tracer: Option<&mut Tracer>) -> Pass {
    let mark = tracer.as_ref().map_or(0, |t| t.len());
    let host_mark = host.mark();
    let mut schedule_s = Vec::new();
    // Left out of the pass's time: the host-speed reference, and in
    // traced passes the separate connectivity cache, which the untraced
    // pass does not build.
    let mut extra_s = 0.0;
    let start = Instant::now();
    let results = cells
        .order
        .iter()
        .map(|&(wi, mi)| {
            let (w, arch) = (&cells.workloads[wi], &cells.machines[mi].arch);
            extra_s += host.sample();
            let Some(t) = tracer.as_deref_mut() else {
                return run_cell(w, arch, None);
            };
            t.set_run((wi * cells.machines.len() + mi) as u64);
            let cell = t.begin("compile");
            // The scheduler builds its own connectivity cache; a second
            // one beside it times that layer.
            let (_, prep) = t.span("prepare", || std::hint::black_box(ConnCache::new(arch)));
            extra_s += prep;
            let before = t.len();
            let result = run_cell(w, arch, Some(t));
            t.end(cell);
            schedule_s.push(t.self_secs(before).get("schedule").copied().unwrap_or(0.0));
            result
        })
        .collect();
    let wall_s = secs(start.elapsed()) - extra_s;
    let layers = tracer.map(|t| t.self_secs(mark)).unwrap_or_default();
    Pass {
        wall_s,
        results,
        layers,
        schedule_s,
        factor: host.factor_since(host_mark),
    }
}

/// The end-to-end metrics: the stage's time, and the quality and search
/// work of its schedules.
pub fn report_plain(
    report: &mut Report,
    host: &HostSpeed,
    plain: &[&Pass],
    results: &[CellResult],
) {
    let cycles: Vec<f64> = results.iter().map(|r| r.cycles as f64).collect();
    // A kernel needs at least one register; the floor keeps the mean
    // defined for any result.
    let registers: Vec<f64> = results.iter().map(|r| r.registers.max(1) as f64).collect();
    report.push(
        "compile_s",
        median(
            &plain
                .iter()
                .map(|p| rescale(p.wall_s, p.factor, host))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    report.push("code_cycles_geomean", geomean(&cycles), "cycles");
    report.push(
        "copies",
        results.iter().map(|r| r.copies).sum::<u64>() as f64,
        "count",
    );
    report.push("registers_geomean", geomean(&registers), "registers");
    report.push(
        "search_steps",
        results.iter().map(|r| r.attempts).sum::<u64>() as f64,
        "count",
    );
}

/// How many of the slowest cells get a row of their own.
pub const SLOWEST: usize = 3;

/// The per-layer metrics of the traced passes.
pub fn report_traced(
    report: &mut Report,
    host: &HostSpeed,
    cells: &Cells,
    traced: &[&Pass],
    results: &[CellResult],
) {
    let layer = |name: &str| {
        median(
            &traced
                .iter()
                .map(|p| rescale(p.layers.get(name).copied().unwrap_or(0.0), p.factor, host))
                .collect::<Vec<_>>(),
        )
    };
    let attempts = results.iter().map(|r| r.attempts).sum::<u64>() as f64;
    for name in ["prepare", "schedule"] {
        report.push(format!("compile.{name}.ms"), layer(name) * 1e3, "ms");
    }
    report.push(
        "compile.schedule.attempts_per_s",
        attempts / layer("schedule"),
        "1/s",
    );
    // Each cell's schedule time is a median over the traced passes;
    // the slowest cells are ranked by it.
    let mut per_cell: Vec<(f64, usize)> = (0..cells.order.len())
        .map(|i| {
            let times: Vec<f64> = traced
                .iter()
                .map(|p| rescale(p.schedule_s[i], p.factor, host))
                .collect();
            (median(&times), i)
        })
        .collect();
    per_cell.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (rank, &(s, i)) in per_cell.iter().take(SLOWEST).enumerate() {
        eprintln!(
            "compile: slowest cell {}: {} ({:.1} ms)",
            rank + 1,
            cells.name(cells.order[i]),
            s * 1e3
        );
        report.push(format!("compile.slowest{}.ms", rank + 1), s * 1e3, "ms");
    }
    for name in ["validate", "regalloc", "explain", "metrics", "simulate"] {
        report.push(format!("compile.{name}.ms"), layer(name) * 1e3, "ms");
    }
    report.push(
        "compile.overflow_cells",
        results.iter().filter(|r| r.overflow).count() as f64,
        "count",
    );
}
