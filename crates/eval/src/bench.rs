//! Perf-regression bench harness: structured scheduling-throughput
//! measurements and a regression comparator.
//!
//! The measurement loop behind `csched bench` lives here as library
//! functions: [`measure_cell`] schedules one kernel on one
//! architecture `reps` times and records the wall-clock schedule time
//! next to the run's *deterministic* outcomes (achieved II, copies,
//! placement attempts — identical on every machine because the scheduler
//! is deterministic), and [`run_bench`] sweeps a kernel×architecture
//! grid into a [`BenchReport`].
//!
//! Reports serialise to `BENCH_<label>.json` ([`bench_json`], parsed
//! back by [`parse_bench_json`]); [`deterministic_json`] is the same
//! document with the timing fields stripped, and is byte-identical
//! across runs of the same build. [`compare`] diffs two reports the way
//! `ci.sh` does: deterministic fields exactly (any drift is a
//! regression), wall clock within a ratio tolerance (advisory by
//! default, because the committed baseline was measured on different
//! hardware).

use std::fmt::Write as _;
use std::time::Instant;

use csched_core::trace::json_escape;
use csched_core::{schedule_kernel, validate, SchedulerConfig};
use csched_ir::Kernel;
use csched_machine::Architecture;

use crate::campaign::{json_num_field, json_str_field};

/// One measured kernel×architecture cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchCell {
    /// Kernel name.
    pub kernel: String,
    /// Architecture name.
    pub arch: String,
    /// Whether scheduling (and validation) succeeded.
    pub ok: bool,
    /// Error text when `!ok`, empty otherwise.
    pub detail: String,
    /// Achieved loop II (0 when failed or loop-free). Deterministic.
    pub ii: u32,
    /// Copy operations inserted. Deterministic.
    pub copies: u64,
    /// Placement attempts made. Deterministic.
    pub attempts: u64,
    /// Fastest schedule time over the reps, in nanoseconds.
    pub best_ns: u64,
    /// Mean schedule time over the reps, in nanoseconds.
    pub mean_ns: u64,
}

impl BenchCell {
    /// Placement attempts per second at the best-rep speed (0 when
    /// unmeasured).
    pub fn attempts_per_sec(&self) -> u64 {
        if self.best_ns == 0 {
            0
        } else {
            ((self.attempts as u128 * 1_000_000_000) / self.best_ns as u128) as u64
        }
    }
}

/// A labelled sweep of measured cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchReport {
    /// The label baked into the file name (`BENCH_<label>.json`).
    pub label: String,
    /// Scheduling repetitions per cell (best/mean are over these).
    pub reps: u32,
    /// One entry per kernel×architecture pair, in sweep order.
    pub cells: Vec<BenchCell>,
}

/// Errors from parsing a bench JSON document.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BenchParseError {
    /// The document header (label/reps) is missing or malformed.
    Header,
    /// A cell line failed to parse.
    Cell {
        /// 1-based line number within the document.
        line: usize,
    },
}

impl std::fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchParseError::Header => write!(f, "missing or malformed bench header"),
            BenchParseError::Cell { line } => write!(f, "malformed bench cell on line {line}"),
        }
    }
}

impl std::error::Error for BenchParseError {}

/// Schedules `kernel` on `arch` `reps` times, validating the final
/// schedule, and returns the measured cell. A scheduling or validation
/// failure is recorded in the cell (`ok: false`, the error in `detail`)
/// rather than returned, so a sweep never aborts on one bad cell.
pub fn measure_cell(
    arch: &Architecture,
    kernel: &Kernel,
    config: &SchedulerConfig,
    reps: u32,
) -> BenchCell {
    let mut cell = BenchCell {
        kernel: kernel.name().to_string(),
        arch: arch.name().to_string(),
        ok: false,
        detail: String::new(),
        ii: 0,
        copies: 0,
        attempts: 0,
        best_ns: 0,
        mean_ns: 0,
    };
    let reps = reps.max(1);
    let mut total_ns: u128 = 0;
    let mut best_ns: u64 = u64::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = schedule_kernel(arch, kernel, config.clone());
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        total_ns += ns as u128;
        best_ns = best_ns.min(ns);
        match result {
            Ok(s) => last = Some(s),
            Err(e) => {
                cell.detail = e.to_string();
                return cell;
            }
        }
    }
    cell.best_ns = best_ns;
    cell.mean_ns = (total_ns / reps as u128) as u64;
    let Some(schedule) = last else {
        cell.detail = "no schedule produced".to_string();
        return cell;
    };
    if let Err(errors) = validate::validate(arch, kernel, &schedule) {
        let first = errors
            .first()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "unknown".to_string());
        cell.detail = format!("validation failed ({} errors): {first}", errors.len());
        return cell;
    }
    cell.ok = true;
    cell.ii = schedule.ii().unwrap_or(0);
    cell.copies = schedule.num_copies() as u64;
    cell.attempts = schedule.stats().attempts;
    cell
}

/// Measures every kernel×architecture pair (kernels outer, architectures
/// inner) into a [`BenchReport`].
pub fn run_bench(
    label: &str,
    reps: u32,
    kernels: &[&Kernel],
    archs: &[Architecture],
    config: &SchedulerConfig,
) -> BenchReport {
    run_bench_jobs(label, reps, kernels, archs, config, 1)
}

/// [`run_bench`] on up to `jobs` worker threads. The deterministic
/// fields ([`deterministic_json`]) are byte-identical for every `jobs`;
/// the timing fields are *noisier* under parallelism (cells contend for
/// cores), so regression baselines should stay single-threaded while
/// exploratory sweeps can afford the speed-up.
pub fn run_bench_jobs(
    label: &str,
    reps: u32,
    kernels: &[&Kernel],
    archs: &[Architecture],
    config: &SchedulerConfig,
    jobs: usize,
) -> BenchReport {
    let mut items: Vec<(&Kernel, &Architecture)> = Vec::with_capacity(kernels.len() * archs.len());
    for kernel in kernels {
        for arch in archs {
            items.push((kernel, arch));
        }
    }
    let cells = match crate::pool::run_indexed(
        &items,
        jobs,
        |_, &(kernel, arch)| measure_cell(arch, kernel, config, reps),
        |_, _| Ok::<(), std::convert::Infallible>(()),
    ) {
        Ok(cells) => cells,
        Err(never) => match never {},
    };
    BenchReport {
        label: label.to_string(),
        reps: reps.max(1),
        cells,
    }
}

fn cell_json(cell: &BenchCell, timings: bool) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"kernel\":\"{}\",\"arch\":\"{}\",\"ok\":{},\"detail\":\"{}\",\"ii\":{},\
         \"copies\":{},\"attempts\":{}",
        json_escape(&cell.kernel),
        json_escape(&cell.arch),
        cell.ok,
        json_escape(&cell.detail),
        cell.ii,
        cell.copies,
        cell.attempts
    );
    if timings {
        let _ = write!(
            s,
            ",\"best_ns\":{},\"mean_ns\":{},\"attempts_per_sec\":{}",
            cell.best_ns,
            cell.mean_ns,
            cell.attempts_per_sec()
        );
    }
    s.push('}');
    s
}

fn report_json(report: &BenchReport, timings: bool) -> String {
    let mut s = String::with_capacity(256 + report.cells.len() * 160);
    let _ = write!(
        s,
        "{{\"bench\":{{\"label\":\"{}\",\"reps\":{}}},\"cells\":[",
        json_escape(&report.label),
        report.reps
    );
    for (i, cell) in report.cells.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&cell_json(cell, timings));
    }
    s.push_str("\n]}\n");
    s
}

/// Serialises a report as the `BENCH_<label>.json` document: a header
/// line plus one line per cell (timing fields included).
pub fn bench_json(report: &BenchReport) -> String {
    report_json(report, true)
}

/// [`bench_json`] with the machine-dependent timing fields
/// (`best_ns`/`mean_ns`/`attempts_per_sec`) stripped. For a
/// deterministic scheduler this document is byte-identical across runs
/// of the same build — the property the regression tests pin down.
pub fn deterministic_json(report: &BenchReport) -> String {
    report_json(report, false)
}

/// Parses a document produced by [`bench_json`] (or
/// [`deterministic_json`]; missing timing fields read as 0).
///
/// # Errors
///
/// Returns a [`BenchParseError`] naming the malformed line.
pub fn parse_bench_json(text: &str) -> Result<BenchReport, BenchParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(BenchParseError::Header)?;
    if !header.starts_with("{\"bench\":") {
        return Err(BenchParseError::Header);
    }
    let label = json_str_field(header, "label").ok_or(BenchParseError::Header)?;
    let reps = u32::try_from(json_num_field(header, "reps").ok_or(BenchParseError::Header)?)
        .map_err(|_| BenchParseError::Header)?;
    let mut cells = Vec::new();
    for (i, line) in lines {
        let line = line.trim_end_matches(',');
        if !line.starts_with("{\"kernel\":") {
            continue; // the closing "]}" line (and any blank tail)
        }
        let cell = (|| {
            let ok = if line.contains("\"ok\":true") {
                true
            } else if line.contains("\"ok\":false") {
                false
            } else {
                return None;
            };
            Some(BenchCell {
                kernel: json_str_field(line, "kernel")?,
                arch: json_str_field(line, "arch")?,
                ok,
                detail: json_str_field(line, "detail")?,
                ii: u32::try_from(json_num_field(line, "ii")?).ok()?,
                copies: json_num_field(line, "copies")?,
                attempts: json_num_field(line, "attempts")?,
                best_ns: json_num_field(line, "best_ns").unwrap_or(0),
                mean_ns: json_num_field(line, "mean_ns").unwrap_or(0),
            })
        })()
        .ok_or(BenchParseError::Cell { line: i + 1 })?;
        cells.push(cell);
    }
    Ok(BenchReport { label, reps, cells })
}

/// Outcome of diffing two bench reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompareReport {
    /// Cells present in both reports.
    pub compared: usize,
    /// Hard regressions: deterministic drift or lost coverage. Any entry
    /// here should fail CI.
    pub failures: Vec<String>,
    /// Soft findings: wall-clock slowdowns beyond the tolerance, or new
    /// cells absent from the baseline.
    pub advisories: Vec<String>,
}

impl CompareReport {
    /// Renders the outcome as a terminal report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compared {} cells: {} regression(s), {} advisory(ies)",
            self.compared,
            self.failures.len(),
            self.advisories.len()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  REGRESSION: {f}");
        }
        for a in &self.advisories {
            let _ = writeln!(out, "  advisory:   {a}");
        }
        out
    }
}

/// Diffs `current` against `baseline`.
///
/// Deterministic fields (`ok`, `ii`, `copies`, `attempts`) must match
/// exactly; a baseline cell missing from `current` is lost coverage.
/// Both are hard failures. Wall clock is compared as a ratio of
/// `best_ns`: a slowdown beyond `time_tolerance` (e.g. `2.0` = twice as
/// slow) is reported as an advisory, since absolute times are
/// machine-dependent.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    time_tolerance: f64,
) -> CompareReport {
    let mut report = CompareReport::default();
    let find = |cells: &[BenchCell], kernel: &str, arch: &str| -> Option<BenchCell> {
        cells
            .iter()
            .find(|c| c.kernel == kernel && c.arch == arch)
            .cloned()
    };
    for base in &baseline.cells {
        let key = format!("{} on {}", base.kernel, base.arch);
        let Some(cur) = find(&current.cells, &base.kernel, &base.arch) else {
            report
                .failures
                .push(format!("{key}: cell missing from current report"));
            continue;
        };
        report.compared += 1;
        if base.ok != cur.ok {
            report.failures.push(format!(
                "{key}: ok {} -> {}{}",
                base.ok,
                cur.ok,
                if cur.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", cur.detail)
                }
            ));
            continue;
        }
        for (what, b, c) in [
            ("II", base.ii as u64, cur.ii as u64),
            ("copies", base.copies, cur.copies),
            ("attempts", base.attempts, cur.attempts),
        ] {
            if b != c {
                report.failures.push(format!("{key}: {what} {b} -> {c}"));
            }
        }
        if base.best_ns > 0 && cur.best_ns > 0 {
            let ratio = cur.best_ns as f64 / base.best_ns as f64;
            if ratio > time_tolerance {
                report.advisories.push(format!(
                    "{key}: {:.2}x slower ({} ns -> {} ns best-of-{})",
                    ratio, base.best_ns, cur.best_ns, current.reps
                ));
            }
        }
    }
    for cur in &current.cells {
        if find(&baseline.cells, &cur.kernel, &cur.arch).is_none() {
            report.advisories.push(format!(
                "{} on {}: new cell not in baseline",
                cur.kernel, cur.arch
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::imagine;

    fn tiny_report() -> BenchReport {
        let w = csched_kernels::by_name("Merge").unwrap();
        run_bench(
            "test",
            1,
            &[&w.kernel],
            &[imagine::central(), imagine::distributed()],
            &SchedulerConfig::default(),
        )
    }

    #[test]
    fn roundtrips_through_json() {
        let report = tiny_report();
        let parsed = parse_bench_json(&bench_json(&report)).unwrap();
        assert_eq!(parsed, report);
        // And the deterministic form parses too, timings zeroed.
        let det = parse_bench_json(&deterministic_json(&report)).unwrap();
        assert_eq!(det.cells.len(), report.cells.len());
        assert!(det.cells.iter().all(|c| c.best_ns == 0));
    }

    #[test]
    fn deterministic_fields_are_byte_identical_across_runs() {
        let a = tiny_report();
        let b = tiny_report();
        assert_eq!(deterministic_json(&a), deterministic_json(&b));
    }

    #[test]
    fn compare_flags_deterministic_drift_and_tolerates_slowness() {
        let base = tiny_report();
        let mut cur = base.clone();
        // Same report: clean.
        let clean = compare(&base, &cur, 2.0);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        // Slower but within tolerance: advisory only when beyond it.
        cur.cells[0].best_ns = base.cells[0].best_ns.saturating_mul(10).max(10);
        let slow = compare(&base, &cur, 2.0);
        assert!(slow.failures.is_empty());
        assert_eq!(slow.advisories.len(), 1);
        // An II change is a hard regression.
        cur.cells[0].ii += 1;
        let drift = compare(&base, &cur, 2.0);
        assert_eq!(drift.failures.len(), 1);
        assert!(drift.failures[0].contains("II"), "{:?}", drift.failures);
        // Lost coverage is a hard regression.
        cur.cells.pop();
        let lost = compare(&base, &cur, 2.0);
        assert!(lost.failures.iter().any(|f| f.contains("missing")));
        assert!(lost.render().contains("REGRESSION"));
    }

    #[test]
    fn malformed_documents_report_the_line() {
        assert_eq!(parse_bench_json(""), Err(BenchParseError::Header));
        assert_eq!(parse_bench_json("{\"x\":1}"), Err(BenchParseError::Header));
        let bad = "{\"bench\":{\"label\":\"l\",\"reps\":1},\"cells\":[\n{\"kernel\":\"K\"}\n]}";
        assert_eq!(
            parse_bench_json(bad),
            Err(BenchParseError::Cell { line: 2 })
        );
    }
}
