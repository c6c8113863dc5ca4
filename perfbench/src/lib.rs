//! Benchmark of the csched scheduler. A workload is an input family
//! ([`cells::Family`]: the paper's grid, or seeded explore machines);
//! every run takes its cells through three stages: the compile pipeline
//! ([`compile`]), the scheduler service under a closed-loop client
//! ([`serve`]), and the oracle's heuristic-versus-exact gap pass
//! ([`oracle`]). See NOTES.md.

pub mod cells;
pub mod compile;
pub mod host;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::Duration;

use cells::{Cells, Family};
use host::{rescale, HostSpeed};
use stats::{median, peak_rss_mb, repeat_for, timed, Report};
use trace::Tracer;

/// The passes of one traced round, beside its untraced ones.
struct Traced {
    compile: compile::Pass,
    /// The serve stream against a server without telemetry.
    quiet: serve::Pass,
    serve: serve::Pass,
    oracle: oracle::Pass,
}

/// One pass of every stage, and in a traced run their traced passes.
struct Round {
    setup_s: f64,
    compile: compile::Pass,
    serve: serve::Pass,
    /// [`oracle::passes_per_round`] passes.
    oracle: Vec<oracle::Pass>,
    traced: Option<Traced>,
}

struct Run<'a> {
    family: Family,
    seed: u64,
    cells: &'a Cells,
    journal: &'a Path,
    host: HostSpeed,
    tracer: Tracer,
}

impl Run<'_> {
    fn serve(&mut self, telemetry: bool, traced: bool) -> Result<serve::Pass, String> {
        serve::pass(
            self.cells,
            serve::PassKind {
                host: &mut self.host,
                telemetry,
                journal: self.journal,
                tracer: traced.then_some(&mut self.tracer),
            },
        )
    }

    /// A traced run follows each untraced pass with its traced one, so
    /// drift in the host's speed falls on both alike.
    fn round(&mut self, trace: bool) -> Result<Round, String> {
        // Set-up is repeated every round, so that its samples span the
        // run as the passes' do: the cells, then (in the serve pass) a
        // server answering.
        let (fresh, cells_s) = timed(|| cells::setup(self.family, self.seed));
        fresh?;
        let cfg = oracle::gap_config();
        let compile = compile::pass(self.cells, &mut self.host, None);
        let traced_compile =
            trace.then(|| compile::pass(self.cells, &mut self.host, Some(&mut self.tracer)));
        let serve = self.serve(true, false)?;
        let traced_serve = if trace {
            Some((self.serve(false, false)?, self.serve(true, true)?))
        } else {
            None
        };
        let oracle = (0..oracle::passes_per_round(self.cells.oracle_order().len()))
            .map(|_| oracle::pass(self.cells, &cfg, &mut self.host, None))
            .collect::<Vec<_>>();
        let traced_oracle =
            trace.then(|| oracle::pass(self.cells, &cfg, &mut self.host, Some(&mut self.tracer)));
        let traced = match (traced_compile, traced_serve, traced_oracle) {
            (Some(compile), Some((quiet, serve)), Some(oracle)) => Some(Traced {
                compile,
                quiet,
                serve,
                oracle,
            }),
            _ => None,
        };
        Ok(Round {
            setup_s: cells_s + serve.setup_s,
            compile,
            serve,
            oracle,
            traced,
        })
    }
}

/// Checks that every pass of a stage passed and repeated the first
/// pass's results; returns those results.
fn tally<T: PartialEq + Clone>(
    report: &mut Report,
    repeats: &mut bool,
    passes: impl IntoIterator<Item = (Vec<T>, Vec<String>, u64)>,
) -> Vec<T> {
    let mut first: Option<Vec<T>> = None;
    for (ok, errors, attempted) in passes {
        report.attempted += attempted;
        report.failed += errors.len() as u64;
        for e in &errors {
            eprintln!("{e}");
        }
        match &first {
            None => first = Some(ok),
            Some(f) => *repeats &= *f == ok,
        }
    }
    first.unwrap_or_default()
}

fn split<T: Clone>(results: &[Result<T, String>]) -> (Vec<T>, Vec<String>, u64) {
    let mut ok = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(v) => ok.push(v.clone()),
            Err(e) => errors.push(e.clone()),
        }
    }
    (ok, errors, results.len() as u64)
}

/// Runs the workload for about `seconds` and returns its report: the
/// end-to-end metrics, or with `trace` the per-layer ones. The spans of
/// a traced run are written to `workdir`.
pub fn run(
    family: Family,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: &Path,
) -> Result<Report, String> {
    let cells = cells::setup(family, seed)?;
    let journal = workdir.join(format!("serve-{seed}.journal"));
    let mut run = Run {
        family,
        seed,
        cells: &cells,
        journal: &journal,
        host: HostSpeed::default(),
        tracer: Tracer::default(),
    };
    let rounds = repeat_for(Duration::from_secs_f64(seconds), 1, |_| run.round(trace))?;
    let traced: Vec<&Traced> = rounds.iter().filter_map(|r| r.traced.as_ref()).collect();

    let mut report = Report::default();
    let mut repeats = true;
    let compiled = tally(
        &mut report,
        &mut repeats,
        rounds
            .iter()
            .map(|r| &r.compile)
            .chain(traced.iter().map(|t| &t.compile))
            .map(|p| split(&p.results)),
    );
    let verdicts = tally(
        &mut report,
        &mut repeats,
        rounds
            .iter()
            .flat_map(|r| &r.oracle)
            .chain(traced.iter().map(|t| &t.oracle))
            .map(|p| split(&p.verdicts)),
    );
    tally(
        &mut report,
        &mut repeats,
        rounds
            .iter()
            .map(|r| &r.serve)
            .chain(traced.iter().flat_map(|t| [&t.quiet, &t.serve]))
            .map(|p| (vec![p.lines.clone()], p.errors.clone(), p.requests)),
    );

    if trace {
        let compile: Vec<&compile::Pass> = traced.iter().map(|t| &t.compile).collect();
        compile::report_traced(&mut report, &run.host, &cells, &compile, &compiled);
        let plain: Vec<&serve::Pass> = rounds.iter().map(|r| &r.serve).collect();
        let quiet: Vec<&serve::Pass> = traced.iter().map(|t| &t.quiet).collect();
        let serve: Vec<&serve::Pass> = traced.iter().map(|t| &t.serve).collect();
        serve::report_traced(&mut report, &run.host, &plain, &quiet, &serve);
        let oracle: Vec<&oracle::Pass> = traced.iter().map(|t| &t.oracle).collect();
        oracle::report_traced(&mut report, &run.host, &oracle, &verdicts);
        // The traced round's time minus the untraced one's, each pass
        // taken at its own host speed.
        let host = &run.host;
        let overhead: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|t| (r, t)))
            .map(|(r, t)| {
                // The traced oracle pass follows the round's last one.
                let oracle = &r.oracle[r.oracle.len() - 1];
                rescale(t.compile.wall_s, t.compile.factor, host)
                    - rescale(r.compile.wall_s, r.compile.factor, host)
                    + rescale(t.serve.wall_s, t.serve.factor, host)
                    - rescale(r.serve.wall_s, r.serve.factor, host)
                    + rescale(t.oracle.wall_s, t.oracle.factor, host)
                    - rescale(oracle.wall_s, oracle.factor, host)
            })
            .collect();
        report.push("trace_overhead_s", median(&overhead), "s");
        run.tracer
            .write_jsonl(&workdir.join(format!("trace-{}-{seed}.jsonl", family.name())))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        report.push(
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        );
        report.push("peak_rss_mb", peak_rss_mb(), "MB");
        let compile: Vec<&compile::Pass> = rounds.iter().map(|r| &r.compile).collect();
        compile::report_plain(&mut report, &run.host, &compile, &compiled);
        let serve: Vec<&serve::Pass> = rounds.iter().map(|r| &r.serve).collect();
        serve::report_plain(&mut report, &run.host, &serve);
        let oracle: Vec<&oracle::Pass> = rounds.iter().flat_map(|r| &r.oracle).collect();
        oracle::report_plain(&mut report, &run.host, &oracle, &verdicts);
    }
    report.calibrate(run.host.factor());
    if trace {
        report.push("reference.ms", run.host.reference_s() * 1e3, "ms");
    }
    report.correct = repeats && report.failed == 0;
    Ok(report)
}
