//! Parallel design-space exploration: a multi-threaded architecture
//! search with Pareto reporting.
//!
//! The paper evaluates four hand-picked register-file organisations
//! (central, clustered ×2/×4, distributed). This module turns that grid
//! into a *search*: [`explore`] enumerates or samples candidate machines
//! from a [`DesignSpace`], schedules the full kernel suite on each one
//! under a hard placement-attempt budget, scores every candidate on four
//! minimised objectives — harmonic-mean loop II across the suite, plus
//! the register-file area, power, and access delay of the §6 VLSI cost
//! model — and extracts the Pareto frontier, optionally refining it by
//! mutating frontier designs one axis at a time for a few rounds.
//!
//! Three properties the tests pin down:
//!
//! 1. **Thread-count invariance.** Candidates are evaluated through the
//!    [`crate::pool`] worker pool and merged in candidate-index order;
//!    [`ExploreReport::to_json`] carries no thread count or wall clock,
//!    so `--jobs 8` produces *byte-identical* output to `--jobs 1`.
//! 2. **Per-candidate isolation.** Each candidate's suite shares one
//!    [`StepBudget`]; a candidate that fails or times out becomes a
//!    scored-out [`CandidateReport`], never an aborted sweep.
//! 3. **Crash-consistent resume.** Completed cells journal through
//!    [`crate::campaign::Journal`], keyed by the *content* fingerprint of
//!    the candidate architecture ([`Architecture::fingerprint`]), so an
//!    interrupted sweep resumes without re-scheduling finished
//!    candidates and renders the same bytes as the uninterrupted run.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use csched_core::{SchedulerConfig, StepBudget};
use csched_ir::Kernel;
use csched_machine::cost::{self, CostParams};
use csched_machine::gen::{DesignPoint, DesignSpace, Rng};
use csched_machine::{imagine, Architecture};

use crate::campaign::{
    cell_key, config_fingerprint, run_cell, CampaignError, CellRecord, CellStatus, Journal,
};

/// Everything that decides an exploration's outcome (and therefore its
/// journal keys): the space, the sampling budget and seed, the
/// refinement depth, the per-candidate step budget, and the scheduler
/// configuration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The space candidates are drawn from.
    pub space: DesignSpace,
    /// Sampling budget: when the space holds at most this many points it
    /// is enumerated exhaustively (deduplicated by fingerprint);
    /// otherwise this many distinct samples are drawn from `seed`.
    pub candidates: usize,
    /// Seed for the sampling stream (ignored when enumerating).
    pub seed: u64,
    /// Rounds of frontier refinement: each round mutates every frontier
    /// design one axis at a time and evaluates the unseen neighbours.
    pub refine_rounds: usize,
    /// Placement-attempt budget shared by one candidate's whole suite.
    pub step_limit: u64,
    /// Whether to seed the sweep with the paper's four Imagine machines
    /// as named anchor candidates.
    pub anchors: bool,
    /// Scheduler configuration used for every cell.
    pub sched: SchedulerConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            space: DesignSpace::default(),
            candidates: 24,
            seed: 0xC5C4ED,
            refine_rounds: 1,
            step_limit: 1_000_000,
            anchors: true,
            sched: SchedulerConfig::default(),
        }
    }
}

/// Where a candidate came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// One of the paper's four Imagine machines.
    Anchor,
    /// Exhaustive enumeration of a small space.
    Enumerated,
    /// Seeded sampling of a large space.
    Sampled,
    /// Mutated off the frontier in the given refinement round (1-based).
    Mutated(usize),
}

impl Origin {
    /// Stable lower-snake name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Origin::Anchor => "anchor",
            Origin::Enumerated => "enumerated",
            Origin::Sampled => "sampled",
            Origin::Mutated(_) => "mutated",
        }
    }
}

/// A candidate's position on the four minimised objectives. Present only
/// when every kernel in the suite scheduled and validated (`Ok` cells).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Harmonic mean of the loop IIs across the kernel suite (cycles;
    /// lower is faster).
    pub hmean_ii: f64,
    /// Register-file area from [`cost::estimate`].
    pub area: f64,
    /// Register-file peak power.
    pub power: f64,
    /// Register-file access delay.
    pub delay: f64,
}

impl Score {
    fn objectives(&self) -> [f64; 4] {
        [self.hmean_ii, self.area, self.power, self.delay]
    }

    /// Pareto dominance: at least as good on every objective and
    /// strictly better on at least one (all objectives minimised).
    pub fn dominates(&self, other: &Score) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        a.iter().zip(&b).all(|(x, y)| x <= y) && a.iter().zip(&b).any(|(x, y)| x < y)
    }

    fn is_finite(&self) -> bool {
        self.objectives().iter().all(|v| v.is_finite())
    }
}

/// One evaluated candidate machine.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// Architecture name (`dse-<label>` for generated designs, the
    /// Imagine name for anchors).
    pub name: String,
    /// Content fingerprint of the architecture
    /// ([`Architecture::fingerprint`]); the journal key component.
    pub fingerprint: u64,
    /// Where the candidate came from.
    pub origin: Origin,
    /// The design point, when the candidate was generated from the space
    /// (anchors have none).
    pub point: Option<DesignPoint>,
    /// One record per kernel, in suite order; the whole suite shared one
    /// [`StepBudget`].
    pub kernels: Vec<CellRecord>,
    /// The objective vector; `None` unless every cell ended `Ok` (with
    /// finite costs).
    pub score: Option<Score>,
    /// How many other scored candidates Pareto-dominate this one
    /// (0 = on the frontier).
    pub dominated_by: usize,
}

impl CandidateReport {
    /// Whether every kernel cell ended `Ok`.
    pub fn all_ok(&self) -> bool {
        !self.kernels.is_empty() && self.kernels.iter().all(|r| r.status == CellStatus::Ok)
    }

    /// Whether the candidate sits on the Pareto frontier.
    pub fn on_frontier(&self) -> bool {
        self.score.is_some() && self.dominated_by == 0
    }
}

/// Result of [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Size of the configured design space.
    pub space_size: usize,
    /// Every evaluated candidate: anchors first, then the initial draw,
    /// then refinement rounds — each batch in generation order.
    pub candidates: Vec<CandidateReport>,
    /// Indices into `candidates` of the Pareto-frontier members, in
    /// candidate order.
    pub frontier: Vec<usize>,
    /// Candidates satisfied wholly from the resume map (every kernel
    /// cell journaled) instead of being re-scheduled. Deliberately *not*
    /// part of [`Self::to_json`], so a resumed sweep renders the same
    /// bytes as an uninterrupted one.
    pub resumed: usize,
}

impl ExploreReport {
    /// Renders the full report as one deterministic JSON document: a
    /// pure function of the candidate records and scores — no thread
    /// count, wall clock, or resume statistics — so output is
    /// byte-identical across `jobs` and across resumes.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512 + self.candidates.len() * 512);
        let _ = write!(s, "{{\"explore\":{{\"space_size\":{},", self.space_size);
        s.push_str("\"candidates\":[");
        for (i, c) in self.candidates.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"fingerprint\":\"{:016x}\",\"origin\":\"{}\",\"ok\":{},",
                csched_core::trace::json_escape(&c.name),
                c.fingerprint,
                c.origin.name(),
                c.all_ok(),
            );
            match &c.score {
                Some(sc) => {
                    let _ = write!(
                        s,
                        "\"hmean_ii\":{:.4},\"area\":{:.4},\"power\":{:.4},\"delay\":{:.4},",
                        sc.hmean_ii, sc.area, sc.power, sc.delay
                    );
                }
                None => {
                    s.push_str("\"hmean_ii\":null,\"area\":null,\"power\":null,\"delay\":null,")
                }
            }
            let _ = write!(
                s,
                "\"dominated_by\":{},\"frontier\":{},\"kernels\":[",
                c.dominated_by,
                c.on_frontier()
            );
            for (j, r) in c.kernels.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push('{');
                s.push_str(&r.json_fields());
                s.push('}');
            }
            s.push_str("]}");
        }
        s.push_str("\n],\"frontier\":[");
        for (i, &idx) in self.frontier.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\"",
                csched_core::trace::json_escape(&self.candidates[idx].name)
            );
        }
        let scored = self.candidates.iter().filter(|c| c.score.is_some()).count();
        let _ = write!(
            s,
            "],\"summary\":{{\"evaluated\":{},\"scored\":{},\"frontier\":{}}}}}}}",
            self.candidates.len(),
            scored,
            self.frontier.len()
        );
        s.push('\n');
        s
    }

    /// Renders the Pareto frontier as a plain-text table. When the
    /// central-register-file anchor is among the candidates its
    /// objectives are used as the normalisation baseline (ratios, the
    /// way the paper reports Figures 25–27); otherwise values are
    /// absolute.
    pub fn render_frontier(&self) -> String {
        let baseline = self
            .candidates
            .iter()
            .find(|c| c.name == "imagine-central")
            .and_then(|c| c.score);
        let mut out = String::new();
        let scored = self.candidates.iter().filter(|c| c.score.is_some()).count();
        let _ = writeln!(
            out,
            "Pareto frontier: {} of {} scored candidates ({} evaluated, space of {})",
            self.frontier.len(),
            scored,
            self.candidates.len(),
            self.space_size
        );
        match baseline {
            Some(_) => {
                let _ = writeln!(
                    out,
                    "(hmean II in cycles; area/power/delay normalised to imagine-central)"
                );
            }
            None => {
                let _ = writeln!(out, "(hmean II in cycles; area/power/delay absolute)");
            }
        }
        let _ = writeln!(
            out,
            "{:<26} {:>9} {:>9} {:>9} {:>9}  origin",
            "candidate", "hmean II", "area", "power", "delay"
        );
        for &idx in &self.frontier {
            let c = &self.candidates[idx];
            let Some(sc) = c.score else { continue };
            let (area, power, delay) = match baseline {
                Some(b) => (sc.area / b.area, sc.power / b.power, sc.delay / b.delay),
                None => (sc.area, sc.power, sc.delay),
            };
            let _ = writeln!(
                out,
                "{:<26} {:>9.2} {:>9.3} {:>9.3} {:>9.3}  {}",
                c.name,
                sc.hmean_ii,
                area,
                power,
                delay,
                c.origin.name()
            );
        }
        out
    }
}

/// Computes each scored candidate's `dominated_by` count and returns the
/// frontier (indices of scored candidates dominated by none), in order.
pub fn pareto(candidates: &mut [CandidateReport]) -> Vec<usize> {
    let scores: Vec<Option<Score>> = candidates
        .iter()
        .map(|c| c.score.filter(Score::is_finite))
        .collect();
    let mut frontier = Vec::new();
    for i in 0..candidates.len() {
        let Some(mine) = scores[i] else {
            candidates[i].dominated_by = 0;
            continue;
        };
        let dominated_by = scores
            .iter()
            .enumerate()
            .filter(|&(j, other)| j != i && other.is_some_and(|o| o.dominates(&mine)))
            .count();
        candidates[i].dominated_by = dominated_by;
        if dominated_by == 0 {
            frontier.push(i);
        }
    }
    frontier
}

/// A candidate awaiting evaluation.
struct Pending {
    arch: Architecture,
    origin: Origin,
    point: Option<DesignPoint>,
}

/// Schedules the whole suite on one candidate under a single shared
/// [`StepBudget`], so an expensive candidate costs at most `step_limit`
/// attempts in total, not per kernel.
fn run_candidate(
    kernels: &[(&str, &Kernel)],
    arch: &Architecture,
    sched: &SchedulerConfig,
    step_limit: u64,
) -> Vec<CellRecord> {
    let budget = StepBudget::new(step_limit);
    let timeout = format!("candidate step limit {step_limit} exhausted");
    kernels
        .iter()
        .map(|&(name, kernel)| run_cell(name, kernel, arch, sched, &budget, &timeout))
        .collect()
}

fn score_candidate(arch: &Architecture, records: &[CellRecord]) -> Option<Score> {
    if records.is_empty() || records.iter().any(|r| r.status != CellStatus::Ok) {
        return None;
    }
    let mut inv_sum = 0.0f64;
    for r in records {
        inv_sum += 1.0 / f64::from(r.ii.max(1));
    }
    let hmean_ii = records.len() as f64 / inv_sum;
    let report = cost::estimate(arch, &CostParams::default());
    let score = Score {
        hmean_ii,
        area: report.area(),
        power: report.power(),
        delay: report.delay,
    };
    score.is_finite().then_some(score)
}

/// Evaluates one batch of candidates on up to `jobs` threads, reusing
/// fully journaled candidates from `resume` and journaling fresh cells
/// in completion order. Results come back in batch order.
#[allow(clippy::too_many_arguments)]
fn eval_batch(
    batch: Vec<Pending>,
    kernels: &[(&str, &Kernel)],
    sched: &SchedulerConfig,
    sched_fp: &str,
    step_limit: u64,
    jobs: usize,
    journal: &mut Option<&mut Journal>,
    resume: &HashMap<u64, CellRecord>,
    resumed: &mut usize,
) -> Result<Vec<CandidateReport>, CampaignError> {
    let keyed: Vec<(Pending, u64, Vec<u64>)> = batch
        .into_iter()
        .map(|p| {
            let fp = p.arch.fingerprint();
            let arch_id = format!("{fp:016x}");
            let keys = kernels
                .iter()
                .map(|&(name, _)| cell_key(name, &arch_id, sched_fp))
                .collect();
            (p, fp, keys)
        })
        .collect();
    let results = crate::pool::run_indexed(
        &keyed,
        jobs,
        |_, (p, fp, keys)| {
            // Resume is all-or-nothing per candidate: the suite shares
            // one budget, so a partially journaled candidate is
            // recomputed whole to keep attempts (and therefore the
            // report) identical to an uninterrupted run.
            let journaled: Option<Vec<CellRecord>> =
                keys.iter().map(|k| resume.get(k).cloned()).collect();
            let (fresh, records) = match journaled {
                Some(records) => (false, records),
                None => (true, run_candidate(kernels, &p.arch, sched, step_limit)),
            };
            let score = score_candidate(&p.arch, &records);
            (
                fresh,
                CandidateReport {
                    name: p.arch.name().to_string(),
                    fingerprint: *fp,
                    origin: p.origin,
                    point: p.point,
                    kernels: records,
                    score,
                    dominated_by: 0,
                },
            )
        },
        |i, (fresh, report)| {
            if *fresh {
                if let Some(j) = journal.as_deref_mut() {
                    for (key, record) in keyed[i].2.iter().zip(&report.kernels) {
                        j.append(*key, record)?;
                    }
                }
            } else {
                *resumed += 1;
            }
            Ok(())
        },
    )?;
    Ok(results.into_iter().map(|(_, report)| report).collect())
}

/// Runs the exploration: seeds (anchors + enumeration or sampling),
/// evaluates everything on up to `jobs` threads, refines the frontier
/// for `config.refine_rounds` rounds of single-axis mutation, and
/// returns the scored, frontier-annotated report.
///
/// The report is a pure function of `config` and `kernels` — not of
/// `jobs`, the journal, or the resume map — so two invocations that
/// differ only in those produce byte-identical [`ExploreReport::to_json`]
/// output.
///
/// # Errors
///
/// Only journal I/O fails the sweep ([`CampaignError`]); scheduling
/// failures are per-candidate records.
pub fn explore(
    config: &ExploreConfig,
    kernels: &[(&str, &Kernel)],
    jobs: usize,
    mut journal: Option<&mut Journal>,
    resume: &HashMap<u64, CellRecord>,
) -> Result<ExploreReport, CampaignError> {
    let sched_fp = format!(
        "explore;{}",
        config_fingerprint(&config.sched, config.step_limit)
    );
    let mut seen: HashSet<u64> = HashSet::new();
    let mut batch: Vec<Pending> = Vec::new();
    let push = |seen: &mut HashSet<u64>, batch: &mut Vec<Pending>, p: Pending| {
        if seen.insert(p.arch.fingerprint()) {
            batch.push(p);
        }
    };

    if config.anchors {
        for arch in imagine::all_variants() {
            push(
                &mut seen,
                &mut batch,
                Pending {
                    arch,
                    origin: Origin::Anchor,
                    point: None,
                },
            );
        }
    }

    let space_size = config.space.size();
    if space_size <= config.candidates {
        for point in config.space.enumerate() {
            if let Ok(arch) = point.build() {
                push(
                    &mut seen,
                    &mut batch,
                    Pending {
                        arch,
                        origin: Origin::Enumerated,
                        point: Some(point),
                    },
                );
            }
        }
    } else {
        let mut rng = Rng::new(config.seed);
        let mut drawn = 0usize;
        // Bounded draws: duplicates don't count, but a pathological
        // space can't loop forever either.
        for _ in 0..config.candidates.saturating_mul(32) {
            if drawn >= config.candidates {
                break;
            }
            let Some(point) = config.space.sample(&mut rng) else {
                break;
            };
            if let Ok(arch) = point.build() {
                if seen.insert(arch.fingerprint()) {
                    batch.push(Pending {
                        arch,
                        origin: Origin::Sampled,
                        point: Some(point),
                    });
                    drawn += 1;
                }
            }
        }
    }

    let mut resumed = 0usize;
    let mut candidates = eval_batch(
        batch,
        kernels,
        &config.sched,
        &sched_fp,
        config.step_limit,
        jobs,
        &mut journal,
        resume,
        &mut resumed,
    )?;

    for round in 1..=config.refine_rounds {
        let frontier = pareto(&mut candidates);
        let mut next: Vec<Pending> = Vec::new();
        for &idx in &frontier {
            let Some(point) = candidates[idx].point else {
                continue;
            };
            for neighbour in point.neighbours(&config.space) {
                if let Ok(arch) = neighbour.build() {
                    if seen.insert(arch.fingerprint()) {
                        next.push(Pending {
                            arch,
                            origin: Origin::Mutated(round),
                            point: Some(neighbour),
                        });
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        candidates.extend(eval_batch(
            next,
            kernels,
            &config.sched,
            &sched_fp,
            config.step_limit,
            jobs,
            &mut journal,
            resume,
            &mut resumed,
        )?);
    }

    let frontier = pareto(&mut candidates);
    Ok(ExploreReport {
        space_size,
        candidates,
        frontier,
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Vec<csched_kernels::Workload> {
        ["Merge", "Sort"]
            .iter()
            .filter_map(|n| csched_kernels::by_name(n))
            .collect()
    }

    fn tiny_space() -> DesignSpace {
        DesignSpace {
            clusters: (0, 1),
            alus: (2, 3),
            buses: (2, 2),
            rf_capacities: vec![16],
            write_ports: (1, 1),
        }
    }

    fn run(config: &ExploreConfig, jobs: usize) -> ExploreReport {
        let workloads = suite();
        let kernels: Vec<(&str, &Kernel)> = workloads
            .iter()
            .map(|w| (w.kernel.name(), &w.kernel))
            .collect();
        explore(config, &kernels, jobs, None, &HashMap::new()).unwrap()
    }

    #[test]
    fn tiny_space_is_enumerated_with_anchors_and_scored() {
        let config = ExploreConfig {
            space: tiny_space(),
            candidates: 16,
            refine_rounds: 0,
            step_limit: 500_000,
            ..ExploreConfig::default()
        };
        let report = run(&config, 2);
        assert_eq!(report.space_size, 4);
        // 4 anchors + 4 enumerated points.
        assert_eq!(report.candidates.len(), 8);
        assert!(report
            .candidates
            .iter()
            .take(4)
            .all(|c| c.origin == Origin::Anchor));
        assert!(!report.frontier.is_empty());
        // Every frontier member is genuinely non-dominated.
        for &i in &report.frontier {
            let mine = report.candidates[i].score.unwrap();
            for c in &report.candidates {
                if let Some(other) = c.score {
                    assert!(!other.dominates(&mine));
                }
            }
        }
        // The text and JSON renderers cover the frontier.
        let json = report.to_json();
        assert!(json.contains("\"frontier\":true"));
        assert!(report.render_frontier().contains("imagine-central"));
    }

    #[test]
    fn dominance_is_strict_and_partial() {
        let a = Score {
            hmean_ii: 2.0,
            area: 1.0,
            power: 1.0,
            delay: 1.0,
        };
        let b = Score {
            hmean_ii: 3.0,
            area: 2.0,
            power: 2.0,
            delay: 2.0,
        };
        let c = Score {
            hmean_ii: 1.0,
            area: 5.0,
            power: 1.0,
            delay: 1.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "dominance must be irreflexive");
        assert!(!a.dominates(&c) && !c.dominates(&a), "trade-offs coexist");
    }

    #[test]
    fn sampling_respects_the_candidate_budget_and_dedups() {
        let config = ExploreConfig {
            candidates: 6,
            anchors: false,
            refine_rounds: 0,
            step_limit: 50_000,
            ..ExploreConfig::default()
        };
        let report = run(&config, 2);
        assert_eq!(report.candidates.len(), 6);
        let fps: HashSet<u64> = report.candidates.iter().map(|c| c.fingerprint).collect();
        assert_eq!(fps.len(), 6, "sampled candidates must be distinct");
        assert!(report
            .candidates
            .iter()
            .all(|c| c.origin == Origin::Sampled));
    }

    #[test]
    fn refinement_adds_only_unseen_neighbours() {
        let config = ExploreConfig {
            space: DesignSpace {
                clusters: (0, 2),
                alus: (1, 3),
                buses: (1, 2),
                rf_capacities: vec![8, 16],
                write_ports: (1, 1),
            },
            candidates: 4,
            anchors: false,
            refine_rounds: 2,
            step_limit: 50_000,
            ..ExploreConfig::default()
        };
        let report = run(&config, 2);
        let fps: Vec<u64> = report.candidates.iter().map(|c| c.fingerprint).collect();
        let unique: HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(unique.len(), fps.len(), "refinement must never re-evaluate");
        assert!(report
            .candidates
            .iter()
            .any(|c| matches!(c.origin, Origin::Mutated(_))));
    }

    #[test]
    fn a_candidate_that_times_out_is_isolated_not_fatal() {
        let config = ExploreConfig {
            space: tiny_space(),
            candidates: 16,
            anchors: false,
            refine_rounds: 0,
            step_limit: 3, // starvation: every candidate times out
            ..ExploreConfig::default()
        };
        let report = run(&config, 2);
        assert_eq!(report.candidates.len(), 4);
        assert!(report.candidates.iter().all(|c| c.score.is_none()));
        assert!(report.frontier.is_empty());
        assert!(report
            .candidates
            .iter()
            .flat_map(|c| &c.kernels)
            .any(|r| r.status == CellStatus::TimedOut));
        // The renderers still work with nothing scored.
        assert!(report.to_json().contains("\"hmean_ii\":null"));
        assert!(report.render_frontier().contains("0 of 0"));
    }
}
