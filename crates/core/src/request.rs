//! The one scheduling call: [`ScheduleRequest`].
//!
//! The paper's scheduler is one algorithm (the outer loop of Figure 11 with
//! communication scheduling gating every placement). Everything else a
//! caller may want around it — a deterministic work budget, a trace of
//! every decision, and a relaxation ladder for configurations whose
//! budgets run out — is harness, carried by one request:
//!
//! - `retry: None` runs the scheduler once on the caller's configuration.
//! - `retry: Some(policy)` runs the *anytime* ladder. It first acquires a
//!   schedule by climbing relaxation rungs while the error is retryable:
//!
//!   1. the caller's configuration unchanged;
//!   2. relaxed delay and copy budgets (wider placement windows, deeper
//!      copy recursion, larger cross-block slack — the §4.5 levers);
//!   3. the exact-mined recurrence-first operation order
//!      ([`ScheduleOrder::Recurrence`]): certified minimum-II schedules
//!      from the [`exact`](crate::exact) oracle place recurrence
//!      operations *early*, where the plain height order leaves them for
//!      last and fails at IIs the machine can actually sustain;
//!   4. a widened initiation-interval cap;
//!   5. the cycle-order ablation (a differently-shaped search that
//!      escapes operation-order pathologies);
//!   6. further doubling of the II cap and delay budget.
//!
//!   It then spends what is left of the budget improving that schedule,
//!   re-scheduling below the best II found with escalating per-II effort.
//!   Errors that no relaxation can fix — a machine that is not
//!   copy-connected, an opcode with no capable unit, an internal
//!   invariant break, a spent budget — end the ladder at once.
//! - `budget` charges every placement attempt to a caller's
//!   [`StepBudget`]; the ladder shares it across all of its rungs.
//! - `sink` receives every decision as a [`TraceEvent`].
//!
//! Every call returns a [`ScheduleReport`] next to its result, so a
//! caller (a fault-injection campaign, the scheduler service) can see
//! which relaxation recovered a kernel and at what cost.

use csched_ir::Kernel;
use csched_machine::Architecture;

use crate::budget::StepBudget;
use crate::config::{ScheduleOrder, SchedulerConfig};
use crate::driver::{schedule_kernel_impl, PrepCache};
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::trace::{TraceEvent, TraceSink};

/// Bounds for the relaxation ladder of a [`ScheduleRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum acquisition attempts, counting the initial un-relaxed one.
    pub max_attempts: usize,
    /// Total placement-attempt budget shared by all attempts when the
    /// request carries no [`StepBudget`] of its own: each attempt's
    /// `max_attempts_per_ii` is capped by what remains, and the ladder
    /// stops when the budget is spent.
    pub budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            budget: 1 << 20,
        }
    }
}

impl RetryPolicy {
    /// A policy that never relaxes (one acquisition attempt, the caller's
    /// config).
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// Record of one scheduling pass inside a [`ScheduleRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Zero-based attempt number.
    pub attempt: usize,
    /// Human-readable description of the relaxation applied.
    pub relaxation: &'static str,
    /// The II cap this attempt searched under.
    pub max_ii: u32,
    /// The per-II placement-attempt cap granted from the budget.
    pub attempts_granted: u64,
    /// The error, if the attempt failed (`None` on success).
    pub error: Option<SchedError>,
}

/// Diagnostic returned by every [`ScheduleRequest::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Every acquisition attempt made, in order; the last one's `error`
    /// is `None` exactly when a schedule was acquired. A single pass
    /// records one attempt.
    pub attempts: Vec<Attempt>,
    /// Improvement rungs tried after the first schedule was acquired,
    /// each searching below the best II found so far with escalating
    /// per-II effort (ladder requests only).
    pub improvements: Vec<Attempt>,
    /// Whether acquisition stopped because the budget ran out (or its
    /// cancellation token fired).
    pub budget_exhausted: bool,
    /// Budget spent when acquisition ended.
    pub acquired_spent: u64,
    /// Exact placement attempts charged across every attempt, as counted
    /// by the request's [`StepBudget`] (0 for a single pass without one).
    /// A ladder never exceeds its budget's limit — `max(RetryPolicy::budget,
    /// 1)` when it builds its own; the one-attempt floor exists so a zero
    /// budget still surfaces a real scheduler answer.
    pub attempts_spent: u64,
    /// `true` when the budget (or a cancellation) expired during the
    /// improvement phase and the returned schedule is merely the best one
    /// found so far — the search was cut short before it could prove no
    /// better II exists. `false` both on full completion and on error.
    pub degraded: bool,
    /// The initiation interval of the returned schedule (`None` for
    /// straight-line kernels or when scheduling failed).
    pub best_ii: Option<u32>,
}

impl ScheduleReport {
    /// Whether a retry rung acquired the schedule after at least one
    /// failed attempt.
    pub fn recovered(&self) -> bool {
        self.attempts.len() > 1 && self.attempts.last().is_some_and(|a| a.error.is_none())
    }

    /// Renders the report as one line per attempt, acquisition first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for a in self.attempts.iter().chain(&self.improvements) {
            let _ = writeln!(
                s,
                "attempt {}: {} (II cap {}, {} placement attempts/II): {}",
                a.attempt,
                a.relaxation,
                a.max_ii,
                a.attempts_granted,
                match &a.error {
                    None => "ok".to_string(),
                    Some(e) => e.to_string(),
                }
            );
        }
        if self.budget_exhausted {
            let _ = writeln!(
                s,
                "retry budget exhausted ({} placement attempts spent)",
                self.attempts_spent
            );
        }
        s
    }
}

/// One scheduling call: the configuration plus the optional harness
/// around the paper's algorithm — a relaxation ladder, a work budget and
/// a trace sink, each off by default.
///
/// # Examples
///
/// ```
/// use csched_core::{RetryPolicy, RingBufferSink, ScheduleRequest, SchedulerConfig};
/// use csched_ir::KernelBuilder;
/// use csched_machine::{toy, Opcode};
///
/// let mut kb = KernelBuilder::new("count");
/// let lp = kb.loop_block("body");
/// let i = kb.loop_var(lp, 0i64.into());
/// let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
/// kb.set_update(i, i1.into());
/// let kernel = kb.build()?;
///
/// let mut sink = RingBufferSink::new(256);
/// let (result, report) = ScheduleRequest {
///     config: SchedulerConfig::default(),
///     retry: Some(RetryPolicy::default()),
///     budget: None,
///     sink: Some(&mut sink),
/// }
/// .run(&toy::motivating_example(), &kernel);
/// assert_eq!(result?.ii(), report.best_ii);
/// assert!(!report.degraded);
/// assert!(sink.events().count() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default)]
pub struct ScheduleRequest<'a> {
    /// The scheduler configuration of the first (or only) attempt.
    pub config: SchedulerConfig,
    /// `None`: one pass. `Some`: the anytime relaxation ladder.
    pub retry: Option<RetryPolicy>,
    /// Charges every placement attempt; without one a ladder builds
    /// `StepBudget::new(policy.budget.max(1))`.
    pub budget: Option<&'a StepBudget>,
    /// Receives every pipeline decision, including the ladder's
    /// [`TraceEvent::RungAdvanced`] markers.
    pub sink: Option<&'a mut dyn TraceSink>,
}

impl ScheduleRequest<'_> {
    /// Schedules `kernel` on `arch`.
    ///
    /// # Errors
    ///
    /// See [`SchedError`]. A budget that stops the search surfaces as
    /// [`SchedError::DeadlineExceeded`] / [`SchedError::Cancelled`]; a
    /// ladder errs only when *no* schedule was acquired, with its last
    /// acquisition attempt's error.
    pub fn run(
        self,
        arch: &Architecture,
        kernel: &Kernel,
    ) -> (Result<Schedule, SchedError>, ScheduleReport) {
        let ScheduleRequest {
            config,
            retry,
            budget,
            sink,
        } = self;
        let Some(policy) = retry else {
            return single_pass(arch, kernel, config, budget, sink);
        };
        // One-attempt floor: a zero budget still lets the first rung try
        // one placement, so the caller gets a real scheduler answer.
        let owned;
        let budget = match budget {
            Some(b) => b,
            None => {
                owned = StepBudget::new(policy.budget.max(1));
                &owned
            }
        };
        anytime(arch, kernel, config, &policy, budget, sink)
    }
}

/// Schedules `kernel` on `arch` with the paper's algorithm: a single-pass
/// [`ScheduleRequest`] on `config`.
///
/// # Errors
///
/// See [`SchedError`]. On copy-connected architectures with capable units,
/// failures only arise from exhausting the configured II or delay budgets.
///
/// # Examples
///
/// ```
/// use csched_core::{schedule_kernel, SchedulerConfig};
/// use csched_ir::KernelBuilder;
/// use csched_machine::{toy, Opcode};
///
/// let mut kb = KernelBuilder::new("tiny");
/// let b = kb.straight_block("b");
/// let x = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
/// kb.push(b, Opcode::IAdd, [x.into(), 3i64.into()]);
/// let kernel = kb.build()?;
///
/// let arch = toy::motivating_example();
/// let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default())?;
/// assert!(schedule.ii().is_none()); // no loop block
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule_kernel(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
) -> Result<Schedule, SchedError> {
    ScheduleRequest {
        config,
        ..ScheduleRequest::default()
    }
    .run(arch, kernel)
    .0
}

/// [`schedule_kernel`] under a deterministic [`StepBudget`]: every
/// placement attempt charges one step of `budget`, and the schedule
/// either completes within the budget or fails with
/// [`SchedError::DeadlineExceeded`] (or [`SchedError::Cancelled`] when
/// the budget's [`CancelToken`](crate::CancelToken) fires).
///
/// The budget is denominated in placement attempts, not wall-clock time,
/// so budgeted runs are reproducible: the same inputs spend exactly the
/// same number of steps on every machine.
///
/// # Errors
///
/// [`SchedError::DeadlineExceeded`] / [`SchedError::Cancelled`] when the
/// budget stops the search; otherwise identical to [`schedule_kernel`].
pub fn schedule_kernel_budgeted(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    budget: &StepBudget,
) -> Result<Schedule, SchedError> {
    ScheduleRequest {
        config,
        budget: Some(budget),
        ..ScheduleRequest::default()
    }
    .run(arch, kernel)
    .0
}

/// *Anytime* scheduling under `budget`: a [`ScheduleRequest`] with
/// `retry: Some(policy)`. Acquires a schedule fast, spends the rest of
/// the budget improving it, and always returns the best one found.
///
/// This is the graceful-degradation primitive for a scheduling service:
/// a request whose deadline expires mid-ladder still gets the best
/// relaxed-II schedule completed so far instead of an error, and
/// [`ScheduleReport::degraded`] says how much confidence it carries.
///
/// # Errors
///
/// Only when *no* schedule was found at all: the acquisition ladder's
/// final error.
pub fn schedule_kernel_anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
) -> (Result<Schedule, SchedError>, ScheduleReport) {
    ScheduleRequest {
        config,
        retry: Some(policy.clone()),
        budget: Some(budget),
        sink: None,
    }
    .run(arch, kernel)
}

/// `retry: None`: one scheduling pass on the caller's configuration.
fn single_pass(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    budget: Option<&StepBudget>,
    sink: Option<&mut dyn TraceSink>,
) -> (Result<Schedule, SchedError>, ScheduleReport) {
    let record = Attempt {
        attempt: 0,
        relaxation: "caller configuration",
        max_ii: config.max_ii,
        attempts_granted: config.max_attempts_per_ii,
        error: None,
    };
    let result = schedule_kernel_impl(arch, kernel, config, sink, budget, None);
    let spent = budget.map_or(0, StepBudget::spent);
    let report = ScheduleReport {
        attempts: vec![Attempt {
            error: result.as_ref().err().cloned(),
            ..record
        }],
        budget_exhausted: result.as_ref().is_err_and(SchedError::is_budget_stop),
        acquired_spent: spent,
        attempts_spent: spent,
        best_ii: result.as_ref().ok().and_then(Schedule::ii),
        ..ScheduleReport::default()
    };
    (result, report)
}

/// The configuration for ladder rung `attempt` (cumulative relaxations).
fn rung(base: &SchedulerConfig, attempt: usize) -> (SchedulerConfig, &'static str) {
    let mut cfg = base.clone();
    if attempt == 0 {
        return (cfg, "caller configuration");
    }
    // Rung 1+: relax the delay/copy budgets (§4.5 levers).
    cfg.max_delay = base.max_delay.saturating_mul(2);
    cfg.no_copy_scan = base.no_copy_scan.saturating_mul(2).saturating_add(4);
    cfg.cross_block_copy_slack = base.cross_block_copy_slack.saturating_mul(4);
    cfg.search_budget = base.search_budget.saturating_mul(2);
    cfg.max_copy_attempts = base.max_copy_attempts.saturating_mul(2);
    cfg.max_copy_depth = base.max_copy_depth + 1;
    if attempt == 1 {
        return (cfg, "relaxed delay and copy budgets");
    }
    if attempt == 2 {
        // Rung 2: the recurrence-first operation order, mined from the
        // exact oracle's certified minimum-II schedules. It runs *before*
        // the II cap widens: on cells with a real optimality gap it
        // recovers the better II instead of settling for a larger one.
        cfg.order = ScheduleOrder::Recurrence;
        return (cfg, "exact-mined recurrence-first order");
    }
    // Rung 3+: widen the II cap.
    cfg.max_ii = base.max_ii.saturating_mul(4);
    if attempt == 3 {
        return (cfg, "widened II cap");
    }
    if attempt == 4 {
        // Rung 4: a differently-shaped search.
        cfg.order = ScheduleOrder::Cycle;
        return (cfg, "cycle-order ablation");
    }
    // Rung 5+: keep doubling the II cap and delay budget.
    let extra = (attempt - 4) as u32;
    cfg.max_ii = cfg.max_ii.saturating_mul(1 << extra.min(16));
    cfg.max_delay = cfg.max_delay.saturating_mul(1i64 << extra.min(16));
    (cfg, "doubled II cap and delay budget")
}

/// One scheduling pass on the shared prepared tables; a build error is
/// handled exactly like the same error from the pass itself.
fn run_rung(
    arch: &Architecture,
    kernel: &Kernel,
    cfg: SchedulerConfig,
    budget: &StepBudget,
    sink: Option<&mut dyn TraceSink>,
    prep: &mut PrepCache,
) -> Result<Schedule, SchedError> {
    let p = prep.get(arch, kernel)?;
    schedule_kernel_impl(arch, kernel, cfg, sink, Some(budget), Some(p))
}

/// Lends `sink` to one rung while the ladder keeps it for the next.
fn reborrow<'s>(sink: &'s mut Option<&mut dyn TraceSink>) -> Option<&'s mut dyn TraceSink> {
    sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink)
}

/// `retry: Some(policy)`: acquisition ladder, then improvement.
fn anytime(
    arch: &Architecture,
    kernel: &Kernel,
    config: SchedulerConfig,
    policy: &RetryPolicy,
    budget: &StepBudget,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Result<Schedule, SchedError>, ScheduleReport) {
    let mut prep = PrepCache::new();
    let mut report = ScheduleReport::default();

    // Phase one: climb the relaxation rungs until one schedules.
    let mut acquired: Option<Schedule> = None;
    let mut last_err: Option<SchedError> = None;
    for attempt in 0..policy.max_attempts.max(1) {
        let remaining = budget.remaining();
        if remaining == 0 {
            report.budget_exhausted = true;
            break;
        }
        let (mut cfg, relaxation) = rung(&config, attempt);
        // The per-II cap still shapes when a rung gives up and relaxes,
        // but the shared budget is the hard bound: the engine charges it
        // per placement attempt and stops mid-rung when it runs dry.
        cfg.max_attempts_per_ii = cfg.max_attempts_per_ii.min(remaining);
        let mut record = Attempt {
            attempt,
            relaxation,
            max_ii: cfg.max_ii,
            attempts_granted: cfg.max_attempts_per_ii,
            error: None,
        };
        if let Some(s) = sink.as_mut() {
            s.event(TraceEvent::RungAdvanced {
                attempt: attempt as u32,
                relaxation: relaxation.to_string(),
                max_ii: cfg.max_ii,
            });
        }
        match run_rung(arch, kernel, cfg, budget, reborrow(&mut sink), &mut prep) {
            Ok(schedule) => {
                report.attempts.push(record);
                acquired = Some(schedule);
                break;
            }
            Err(e) => {
                let stop = !e.is_retryable();
                if e.is_budget_stop() {
                    report.budget_exhausted = true;
                }
                record.error = Some(e.clone());
                report.attempts.push(record);
                last_err = Some(e);
                if stop {
                    break;
                }
            }
        }
    }
    report.acquired_spent = budget.spent();
    report.attempts_spent = report.acquired_spent;
    let Some(mut best) = acquired else {
        let err = last_err.unwrap_or_else(|| {
            SchedError::internal("retry", "no scheduling attempt was made".to_string())
        });
        return (Err(err), report);
    };
    report.best_ii = best.ii();
    // Straight-line kernels have no II to improve; an II of 1 is already
    // the floor.
    let Some(mut best_ii) = best.ii().filter(|&ii| ii > 1) else {
        return (Ok(best), report);
    };

    // Phase two: re-schedule below the best II with escalating effort.
    // Improvement rungs reuse the configuration of the rung that
    // succeeded (its relaxations are what made the kernel schedulable).
    let successful_rung = report.attempts.last().map_or(0, |a| a.attempt);
    let (rung_config, _) = rung(&config, successful_rung);
    let mut escalation = 0u32;
    while best_ii > 1 {
        let remaining = budget.remaining();
        if remaining == 0 {
            // The deadline expired before this rung could start: the
            // result is the best schedule completed so far.
            report.degraded = true;
            break;
        }
        let mut cfg = rung_config.clone();
        cfg.max_ii = best_ii - 1;
        let effort = rung_config
            .max_attempts_per_ii
            .saturating_mul(1 << escalation.min(16));
        let truncated = effort > remaining;
        cfg.max_attempts_per_ii = effort.min(remaining);
        let mut record = Attempt {
            attempt: report.improvements.len(),
            relaxation: "improvement: lowered II cap",
            max_ii: cfg.max_ii,
            attempts_granted: cfg.max_attempts_per_ii,
            error: None,
        };
        match run_rung(arch, kernel, cfg, budget, reborrow(&mut sink), &mut prep) {
            Ok(better) => {
                report.improvements.push(record);
                best_ii = better.ii().unwrap_or(1);
                report.best_ii = Some(best_ii);
                best = better;
                escalation = escalation.saturating_add(1);
            }
            Err(e) => {
                // The budget cut the search short (mid-rung, or by
                // truncating the rung's effort): degrade gracefully.
                // IiExhausted at full effort proves (heuristically) that
                // no better II exists; any other error also stops the
                // ladder — the acquired schedule stands.
                report.degraded = e.is_budget_stop()
                    || (truncated && matches!(e, SchedError::IiExhausted { .. }));
                record.error = Some(e);
                report.improvements.push(record);
                break;
            }
        }
    }
    report.attempts_spent = budget.spent();
    (Ok(best), report)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    /// A ladder request with the policy's own budget.
    fn ladder(
        arch: &Architecture,
        kernel: &Kernel,
        config: SchedulerConfig,
        policy: &RetryPolicy,
    ) -> (Result<Schedule, SchedError>, ScheduleReport) {
        ScheduleRequest {
            config,
            retry: Some(policy.clone()),
            ..ScheduleRequest::default()
        }
        .run(arch, kernel)
    }
    use csched_ir::KernelBuilder;
    use csched_machine::{toy, Opcode};

    /// A loop with enough add pressure that its achievable II exceeds 1.
    fn pressured_loop() -> Kernel {
        let mut kb = KernelBuilder::new("pressure");
        let lp = kb.loop_block("body");
        let i = kb.loop_var(lp, 0i64.into());
        let a = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        let b = kb.push(lp, Opcode::IAdd, [a.into(), 2i64.into()]);
        let _c = kb.push(lp, Opcode::IAdd, [b.into(), 3i64.into()]);
        let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
        kb.set_update(i, i1.into());
        kb.build().unwrap()
    }

    #[test]
    fn ladder_recovers_from_too_small_ii_cap() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // Four add-class ops on two adders: MII = 2, so max_ii = 1 cannot
        // succeed until the ladder widens the cap.
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let (result, report) = ladder(&arch, &kernel, cfg, &RetryPolicy::default());
        let schedule = result.expect("the widened II cap must recover this kernel");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(report.recovered(), "{}", report.render());
        assert!(report.attempts.len() >= 2);
        assert!(matches!(
            report.attempts[0].error,
            Some(SchedError::IiExhausted { mii: 2, max_ii: 1 })
        ));
        assert!(report.attempts.last().unwrap().error.is_none());
        // The recovering rung really did widen the cap.
        assert!(report.attempts.last().unwrap().max_ii > 1);
    }

    #[test]
    fn mined_recurrence_rung_closes_a_certified_optimality_gap() {
        use crate::budget::StepBudget;
        use crate::exact::{certify_min_ii, ExactConfig, ExactVerdict};

        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // The oracle certifies II = 2 on this cell; the plain height
        // order cannot reach it (it settles at 3).
        let budget = StepBudget::new(10_000_000);
        let report = certify_min_ii(&arch, &kernel, &ExactConfig::default(), &budget)
            .expect("the oracle must run");
        assert_eq!(report.verdict, ExactVerdict::Certified { ii: 2 });

        // Pin the II cap at the certified minimum: the caller rung and
        // the budget-relaxation rung exhaust, and the mined
        // recurrence-first rung schedules at the optimum.
        let cfg = SchedulerConfig {
            max_ii: 2,
            ..SchedulerConfig::default()
        };
        let (result, ladder) = ladder(&arch, &kernel, cfg, &RetryPolicy::default());
        let schedule = result.expect("the mined rung must close the gap");
        assert_eq!(schedule.ii(), Some(2), "{}", ladder.render());
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        assert!(ladder.recovered(), "{}", ladder.render());
        let winner = ladder.attempts.last().unwrap();
        assert_eq!(winner.relaxation, "exact-mined recurrence-first order");
        assert_eq!(winner.max_ii, 2, "the II cap never widened");
    }

    #[test]
    fn non_retryable_errors_stop_the_ladder() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("fp");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::FMul, [1.0f64.into(), 2.0f64.into()]);
        let kernel = kb.build().unwrap();
        let (result, report) = ladder(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
        );
        assert!(matches!(
            result,
            Err(SchedError::NoCapableUnit {
                opcode: Opcode::FMul
            })
        ));
        assert_eq!(report.attempts.len(), 1, "{}", report.render());
        assert!(!report.recovered());
    }

    #[test]
    fn success_on_first_attempt_records_one_attempt() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let (result, report) = ladder(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
        );
        assert!(result.is_ok());
        assert_eq!(report.attempts.len(), 1);
        assert!(!report.recovered());
        assert_eq!(report.attempts[0].relaxation, "caller configuration");
    }

    #[test]
    fn budget_bounds_the_ladder() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        // Too small to place even the kernel's five operations: once a
        // rung widens the II cap enough to actually search, the shared
        // budget trips mid-rung.
        let policy = RetryPolicy {
            max_attempts: 8,
            budget: 3,
        };
        let (result, report) = ladder(&arch, &kernel, cfg, &policy);
        assert!(
            matches!(
                result,
                Err(SchedError::DeadlineExceeded {
                    spent: 3,
                    limit: 3,
                    ..
                })
            ),
            "{result:?}\n{}",
            report.render()
        );
        assert!(report.budget_exhausted);
        // Exact accounting: the budget counts real placement attempts
        // (the early IiExhausted rungs never reach the engine's hot
        // loop), and never overruns.
        assert_eq!(report.attempts_spent, 3, "{}", report.render());
        // The deadline is non-retryable: the ladder stopped on it.
        assert!(matches!(
            report.attempts.last().and_then(|a| a.error.as_ref()),
            Some(SchedError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn zero_budget_still_surfaces_a_typed_error() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let policy = RetryPolicy {
            max_attempts: 8,
            budget: 0,
        };
        let (result, report) = ladder(&arch, &kernel, cfg, &policy);
        // The one-attempt floor lets the ladder run until one real
        // placement attempt has been charged; the result is a typed
        // deadline, never an internal "no attempt was made" fallback.
        assert!(
            matches!(
                result,
                Err(SchedError::DeadlineExceeded {
                    spent: 1,
                    limit: 1,
                    ..
                })
            ),
            "{result:?}\n{}",
            report.render()
        );
        assert_eq!(report.attempts_spent, 1, "{}", report.render());
        assert!(report.budget_exhausted);
        // The rungs that never charged the budget still reported their
        // real errors.
        assert!(matches!(
            report.attempts[0].error,
            Some(SchedError::IiExhausted { mii: 2, max_ii: 1 })
        ));
    }

    #[test]
    fn anytime_reaches_a_proven_best_with_budget_to_spare() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        // max_ii = 1 forces the acquisition ladder to relax before it can
        // schedule (MII = 2); improvement then tries II cap 1 and proves
        // IiExhausted at full effort — not degraded.
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("anytime must return the acquired schedule");
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        // MII is 2, but stub/copy pressure on the toy machine makes 3 the
        // achievable floor: the improvement rung searches II = 2 at full
        // effort and proves exhaustion.
        assert_eq!(report.best_ii, Some(3));
        assert!(!report.degraded, "full completion must not be degraded");
        assert!(report.recovered());
        // The improvement ladder ran and stopped on a genuine proof.
        assert!(matches!(
            report.improvements.last().and_then(|a| a.error.as_ref()),
            Some(SchedError::IiExhausted { .. })
        ));
        assert!(report.attempts_spent >= report.acquired_spent);
        assert!(report.attempts_spent <= budget.limit());
    }

    #[test]
    fn deadline_mid_ladder_degrades_to_best_rung_completed_so_far() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        // Reference run: learn the deterministic acquisition cost and the
        // best II the full ladder reaches.
        let reference = StepBudget::new(1 << 20);
        let (ref_result, ref_report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy::default(),
            &reference,
        );
        let ref_ii = ref_result.unwrap().ii().unwrap();
        let acquired = ref_report.acquired_spent;
        assert!(acquired > 0);

        // A budget that dies exactly when acquisition completes: the
        // improvement ladder is cut short before it can run, and the
        // degraded result is the best (only) rung completed so far.
        let limit = acquired;
        let budget = StepBudget::new(limit);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        let schedule = result.expect("the acquired schedule must be returned, degraded");
        assert!(report.degraded, "deadline mid-ladder must degrade");
        assert_eq!(
            schedule.ii().unwrap(),
            ref_ii,
            "degraded result must be the best rung completed so far"
        );
        assert!(validate::validate(&arch, &kernel, &schedule).is_ok());
        // The hard contract: a budgeted call never overruns its limit.
        assert!(
            report.attempts_spent <= limit,
            "attempts_spent {} > limit {limit}",
            report.attempts_spent
        );
        assert_eq!(report.attempts_spent, budget.spent());
    }

    #[test]
    fn deadline_mid_improvement_rung_still_returns_acquired_schedule() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let reference = StepBudget::new(1 << 20);
        let (_, ref_report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            cfg.clone(),
            &RetryPolicy::default(),
            &reference,
        );
        // One attempt of headroom: the improvement rung starts, charges
        // work, and trips the deadline mid-search (or proves exhaustion
        // under truncated effort) — either way a degraded-or-proven
        // answer within budget.
        let limit = ref_report.acquired_spent + 1;
        let budget = StepBudget::new(limit);
        let (result, report) =
            schedule_kernel_anytime(&arch, &kernel, cfg, &RetryPolicy::default(), &budget);
        assert!(result.is_ok());
        assert!(report.attempts_spent <= limit);
        assert!(!report.improvements.is_empty());
    }

    #[test]
    fn anytime_on_unschedulable_kernel_surfaces_the_ladder_error() {
        let arch = toy::motivating_example();
        let mut kb = KernelBuilder::new("fp");
        let b = kb.straight_block("b");
        kb.push(b, Opcode::FMul, [1.0f64.into(), 2.0f64.into()]);
        let kernel = kb.build().unwrap();
        let budget = StepBudget::new(1 << 20);
        let (result, report) = schedule_kernel_anytime(
            &arch,
            &kernel,
            SchedulerConfig::default(),
            &RetryPolicy::default(),
            &budget,
        );
        assert!(matches!(result, Err(SchedError::NoCapableUnit { .. })));
        assert!(!report.degraded);
        assert_eq!(report.best_ii, None);
        assert!(report.improvements.is_empty());
    }

    #[test]
    fn caller_supplied_budget_is_shared_and_cancellable() {
        use crate::budget::{CancelToken, StepBudget};
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let token = CancelToken::new();
        token.cancel();
        let budget = StepBudget::new(1 << 20).with_cancel(token);
        let (result, report) = ScheduleRequest {
            config: SchedulerConfig::default(),
            retry: Some(RetryPolicy::default()),
            budget: Some(&budget),
            sink: None,
        }
        .run(&arch, &kernel);
        assert!(matches!(
            result,
            Err(SchedError::Cancelled { phase: "placement" })
        ));
        assert!(report.budget_exhausted);
        assert_eq!(report.attempts_spent, 0);
    }

    #[test]
    fn single_pass_runs_the_caller_configuration_once() {
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let budget = StepBudget::new(1 << 20);
        let (result, report) = ScheduleRequest {
            config: cfg,
            budget: Some(&budget),
            ..ScheduleRequest::default()
        }
        .run(&arch, &kernel);
        // No ladder: the too-small II cap is the answer, not a relaxation.
        let err = result.expect_err("max_ii = 1 is below the MII");
        assert_eq!(err, SchedError::IiExhausted { mii: 2, max_ii: 1 });
        assert_eq!(report.attempts.len(), 1, "{}", report.render());
        assert_eq!(report.attempts[0].error, Some(err));
        assert!(report.improvements.is_empty());
        assert!(!report.budget_exhausted && !report.degraded);
        assert_eq!(report.attempts_spent, budget.spent());
    }

    #[test]
    fn traced_ladder_marks_every_rung_and_matches_the_untraced_result() {
        use crate::trace::RingBufferSink;
        let arch = toy::motivating_example();
        let kernel = pressured_loop();
        let cfg = SchedulerConfig {
            max_ii: 1,
            ..SchedulerConfig::default()
        };
        let mut sink = RingBufferSink::new(1 << 16);
        let (traced, report) = ScheduleRequest {
            config: cfg.clone(),
            retry: Some(RetryPolicy::default()),
            budget: None,
            sink: Some(&mut sink),
        }
        .run(&arch, &kernel);
        let (plain, plain_report) = ladder(&arch, &kernel, cfg, &RetryPolicy::default());
        let render = |s: Schedule| s.render(&arch, &kernel);
        assert_eq!(
            traced.map(render),
            plain.map(render),
            "tracing only observes the search"
        );
        assert_eq!(report, plain_report);
        let rungs = sink
            .events()
            .filter(|e| matches!(e, TraceEvent::RungAdvanced { .. }))
            .count();
        assert_eq!(rungs, report.attempts.len());
    }
}
