//! Property tests for the placement-attempt budget: across random retry
//! policies and budget limits, a [`ScheduleRequest`] ladder never spends
//! more placement attempts than its policy's budget (summed over every
//! acquisition and improvement rung), and a shared caller budget bounds
//! the whole call the same way.

use csched_core::{RetryPolicy, SchedError, ScheduleRequest, SchedulerConfig, StepBudget};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{imagine, Opcode};
use proptest::prelude::*;

/// A loop kernel with `width` independent multiply/add chains: enough
/// placement work that small budgets genuinely trip mid-search.
fn chained_kernel(width: usize) -> Kernel {
    let mut kb = KernelBuilder::new("chains");
    let input = kb.region("in", true);
    let output = kb.region("out", true);
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    for k in 0..width {
        let x = kb.load(lp, input, i.into(), (8 * k as i64).into());
        let m = kb.push(lp, Opcode::IMul, [x.into(), 3i64.into()]);
        let s = kb.push(lp, Opcode::IAdd, [m.into(), (k as i64).into()]);
        kb.store(lp, output, i.into(), (8 * k as i64).into(), s.into());
    }
    let i1 = kb.push(lp, Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, i1.into());
    kb.build().unwrap()
}

proptest! {
    /// The retry ladder never spends more than `RetryPolicy::budget`
    /// placement attempts in total (with the documented one-attempt floor
    /// for a zero budget), no matter how the policy is shaped.
    #[test]
    fn retry_never_exceeds_its_budget(
        budget in 0u64..400,
        max_attempts in 1usize..6,
        width in 1usize..4,
    ) {
        let arch = imagine::distributed();
        let kernel = chained_kernel(width);
        let policy = RetryPolicy { max_attempts, budget };
        let (result, report) = ScheduleRequest {
            config: SchedulerConfig::default(),
            retry: Some(policy),
            ..ScheduleRequest::default()
        }
        .run(&arch, &kernel);
        let ceiling = budget.max(1);
        prop_assert!(
            report.attempts_spent <= ceiling,
            "spent {} of budget {} (ceiling {})",
            report.attempts_spent, budget, ceiling
        );
        // Per-rung grants are each within the ceiling too.
        for a in report.attempts.iter().chain(&report.improvements) {
            prop_assert!(a.attempts_granted <= ceiling);
        }
        // A tripped budget surfaces as the typed deadline error, never a
        // panic or a silent success.
        if let Err(SchedError::DeadlineExceeded { spent, limit, .. }) = &result {
            prop_assert_eq!(*limit, ceiling);
            prop_assert!(*spent <= *limit);
        }
    }

    /// A caller-supplied shared budget bounds the whole budgeted call:
    /// spend never exceeds the limit and the reported spend matches the
    /// budget's own counter.
    #[test]
    fn shared_budget_bounds_the_whole_call(limit in 1u64..300, width in 1usize..3) {
        let arch = imagine::distributed();
        let kernel = chained_kernel(width);
        let budget = StepBudget::new(limit);
        let policy = RetryPolicy::default();
        let (_result, report) = ScheduleRequest {
            config: SchedulerConfig::default(),
            retry: Some(policy),
            budget: Some(&budget),
            sink: None,
        }
        .run(&arch, &kernel);
        prop_assert!(budget.spent() <= limit);
        prop_assert_eq!(report.attempts_spent, budget.spent());
    }
}
