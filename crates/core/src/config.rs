//! Scheduler configuration.
//!
//! The defaults implement the paper's choices; the alternative settings
//! exist for the ablation study, `csched ablation` (operation-order vs
//! cycle-order scheduling, the communication-cost heuristic, stub search
//! ordering, and the permutation-search budget).

/// How the scheduler iterates over unscheduled operations (paper §4.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleOrder {
    /// The paper's choice: operations in decreasing critical-path height,
    /// so communications along the critical path are routed first.
    Operation,
    /// The ablation baseline: fill each cycle with as many operations as
    /// possible before moving to the next.
    Cycle,
    /// Recurrence members first, then decreasing height: an ordering
    /// mined from exact minimum-II schedules (the `csched_core::exact`
    /// oracle). Loop updates sit on the critical recurrence but have no
    /// same-iteration successors, so plain height order schedules them
    /// last — after the issue slots their modulo-wrapped windows need
    /// are taken. Placing recurrence ops first closes certified
    /// optimality gaps the plain order cannot.
    Recurrence,
}

/// Tunable parameters of the scheduler and communication scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Operation iteration order (§4.6).
    pub order: ScheduleOrder,
    /// Use the communication-cost heuristic (eq 1) to order candidate
    /// functional units; `false` falls back to round-robin by load.
    pub comm_cost_heuristic: bool,
    /// Order closing communications before open ones, smallest copy range
    /// first, in the stub permutation search (§4.4); `false` uses
    /// declaration order (ablation).
    pub closing_first: bool,
    /// Maximum partial permutations the stub search may try per placement
    /// (§4.4: "an arbitrary, relatively large, number").
    pub search_budget: usize,
    /// Maximum candidate stubs considered per communication in the
    /// permutation search (candidates are scored best-first, and stubs
    /// beyond this many are near-duplicates through other buses/ports).
    pub max_stub_candidates: usize,
    /// Maximum (unit, cycle) placements tried when scheduling one inserted
    /// copy operation.
    pub max_copy_attempts: usize,
    /// Cycles past the earliest feasible cycle the driver sweeps *without*
    /// copy insertion before allowing copies (a short delay is cheaper
    /// than a copy, but chasing copy-free placements too far causes the
    /// unit assignment to collapse onto one register file's units).
    pub no_copy_scan: i64,
    /// Maximum recursion depth of copy insertion (a copy whose own
    /// communication needs another copy).
    pub max_copy_depth: usize,
    /// How many cycles past the earliest feasible cycle an operation may be
    /// delayed before the placement attempt fails.
    pub max_delay: i64,
    /// Maximum cycles a cross-block copy may be placed after its producer
    /// completes (bounds preamble growth).
    pub cross_block_copy_slack: i64,
    /// Upper bound on the initiation interval searched by the modulo
    /// scheduler.
    pub max_ii: u32,
    /// Abort a single initiation-interval attempt after this many
    /// placement attempts and move to the next II (bounds worst-case
    /// scheduling time on congested machines).
    pub max_attempts_per_ii: u64,
    /// Maximum candidate functional units tried per (operation, cycle)
    /// before delaying to the next cycle.
    pub max_fu_candidates: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            order: ScheduleOrder::Operation,
            comm_cost_heuristic: true,
            closing_first: true,
            search_budget: 256,
            max_stub_candidates: 32,
            max_copy_attempts: 64,
            no_copy_scan: 6,
            max_copy_depth: 3,
            max_delay: 96,
            cross_block_copy_slack: 32,
            max_ii: 512,
            max_attempts_per_ii: 40_000,
            max_fu_candidates: 10,
        }
    }
}

impl SchedulerConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation: cycle-order scheduling (§4.6 discusses why this loses).
    pub fn cycle_order() -> Self {
        SchedulerConfig {
            order: ScheduleOrder::Cycle,
            ..Self::default()
        }
    }

    /// Ablation: disable the communication-cost FU heuristic (eq 1).
    pub fn without_comm_cost() -> Self {
        SchedulerConfig {
            comm_cost_heuristic: false,
            ..Self::default()
        }
    }

    /// Ablation: naive stub search order.
    pub fn without_closing_first() -> Self {
        SchedulerConfig {
            closing_first: false,
            ..Self::default()
        }
    }

    /// The exact-mined recurrence-first operation order (see
    /// [`ScheduleOrder::Recurrence`]).
    pub fn recurrence_order() -> Self {
        SchedulerConfig {
            order: ScheduleOrder::Recurrence,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SchedulerConfig::default();
        assert_eq!(c.order, ScheduleOrder::Operation);
        assert!(c.comm_cost_heuristic);
        assert!(c.closing_first);
        assert_eq!(c, SchedulerConfig::paper());
    }

    #[test]
    fn ablations_flip_one_knob() {
        assert_eq!(SchedulerConfig::cycle_order().order, ScheduleOrder::Cycle);
        assert!(!SchedulerConfig::without_comm_cost().comm_cost_heuristic);
        assert!(!SchedulerConfig::without_closing_first().closing_first);
    }
}
