//! Trace and metrics acceptance tests:
//!
//! - a golden-file JSONL trace of the paper's motivating example (§2,
//!   Figure 4 on the Figure 5 toy machine), restricted to the stable
//!   decision-level events, proving both determinism of the scheduler on
//!   the motivating example and stability of the JSONL encoding;
//! - a pinned digest of the *full* event stream — every attempt, stub
//!   choice, revision, copy and rejection, in order — of a copy-inserting
//!   paper-grid cell (DCT on the distributed Imagine machine), so a
//!   rewrite of the placement search must emit the same events in the
//!   same order, not merely reach the same schedule;
//! - the metrics/validator consistency check: the occupancy profiles in
//!   [`ScheduleMetrics`] must equal an independent replay of the
//!   schedule's resource bookings done the way the validator does it.
//!
//! Regenerate the golden file after an intentional scheduler change with
//! `UPDATE_GOLDEN=1 cargo test -p csched-core --test trace_golden`.

use std::collections::HashSet;

use csched_core::metrics::ScheduleMetrics;
use csched_core::trace::{decision_filter, JsonlSink, TraceSink};
use csched_core::{
    schedule_kernel, validate, ResourceTable, Schedule, ScheduleRequest, SchedulerConfig, TableMode,
};
use csched_ir::{Kernel, KernelBuilder};
use csched_machine::{fnv1a, imagine, toy, Architecture, Resource, ResourceMap};

/// A single-pass schedule with every decision traced into `sink`.
fn schedule_traced(arch: &Architecture, kernel: &Kernel, sink: &mut dyn TraceSink) -> Schedule {
    ScheduleRequest {
        config: SchedulerConfig::default(),
        sink: Some(sink),
        ..ScheduleRequest::default()
    }
    .run(arch, kernel)
    .0
    .unwrap()
}

/// Figure 4: `a = load; b = 1+2; c = 3+4; _ = a+b; _ = a+c` plus stores.
fn figure4() -> Kernel {
    let mut kb = KernelBuilder::new("fig4");
    let mem = kb.region("mem", true);
    let b = kb.straight_block("b");
    let a = kb.load(b, mem, 0i64.into(), 0i64.into());
    let bv = kb.push(b, csched_machine::Opcode::IAdd, [1i64.into(), 2i64.into()]);
    let cv = kb.push(b, csched_machine::Opcode::IAdd, [3i64.into(), 4i64.into()]);
    let s4 = kb.push(b, csched_machine::Opcode::IAdd, [a.into(), bv.into()]);
    let s5 = kb.push(b, csched_machine::Opcode::IAdd, [a.into(), cv.into()]);
    kb.store(b, mem, 10i64.into(), 0i64.into(), s4.into());
    kb.store(b, mem, 11i64.into(), 0i64.into(), s5.into());
    kb.build().unwrap()
}

#[test]
fn motivating_example_trace_matches_golden_file() {
    let arch = toy::motivating_example();
    let kernel = figure4();
    let mut sink = JsonlSink::with_filter(decision_filter);
    let schedule = schedule_traced(&arch, &kernel, &mut sink);
    validate::validate(&arch, &kernel, &schedule).unwrap();
    let got = sink.into_string();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/motivating_trace.jsonl"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "golden file missing; regenerate with UPDATE_GOLDEN=1 \
         cargo test -p csched-core --test trace_golden",
    );
    assert_eq!(
        got, want,
        "trace diverged from golden; if the scheduler change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// DCT on the distributed machine inserts 4 copies in 942 attempts: its
/// stream exercises the fast and full stub permutations, write-stub
/// revision, copy insertion and copy reuse. The digest is FNV-1a over the
/// unfiltered JSONL stream.
#[test]
fn copy_inserting_cell_trace_digest_is_pinned() {
    let arch = imagine::distributed();
    let w = csched_kernels::by_name("DCT").unwrap();
    let mut sink = JsonlSink::new();
    let schedule = schedule_traced(&arch, &w.kernel, &mut sink);
    assert_eq!(
        (
            schedule.ii(),
            schedule.num_copies(),
            schedule.stats().attempts
        ),
        (Some(9), 4, 942)
    );
    let got = (sink.lines(), fnv1a(sink.as_str().as_bytes()));
    assert_eq!(
        got,
        (10_795, 0x9544_6505_6dc7_036e),
        "the DCT-on-distributed event stream drifted"
    );
}

#[test]
fn traced_and_untraced_schedules_are_identical() {
    let arch = toy::motivating_example();
    let kernel = figure4();
    let plain = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
    let mut sink = JsonlSink::new();
    let traced = schedule_traced(&arch, &kernel, &mut sink);
    assert!(sink.lines() > 0);
    for op in plain.universe().op_ids() {
        assert_eq!(plain.placement(op), traced.placement(op));
    }
}

#[test]
fn every_trace_line_is_a_json_object() {
    let arch = toy::motivating_example();
    let kernel = figure4();
    let mut sink = JsonlSink::new();
    schedule_traced(&arch, &kernel, &mut sink);
    for line in sink.as_str().lines() {
        assert!(
            line.starts_with("{\"event\":\"") && line.ends_with('}'),
            "{line}"
        );
        // Quotes are balanced (the escaping test proper lives in the
        // trace module's unit tests).
        assert_eq!(line.matches('"').count() % 2, 0, "{line}");
    }
}

/// The ISSUE's consistency contract: `ScheduleMetrics` occupancy sums
/// must equal the validator's resource bookings. This re-implements the
/// validator's replay (issue claims for every op, write stubs deduped by
/// `(producer, stub)`, read stubs deduped by `(consumer, slot)`) with the
/// public API and compares every per-resource profile.
#[test]
fn metrics_occupancy_equals_validator_bookings() {
    for (arch, kernel) in [
        (toy::motivating_example(), figure4()),
        (toy::motivating_example(), looped_kernel()),
    ] {
        let schedule = schedule_kernel(&arch, &kernel, SchedulerConfig::default()).unwrap();
        validate::validate(&arch, &kernel, &schedule).unwrap();
        let m = ScheduleMetrics::compute(&arch, &kernel, &schedule);

        // Independent validator-style replay.
        let u = schedule.universe();
        let ii = schedule.ii().unwrap_or(1).max(1);
        let map = ResourceMap::new(&arch);
        let mut tables: Vec<ResourceTable> = kernel
            .blocks()
            .iter()
            .map(|b| {
                let mode = if b.is_loop() {
                    TableMode::Modulo(ii)
                } else {
                    TableMode::Linear
                };
                ResourceTable::new(map.clone(), mode)
            })
            .collect();
        for op in u.op_ids() {
            let p = schedule.placement(op);
            let interval = arch
                .fu(p.fu)
                .capability(u.op(op).opcode)
                .map(|c| c.issue_interval)
                .unwrap_or(1);
            let block = u.op(op).block;
            assert!(tables[block.index()].place_issue(p.cycle, p.fu, interval, op));
        }
        let mut placed_writes = HashSet::new();
        let mut placed_reads = HashSet::new();
        for cid in u.comm_ids() {
            for (leg_id, route) in schedule.transport(cid) {
                let leg = u.comm(leg_id);
                let p = schedule.placement(leg.producer);
                let q = schedule.placement(leg.consumer);
                let pb = u.op(leg.producer).block;
                let qb = u.op(leg.consumer).block;
                if placed_writes.insert((leg.producer, route.wstub)) {
                    let fanout = arch.fu(p.fu).output_fanout();
                    assert!(tables[pb.index()].place_write_stub(
                        p.completion(),
                        route.wstub,
                        leg.producer,
                        fanout
                    ));
                }
                if placed_reads.insert((leg.consumer, leg.slot)) {
                    assert!(tables[qb.index()].place_read_stub(
                        q.cycle,
                        route.rstub,
                        leg.consumer,
                        leg.slot
                    ));
                }
            }
        }

        // Every profile in the metrics equals the independent replay.
        for (bi, block) in kernel.block_ids().enumerate() {
            let bm = &m.blocks[bi];
            let table = &tables[block.index()];
            for (fi, load) in bm.fu_issue.iter().enumerate() {
                let fu = csched_machine::FuId::from_raw(fi);
                assert_eq!(
                    load.profile,
                    table.occupancy_profile(Resource::FuIssue(fu), bm.rows),
                    "issue profile of {} in block {}",
                    load.name,
                    bm.name
                );
            }
            for (vi, load) in bm.buses.iter().enumerate() {
                let bus = csched_machine::BusId::from_raw(vi);
                assert_eq!(
                    load.profile,
                    table.occupancy_profile(Resource::Bus(bus), bm.rows),
                    "bus profile of {} in block {}",
                    load.name,
                    bm.name
                );
            }
            for (pi, load) in bm.write_ports.iter().enumerate() {
                let port = csched_machine::WritePortId::from_raw(pi);
                assert_eq!(
                    load.profile,
                    table.occupancy_profile(Resource::WritePort(port), bm.rows),
                    "write-port profile of {} in block {}",
                    load.name,
                    bm.name
                );
            }
            for (pi, load) in bm.read_ports.iter().enumerate() {
                let port = csched_machine::ReadPortId::from_raw(pi);
                assert_eq!(
                    load.profile,
                    table.occupancy_profile(Resource::ReadPort(port), bm.rows),
                    "read-port profile of {} in block {}",
                    load.name,
                    bm.name
                );
            }
        }
    }
}

/// A small software-pipelined loop exercising the modulo (II-folded)
/// occupancy path of the consistency check.
fn looped_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("looped");
    let mem = kb.region("mem", true);
    let lp = kb.loop_block("body");
    let i = kb.loop_var(lp, 0i64.into());
    let x = kb.load(lp, mem, i.into(), 0i64.into());
    let y = kb.push(lp, csched_machine::Opcode::IAdd, [x.into(), 5i64.into()]);
    kb.store(lp, mem, i.into(), 64i64.into(), y.into());
    let i1 = kb.push(lp, csched_machine::Opcode::IAdd, [i.into(), 1i64.into()]);
    kb.set_update(i, i1.into());
    kb.build().unwrap()
}
