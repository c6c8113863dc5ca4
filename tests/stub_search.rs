//! The §4.3 stub search at integration scale: the resource table's stub
//! admissions it is built on, and the schedules it produces.
//!
//! The search tries many write and read stubs per placement and keeps
//! few. Its speed rests on two table properties checked here through the
//! public API: a refused claim touches neither the cells nor the journal,
//! and every accepted claim or release is undone exactly by rollback.
//! The schedule-level tests pin that the search is deterministic, that a
//! trace sink only observes it, and that the comm-id participant order
//! (`closing_first` off) still yields valid, exact schedules with copies.

use csched::core::{
    schedule_kernel, validate, ResourceTable, RingBufferSink, SOpId, Schedule, ScheduleRequest,
    SchedulerConfig, TableMode,
};
use csched::machine::{imagine, toy, Architecture, Resource, ResourceMap, WriteStub};

fn table(arch: &Architecture, mode: TableMode) -> ResourceTable {
    ResourceTable::new(ResourceMap::new(arch), mode)
}

fn op(i: usize) -> SOpId {
    SOpId::from_raw(i)
}

/// Two write stubs of different units on one bus of the toy machine.
fn stubs_sharing_a_bus(arch: &Architecture) -> (WriteStub, WriteStub) {
    let add0 = arch.fu_by_name("ADD0").expect("toy machine has ADD0");
    let ls = arch.fu_by_name("LS").expect("toy machine has LS");
    let s_add = arch.write_stubs(add0)[0];
    let s_ls = arch
        .write_stubs(ls)
        .iter()
        .copied()
        .find(|s| s.bus == s_add.bus)
        .expect("ADD0 and LS share a bus");
    (s_add, s_ls)
}

fn schedule(arch: &Architecture, name: &str, config: SchedulerConfig) -> Schedule {
    let w = csched::kernels::by_name(name).expect("known kernel");
    schedule_kernel(arch, &w.kernel, config)
        .unwrap_or_else(|e| panic!("{name} on {}: {e}", arch.name()))
}

#[test]
fn refused_write_stub_touches_neither_cells_nor_journal() {
    let arch = toy::motivating_example();
    let mut t = table(&arch, TableMode::Linear);
    let (s_add, s_ls) = stubs_sharing_a_bus(&arch);
    assert!(t.place_write_stub(0, s_add, op(0), 1));
    let before = (t.fingerprint(), t.savepoint());
    // A second value on the occupied bus is refused, however many times
    // the search retries it.
    for _ in 0..3 {
        assert!(!t.place_write_stub(0, s_ls, op(1), 2));
    }
    assert_eq!((t.fingerprint(), t.savepoint()), before);
    assert_eq!(t.occupancy(0, Resource::Bus(s_add.bus)), 1);
}

#[test]
fn refused_read_stub_touches_neither_cells_nor_journal() {
    let arch = toy::motivating_example();
    let mut t = table(&arch, TableMode::Linear);
    let add0 = arch.fu_by_name("ADD0").expect("toy machine has ADD0");
    let stub = arch.read_stubs(add0, 0)[0];
    assert!(t.place_read_stub(2, stub, op(0), 0));
    let before = (t.fingerprint(), t.savepoint());
    // Another operand wants the same input on the same cycle.
    assert!(!t.place_read_stub(2, stub, op(1), 0));
    assert_eq!((t.fingerprint(), t.savepoint()), before);
    // The operand's own identical stub shares the claim (one operand's
    // init and carried communications use one read stub).
    assert!(t.place_read_stub(2, stub, op(0), 0));
    assert_eq!(t.occupancy(2, Resource::ReadPort(stub.port)), 1);
    t.unplace_read_stub(2, stub, op(0), 0);
    assert_eq!(t.occupancy(2, Resource::ReadPort(stub.port)), 1);
    t.unplace_read_stub(2, stub, op(0), 0);
    assert_eq!(t.occupancy(2, Resource::ReadPort(stub.port)), 0);
}

#[test]
fn stub_revision_is_undone_exactly_by_rollback() {
    // The search revises a tentative stub by releasing it and claiming
    // another; a failed placement rolls the whole revision back.
    let arch = toy::motivating_example();
    let mut t = table(&arch, TableMode::Linear);
    let (s_add, s_ls) = stubs_sharing_a_bus(&arch);
    let empty = t.fingerprint();
    assert!(t.place_write_stub(3, s_add, op(0), 1));
    let placed = t.fingerprint();
    let sp = t.savepoint();
    t.unplace_write_stub(3, s_add, op(0));
    assert_eq!(t.fingerprint(), empty);
    assert!(t.place_write_stub(3, s_ls, op(1), 2));
    assert_ne!(t.fingerprint(), placed);
    t.rollback(sp);
    assert_eq!(t.fingerprint(), placed);
    // The rolled-back revision left the bus to the original value.
    assert!(!t.place_write_stub(3, s_ls, op(1), 2));
}

#[test]
fn probes_leave_the_table_as_they_found_it() {
    let arch = toy::motivating_example();
    let mut t = table(&arch, TableMode::Modulo(4));
    let (s_add, s_ls) = stubs_sharing_a_bus(&arch);
    assert!(t.place_write_stub(1, s_add, op(0), 1));
    let before = t.fingerprint();
    assert!(t.can_place_write_stub(2, s_ls, op(1), 2));
    assert!(!t.can_place_write_stub(1, s_ls, op(1), 2));
    let add0 = arch.fu_by_name("ADD0").expect("toy machine has ADD0");
    let rstub = arch.read_stubs(add0, 1)[0];
    assert!(t.can_place_read_stub(1, rstub, op(2), 1));
    assert_eq!(t.fingerprint(), before);
    // The probe really was admissible: the claim itself succeeds.
    assert!(t.place_write_stub(2, s_ls, op(1), 2));
}

#[test]
fn modulo_table_folds_stub_claims_onto_rows() {
    let arch = toy::motivating_example();
    let (s_add, s_ls) = stubs_sharing_a_bus(&arch);
    let mut m = table(&arch, TableMode::Modulo(3));
    assert!(m.place_write_stub(1, s_add, op(0), 1));
    // 4 ≡ 1 and -2 ≡ 1 (mod 3) land on the claimed row; 5 ≡ 2 does not.
    assert!(!m.place_write_stub(4, s_ls, op(1), 2));
    assert!(!m.place_write_stub(-2, s_ls, op(1), 2));
    assert!(m.place_write_stub(5, s_ls, op(1), 2));
    assert_eq!(m.occupancy(7, Resource::Bus(s_add.bus)), 1);
    // Straight-line tables have no row below cycle 0.
    let mut l = table(&arch, TableMode::Linear);
    assert!(!l.place_write_stub(-1, s_add, op(0), 1));
    assert!(l.place_write_stub(100, s_add, op(0), 1));
}

#[test]
fn copy_inserting_schedule_is_reproducible() {
    // DCT on the distributed machine inserts copies, so its search runs
    // nested copy placements; the engine keeps no state across calls.
    let arch = imagine::distributed();
    let w = csched::kernels::by_name("DCT").expect("known kernel");
    let first = schedule(&arch, "DCT", SchedulerConfig::default());
    let second = schedule(&arch, "DCT", SchedulerConfig::default());
    assert!(first.num_copies() > 0, "DCT on distributed needs copies");
    assert_eq!(first.stats(), second.stats());
    assert_eq!(
        first.render(&arch, &w.kernel),
        second.render(&arch, &w.kernel)
    );
}

#[test]
fn tracing_only_observes_the_search() {
    let arch = imagine::distributed();
    let w = csched::kernels::by_name("DCT").expect("known kernel");
    let plain = schedule(&arch, "DCT", SchedulerConfig::default());
    let mut sink = RingBufferSink::new(64);
    let traced = ScheduleRequest {
        config: SchedulerConfig::default(),
        sink: Some(&mut sink),
        ..ScheduleRequest::default()
    }
    .run(&arch, &w.kernel)
    .0
    .unwrap_or_else(|e| panic!("DCT on distributed: {e}"));
    assert!(!sink.is_empty());
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(
        plain.render(&arch, &w.kernel),
        traced.render(&arch, &w.kernel)
    );
}

#[test]
fn comm_id_order_search_schedules_exactly_with_copies() {
    // With `closing_first` off the full re-permutation takes participants
    // in comm-id order; the result must still validate and compute the
    // reference output.
    let mut copies = 0;
    for (arch, name) in [
        (imagine::clustered(4), "Sort"),
        (imagine::distributed(), "DCT"),
    ] {
        let w = csched::kernels::by_name(name).expect("known kernel");
        let s = schedule(&arch, name, SchedulerConfig::without_closing_first());
        validate::validate(&arch, &w.kernel, &s)
            .unwrap_or_else(|e| panic!("{name} on {}: {e:?}", arch.name()));
        let mut mem = w.memory();
        csched::sim::execute(&w.kernel, &s, &mut mem, w.trip)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", arch.name()));
        w.verify(&mem).unwrap_or_else(|e| panic!("{e}"));
        copies += s.num_copies();
    }
    assert!(copies > 0, "the comm-id order path never inserted a copy");
}
