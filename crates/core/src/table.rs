//! Transactional per-cycle resource tables on dense modulo-indexed
//! occupancy arrays.
//!
//! Communication scheduling is trial-heavy: a placement attempt claims
//! issue slots, outputs, buses and ports, and the whole attempt must be
//! rolled back exactly if any later step fails (paper §4.3: "if
//! communication scheduling fails, any routes assigned to communications
//! to/from the current operation are unassigned"). The table therefore
//! journals every claim and exposes savepoint/rollback.
//!
//! # Hot-path layout (DESIGN.md §14)
//!
//! The table is a flat `Vec` of *cells*, one per `(row, resource)` pair,
//! indexed `row * num_resources + resource_index` with the dense resource
//! indices of [`ResourceMap`]. In modulo mode the row is `cycle mod II`
//! and all `II` rows are allocated up front; in linear mode the row is
//! the cycle itself and rows grow geometrically on demand. A cell is a
//! small inline list of `(payload, refcount)` claims whose capacity is
//! *retained* when the cell empties, so the steady-state placement loop
//! performs no allocation at all — the previous design paid a hashmap
//! probe (hash + bucket walk) per claim and allocated a fresh list per
//! occupied `(cycle, resource)` key.
//!
//! Savepoint/rollback is a generation-stamped undo log: every mutation
//! appends a [`JournalEntry`] naming the flat cell it touched, a
//! [`Savepoint`] is the journal length stamped with the table's rollback
//! generation, and rolling back pops entries in reverse. The generation
//! stamp makes stale savepoints (taken before an enclosing rollback
//! already unwound past them) detectable in debug builds instead of
//! silently corrupting claims.
//!
//! The table understands the paper's sharing rules (§4.2):
//!
//! - a functional-unit output produces one result per cycle but may drive
//!   up to `fanout` buses with it;
//! - a bus carries one value per cycle and may broadcast it to several
//!   write ports ("two write stubs for the same result only conflict if
//!   they write to the same register file using different buses or
//!   register file ports");
//! - a write port accepts one (value, bus) pair per cycle;
//! - read-side resources are claimed per consumer operand; the
//!   communications of one operand (e.g. a loop variable's init and
//!   carried communications) share one read stub ("two read stubs for the
//!   same operand conflict if they are not identical").
//!
//! In modulo mode (software pipelining), cycles fold into `cycle mod II`.
//! Linear tables expect non-negative cycles (the driver never schedules
//! below cycle 0); a negative linear cycle is rejected as a conflict.

use csched_machine::{FuId, ReadPortId, ReadStub, Resource, ResourceMap, WriteStub};

use crate::universe::SOpId;

/// How cycles map onto table rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableMode {
    /// Straight-line code: each cycle is its own row.
    Linear,
    /// Modulo scheduling with the given initiation interval.
    Modulo(u32),
}

/// What occupies a resource on a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Payload {
    /// Issue slot held by an operation.
    Op(SOpId),
    /// Write-side claim: the producing operation (result identity) and the
    /// bus used.
    Write { value: SOpId, bus: u32 },
    /// Write-side bus claim: the value on the bus.
    WriteBus { value: SOpId },
    /// Read-side bus claim: the read port driving the bus.
    ReadBus { port: ReadPortId },
    /// Read-side claim by a consumer operand.
    Read { op: SOpId, slot: u8 },
}

/// A claim journal entry for rollback: the flat cell touched, the payload,
/// and whether it was added (rollback removes) or released (rollback
/// re-adds).
#[derive(Clone, Copy, Debug)]
struct JournalEntry {
    /// Flat cell index `row * num_resources + resource_index`.
    cell: u32,
    payload: Payload,
    /// `true` for claims added, `false` for claims released (rollback
    /// re-adds those).
    added: bool,
}

/// The per-block resource table. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct ResourceTable {
    mode: TableMode,
    map: ResourceMap,
    /// Number of resources (row stride).
    nres: usize,
    /// Allocated rows (`cells.len() / nres`). Fixed at the II in modulo
    /// mode; grows on demand in linear mode.
    rows: usize,
    /// `cells[row * nres + resource]` = the claims on that resource in
    /// that row. Emptied cells keep their capacity.
    cells: Vec<Vec<(Payload, u32)>>,
    journal: Vec<JournalEntry>,
    /// Rollback generation: bumped by every [`ResourceTable::rollback`].
    generation: u64,
}

/// A savepoint for rollback: a journal position stamped with the rollback
/// generation it was taken in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Savepoint {
    len: usize,
    generation: u64,
}

/// A resolved table row (see [`ResourceTable::claim_row`]): the flat
/// index of the row's first cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Row(usize);

impl ResourceTable {
    /// Creates an empty table for an architecture's resources.
    pub fn new(map: ResourceMap, mode: TableMode) -> Self {
        let nres = map.len();
        let rows = match mode {
            TableMode::Linear => 0,
            TableMode::Modulo(ii) => ii.max(1) as usize,
        };
        ResourceTable {
            mode,
            map,
            nres,
            rows,
            cells: vec![Vec::new(); rows * nres],
            journal: Vec::new(),
            generation: 0,
        }
    }

    /// The table's mode.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// The row `cycle` folds onto, or `None` for a negative linear cycle
    /// (never scheduled; see the module docs).
    #[inline]
    fn row(&self, cycle: i64) -> Option<usize> {
        match self.mode {
            TableMode::Linear => (cycle >= 0).then_some(cycle as usize),
            TableMode::Modulo(ii) => Some(cycle.rem_euclid(ii as i64) as usize),
        }
    }

    /// `cycle`'s row for reading: `None` when the row was never allocated
    /// (trivially unoccupied).
    #[inline]
    fn read_row(&self, cycle: i64) -> Option<Row> {
        let row = self.row(cycle)?;
        (row < self.rows).then_some(Row(row * self.nres))
    }

    /// Resolves `cycle`'s row for a run of claims, growing a linear table
    /// on demand. `None` only for negative linear cycles.
    ///
    /// Every claim on one cycle lands in one row, so a caller making many
    /// claims on a cycle — the §4.3 stub permutation searches — resolves
    /// the row once and claims through the `*_in` methods instead of
    /// folding the cycle again inside every claim. A [`Row`] stays valid
    /// for the table's lifetime: rollback never shrinks the table and
    /// linear growth only appends rows.
    #[inline]
    pub(crate) fn claim_row(&mut self, cycle: i64) -> Option<Row> {
        let row = self.row(cycle)?;
        if row >= self.rows {
            debug_assert!(matches!(self.mode, TableMode::Linear));
            // Geometric growth keeps amortised claim cost O(1); retained
            // cells are reused for the rest of the schedule.
            let new_rows = (row + 1).next_power_of_two().max(8);
            self.cells.resize(new_rows * self.nres, Vec::new());
            self.rows = new_rows;
        }
        Some(Row(row * self.nres))
    }

    /// Flat index of `resource`'s cell in `row`.
    #[inline]
    fn cell(&self, row: Row, resource: Resource) -> usize {
        row.0 + self.map.index(resource)
    }

    /// Number of distinct claims on `resource` at `cycle` (0 = free).
    pub fn occupancy(&self, cycle: i64, resource: Resource) -> usize {
        self.read_row(cycle)
            .map_or(0, |row| self.cells[self.cell(row, resource)].len())
    }

    /// Per-row occupancy of `resource` over the first `rows` rows
    /// (`0..rows`): the table's occupancy histogram for one resource,
    /// used by the metrics layer. For a modulo table, `rows` is normally
    /// the II; rows past the fold repeat. The dense layout makes this a
    /// strided walk over one column — the resource index is resolved
    /// once, not once per row.
    pub fn occupancy_profile(&self, resource: Resource, rows: i64) -> Vec<usize> {
        let n = rows.max(0) as usize;
        let ridx = self.map.index(resource);
        (0..n)
            .map(|r| {
                let row = match self.mode {
                    TableMode::Linear => r,
                    TableMode::Modulo(ii) => r % ii.max(1) as usize,
                };
                if row >= self.rows {
                    0
                } else {
                    self.cells[row * self.nres + ridx].len()
                }
            })
            .collect()
    }

    /// An order-independent digest of the table's current claims (used by
    /// tests to prove that rollback restores state exactly, and handy when
    /// debugging the scheduler).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            // Entries within a cell are order-independent (swap_remove
            // reorders them): combine per-entry hashes commutatively.
            let mut combined: u64 = 0;
            for entry in cell {
                let mut eh = std::collections::hash_map::DefaultHasher::new();
                entry.hash(&mut eh);
                combined = combined.wrapping_add(eh.finish());
            }
            (i as u64, cell.len() as u64, combined).hash(&mut h);
        }
        h.finish()
    }

    /// Marks the current journal position.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            len: self.journal.len(),
            generation: self.generation,
        }
    }

    /// Reverts every claim change (addition or release) made since `sp`.
    pub fn rollback(&mut self, sp: Savepoint) {
        // A savepoint from an older generation whose position has already
        // been unwound past is stale; rolling back to it would corrupt the
        // refcounts. Trip debug builds, degrade to a no-op in release
        // (the placement fails and validation rejects the schedule).
        debug_assert!(
            sp.len <= self.journal.len(),
            "stale savepoint: journal already unwound past it"
        );
        if self.journal.len() > sp.len {
            self.generation = self.generation.wrapping_add(1);
        }
        while self.journal.len() > sp.len {
            let Some(entry) = self.journal.pop() else {
                break; // unreachable: the loop condition guarantees an entry
            };
            let list = &mut self.cells[entry.cell as usize];
            if entry.added {
                // A journalled addition always has a matching live claim;
                // tolerate its absence (skip) rather than panic, so a
                // corrupted table degrades into a failed schedule that
                // validation rejects instead of aborting the process.
                let Some(pos) = list.iter().position(|(p, _)| *p == entry.payload) else {
                    debug_assert!(false, "journalled claim missing on rollback");
                    continue;
                };
                if list[pos].1 > 1 {
                    list[pos].1 -= 1;
                } else {
                    list.swap_remove(pos);
                }
            } else {
                // Re-add a released claim.
                match list.iter_mut().find(|(p, _)| *p == entry.payload) {
                    Some((_, count)) => *count += 1,
                    None => list.push((entry.payload, 1)),
                }
            }
        }
    }

    fn release(&mut self, cell: usize, payload: Payload) {
        // Releasing a claim that is not held indicates an engine bug; skip
        // (and trip debug builds) rather than panic — the resulting table
        // can only over-constrain later placements, never corrupt a
        // schedule that validation accepts.
        let list = &mut self.cells[cell];
        let Some(pos) = list.iter().position(|(p, _)| *p == payload) else {
            debug_assert!(false, "released claim missing");
            return;
        };
        if list[pos].1 > 1 {
            list[pos].1 -= 1;
        } else {
            list.swap_remove(pos);
        }
        self.journal.push(JournalEntry {
            cell: cell as u32,
            payload,
            added: false,
        });
    }

    /// Releases one placement of a write stub made with
    /// [`ResourceTable::place_write_stub`] (used when the permutation
    /// search revises a tentative open-communication stub, paper §4.3
    /// step 2/3). The release itself is journalled, so a later rollback
    /// restores the claim. Releasing a stub that was never placed is an
    /// engine bug; it is skipped (debug builds trip an assertion).
    pub fn unplace_write_stub(&mut self, cycle: i64, stub: WriteStub, value: SOpId) {
        let Some(row) = self.read_row(cycle) else {
            debug_assert!(false, "released claim on an unallocated row");
            return;
        };
        self.unplace_write_stub_in(row, stub, value);
    }

    /// [`ResourceTable::unplace_write_stub`] in a resolved row.
    pub(crate) fn unplace_write_stub_in(&mut self, row: Row, stub: WriteStub, value: SOpId) {
        let payload = Payload::Write {
            value,
            bus: stub.bus.index() as u32,
        };
        self.release(self.cell(row, Resource::FuOutput(stub.fu)), payload);
        self.release(
            self.cell(row, Resource::Bus(stub.bus)),
            Payload::WriteBus { value },
        );
        self.release(self.cell(row, Resource::WritePort(stub.port)), payload);
    }

    /// Releases one placement of a read stub made with
    /// [`ResourceTable::place_read_stub`]. Releasing a stub that was never
    /// placed is an engine bug; it is skipped (debug builds trip an
    /// assertion).
    pub fn unplace_read_stub(&mut self, cycle: i64, stub: ReadStub, op: SOpId, slot: usize) {
        let Some(row) = self.read_row(cycle) else {
            debug_assert!(false, "released claim on an unallocated row");
            return;
        };
        self.unplace_read_stub_in(row, stub, op, slot);
    }

    /// [`ResourceTable::unplace_read_stub`] in a resolved row.
    pub(crate) fn unplace_read_stub_in(
        &mut self,
        row: Row,
        stub: ReadStub,
        op: SOpId,
        slot: usize,
    ) {
        let payload = Payload::Read {
            op,
            slot: slot as u8,
        };
        self.release(self.cell(row, Resource::ReadPort(stub.port)), payload);
        self.release(
            self.cell(row, Resource::Bus(stub.bus)),
            Payload::ReadBus { port: stub.port },
        );
        self.release(self.cell(row, Resource::FuInput(stub.input())), payload);
    }

    /// Applies an admission decision computed by `admit_exclusive` /
    /// `admit_output` against the cell's current claim list, journalling
    /// the addition. `Conflict` must be filtered out by the caller before
    /// mutating anything; it is tolerated here as a no-op (debug builds
    /// trip an assertion) so a logic error degrades into a failed schedule
    /// rather than a corrupted table.
    fn apply_claim(&mut self, cell: usize, payload: Payload, adm: Admission) {
        let list = &mut self.cells[cell];
        match adm {
            Admission::Conflict => {
                debug_assert!(false, "applied a conflicting claim");
                return;
            }
            Admission::Identical(pos) => list[pos].1 += 1,
            Admission::Additional => list.push((payload, 1)),
        }
        self.journal.push(JournalEntry {
            cell: cell as u32,
            payload,
            added: true,
        });
    }

    /// Claims the issue slot of `fu` for `op` on cycles
    /// `cycle .. cycle + interval` (partially pipelined capabilities hold
    /// the unit for several cycles). Leaves the table untouched on failure.
    pub fn place_issue(&mut self, cycle: i64, fu: FuId, interval: u32, op: SOpId) -> bool {
        if let TableMode::Modulo(ii) = self.mode {
            if interval > ii {
                return false; // cannot re-issue fast enough
            }
        }
        // The claimed cycles map to distinct cells (`interval <= II` in
        // modulo mode), so the admissions are independent: check them all
        // read-only, then mutate only when every cycle admits. The failure
        // path touches neither the cells nor the journal, so the hot
        // permutation search never pays for journalling doomed claims.
        let payload = Payload::Op(op);
        for i in 0..interval as i64 {
            let Some(row) = self.claim_row(cycle + i) else {
                return false;
            };
            let cell = self.cell(row, Resource::FuIssue(fu));
            if matches!(
                admit_exclusive(&self.cells[cell], payload),
                Admission::Conflict
            ) {
                return false;
            }
        }
        for i in 0..interval as i64 {
            let Some(row) = self.claim_row(cycle + i) else {
                debug_assert!(false, "claimable cell vanished between check and apply");
                return false;
            };
            let cell = self.cell(row, Resource::FuIssue(fu));
            let adm = admit_exclusive(&self.cells[cell], payload);
            self.apply_claim(cell, payload, adm);
        }
        true
    }

    /// Claims the resources of a write stub on `cycle` for the result of
    /// `value` (identified by its producing operation). `fanout` is the
    /// producing unit's maximum simultaneous bus drive count. Leaves the
    /// table untouched on failure.
    pub fn place_write_stub(
        &mut self,
        cycle: i64,
        stub: WriteStub,
        value: SOpId,
        fanout: usize,
    ) -> bool {
        match self.claim_row(cycle) {
            Some(row) => self.place_write_stub_in(row, stub, value, fanout),
            None => false,
        }
    }

    /// [`ResourceTable::place_write_stub`] in a resolved row.
    pub(crate) fn place_write_stub_in(
        &mut self,
        row: Row,
        stub: WriteStub,
        value: SOpId,
        fanout: usize,
    ) -> bool {
        let bus_raw = stub.bus.index() as u32;
        let wpayload = Payload::Write {
            value,
            bus: bus_raw,
        };

        // The three claims live in distinct cells (distinct resource
        // kinds), so their admissions are independent: resolve every cell,
        // check every admission read-only, and mutate only when all three
        // admit. The failure path — the common case during the §4.3
        // permutation search — touches neither the cells nor the journal.
        let ocell = self.cell(row, Resource::FuOutput(stub.fu));
        let bcell = self.cell(row, Resource::Bus(stub.bus));
        let pcell = self.cell(row, Resource::WritePort(stub.port));

        // Output: one value; up to `fanout` distinct buses.
        let o_adm = admit_output(&self.cells[ocell], value, bus_raw, fanout);
        if matches!(o_adm, Admission::Conflict) {
            return false;
        }
        // Bus: one value, broadcast allowed.
        let b_adm = admit_exclusive(&self.cells[bcell], Payload::WriteBus { value });
        if matches!(b_adm, Admission::Conflict) {
            return false;
        }
        // Write port: one (value, bus) pair.
        let p_adm = admit_exclusive(&self.cells[pcell], wpayload);
        if matches!(p_adm, Admission::Conflict) {
            return false;
        }

        self.apply_claim(ocell, wpayload, o_adm);
        self.apply_claim(bcell, Payload::WriteBus { value }, b_adm);
        self.apply_claim(pcell, wpayload, p_adm);
        true
    }

    /// Claims the resources of a read stub on `cycle` for consumer operand
    /// `(op, slot)`. Leaves the table untouched on failure.
    pub fn place_read_stub(&mut self, cycle: i64, stub: ReadStub, op: SOpId, slot: usize) -> bool {
        match self.claim_row(cycle) {
            Some(row) => self.place_read_stub_in(row, stub, op, slot),
            None => false,
        }
    }

    /// [`ResourceTable::place_read_stub`] in a resolved row.
    pub(crate) fn place_read_stub_in(
        &mut self,
        row: Row,
        stub: ReadStub,
        op: SOpId,
        slot: usize,
    ) -> bool {
        let payload = Payload::Read {
            op,
            slot: slot as u8,
        };
        // As in `place_write_stub_in`: distinct cells, so check all three
        // admissions read-only before mutating anything.
        let rcell = self.cell(row, Resource::ReadPort(stub.port));
        let bcell = self.cell(row, Resource::Bus(stub.bus));
        let icell = self.cell(row, Resource::FuInput(stub.input()));

        let r_adm = admit_exclusive(&self.cells[rcell], payload);
        if matches!(r_adm, Admission::Conflict) {
            return false;
        }
        // Bus: shareable between identical source ports (broadcast).
        let b_adm = admit_exclusive(&self.cells[bcell], Payload::ReadBus { port: stub.port });
        if matches!(b_adm, Admission::Conflict) {
            return false;
        }
        let i_adm = admit_exclusive(&self.cells[icell], payload);
        if matches!(i_adm, Admission::Conflict) {
            return false;
        }

        self.apply_claim(rcell, payload, r_adm);
        self.apply_claim(bcell, Payload::ReadBus { port: stub.port }, b_adm);
        self.apply_claim(icell, payload, i_adm);
        true
    }

    /// Whether a write stub could be placed (non-mutating probe).
    pub fn can_place_write_stub(
        &mut self,
        cycle: i64,
        stub: WriteStub,
        value: SOpId,
        fanout: usize,
    ) -> bool {
        let sp = self.savepoint();
        let ok = self.place_write_stub(cycle, stub, value, fanout);
        self.rollback(sp);
        ok
    }

    /// Whether a read stub could be placed (non-mutating probe).
    pub fn can_place_read_stub(
        &mut self,
        cycle: i64,
        stub: ReadStub,
        op: SOpId,
        slot: usize,
    ) -> bool {
        let sp = self.savepoint();
        let ok = self.place_read_stub(cycle, stub, op, slot);
        self.rollback(sp);
        ok
    }
}

enum Admission {
    /// Same claim already present: bump its refcount.
    Identical(usize),
    /// Compatible new claim.
    Additional,
    /// Incompatible.
    Conflict,
}

/// Admission for resources carrying one claim per cycle: identical claims
/// share (refcounted), anything else conflicts.
fn admit_exclusive(list: &[(Payload, u32)], p: Payload) -> Admission {
    match list.first() {
        Some((e, _)) if *e == p => Admission::Identical(0),
        Some(_) => Admission::Conflict,
        None => Admission::Additional,
    }
}

/// Admission for a unit's output: one value per cycle, broadcast onto up
/// to `fanout` distinct buses.
fn admit_output(list: &[(Payload, u32)], value: SOpId, bus: u32, fanout: usize) -> Admission {
    // The distinct-bus count is over a list at most `fanout` long: count
    // in place instead of allocating a set.
    for (e, _) in list {
        match e {
            Payload::Write { value: ev, .. } => {
                if *ev != value {
                    return Admission::Conflict;
                }
            }
            _ => return Admission::Conflict,
        }
    }
    let p = Payload::Write { value, bus };
    if let Some(pos) = list.iter().position(|(e, _)| *e == p) {
        return Admission::Identical(pos);
    }
    let mut distinct = 1usize; // the new bus
    for (i, (e, _)) in list.iter().enumerate() {
        let Payload::Write { bus: eb, .. } = e else {
            continue;
        };
        if *eb == bus {
            continue;
        }
        let first = !list[..i]
            .iter()
            .any(|(prev, _)| matches!(prev, Payload::Write { bus: pb, .. } if pb == eb));
        if first {
            distinct += 1;
        }
    }
    if distinct <= fanout {
        Admission::Additional
    } else {
        Admission::Conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::{toy, Architecture};

    fn setup() -> (Architecture, ResourceTable) {
        let arch = toy::motivating_example();
        let table = ResourceTable::new(ResourceMap::new(&arch), TableMode::Linear);
        (arch, table)
    }

    fn op(i: usize) -> SOpId {
        SOpId::from_raw(i)
    }

    #[test]
    fn issue_slot_is_exclusive() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(0, fu, 1, op(0)));
        assert!(!t.place_issue(0, fu, 1, op(1)));
        assert!(t.place_issue(1, fu, 1, op(1)));
    }

    #[test]
    fn issue_interval_occupies_multiple_cycles() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(0, fu, 3, op(0)));
        assert!(!t.place_issue(2, fu, 1, op(1)));
        assert!(t.place_issue(3, fu, 1, op(1)));
    }

    #[test]
    fn bus_conflict_between_different_values() {
        let (arch, mut t) = setup();
        // ADD0 and LS both drive BUS0; two different results on the same
        // cycle conflict — the Figure 6 incorrect-schedule scenario.
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let ls = arch.fu_by_name("LS").unwrap();
        let s_add = arch.write_stubs(add0)[0];
        let s_ls = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| s.bus == s_add.bus)
            .unwrap();
        assert!(t.place_write_stub(0, s_add, op(0), 1));
        assert!(!t.place_write_stub(0, s_ls, op(1), 2));
        // A different cycle is fine.
        assert!(t.place_write_stub(1, s_ls, op(1), 2));
    }

    #[test]
    fn bus_broadcast_of_same_value() {
        let (arch, mut t) = setup();
        // LS's BUS1 reaches RF1 and RFC: same value to both ports is legal.
        let ls = arch.fu_by_name("LS").unwrap();
        let stubs: Vec<_> = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .filter(|s| arch.bus(s.bus).name() == "BUS1")
            .collect();
        assert_eq!(stubs.len(), 2);
        assert!(t.place_write_stub(0, stubs[0], op(0), 2));
        assert!(t.place_write_stub(0, stubs[1], op(0), 2));
    }

    #[test]
    fn output_fanout_limits_distinct_buses() {
        let (arch, mut t) = setup();
        let ls = arch.fu_by_name("LS").unwrap();
        let bus0_stub = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| arch.bus(s.bus).name() == "BUS0")
            .unwrap();
        let bus1_stub = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .find(|s| arch.bus(s.bus).name() == "BUS1")
            .unwrap();
        // Fanout 1: one bus only.
        assert!(t.place_write_stub(0, bus0_stub, op(0), 1));
        assert!(!t.place_write_stub(0, bus1_stub, op(0), 1));
        // Fanout 2 (LS's real capability): both buses, same value.
        assert!(t.place_write_stub(1, bus0_stub, op(0), 2));
        assert!(t.place_write_stub(1, bus1_stub, op(0), 2));
    }

    #[test]
    fn output_single_value_per_cycle() {
        let (arch, mut t) = setup();
        let ls = arch.fu_by_name("LS").unwrap();
        let stubs = arch.write_stubs(ls);
        assert!(t.place_write_stub(0, stubs[0], op(0), 2));
        let other_bus = stubs
            .iter()
            .copied()
            .find(|s| s.bus != stubs[0].bus)
            .unwrap();
        assert!(!t.place_write_stub(0, other_bus, op(1), 2));
    }

    #[test]
    fn write_port_same_value_different_bus_conflicts() {
        let (arch, mut t) = setup();
        // RFC's shared port is reachable from BUS0 and BUS1. The same value
        // through different buses conflicts (paper §4.2).
        let ls = arch.fu_by_name("LS").unwrap();
        let rfc = arch.rf_by_name("RFC").unwrap();
        let to_rfc: Vec<_> = arch
            .write_stubs(ls)
            .iter()
            .copied()
            .filter(|s| s.rf == rfc)
            .collect();
        assert_eq!(to_rfc.len(), 2);
        assert!(t.place_write_stub(0, to_rfc[0], op(0), 2));
        assert!(!t.place_write_stub(0, to_rfc[1], op(0), 2));
    }

    #[test]
    fn read_stub_dedupe_and_conflict() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let stub = arch.read_stubs(add0, 0)[0];
        // Same operand twice (init + carried communications): dedupes.
        assert!(t.place_read_stub(0, stub, op(5), 0));
        assert!(t.place_read_stub(0, stub, op(5), 0));
        // A different operand on the same port conflicts.
        assert!(!t.place_read_stub(0, stub, op(6), 0));
    }

    #[test]
    fn rollback_restores_everything() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let stub = arch.write_stubs(add0)[0];
        assert!(t.place_write_stub(0, stub, op(0), 1));
        let sp = t.savepoint();
        assert!(t.place_issue(0, add0, 1, op(1)));
        let rstub = arch.read_stubs(add0, 0)[0];
        assert!(t.place_read_stub(0, rstub, op(1), 0));
        t.rollback(sp);
        // Issue and read slots are free again; the earlier write remains.
        assert!(t.place_issue(0, add0, 1, op(9)));
        assert!(t.place_read_stub(0, rstub, op(9), 0));
        let other = arch.fu_by_name("LS").unwrap();
        let conflicting = arch
            .write_stubs(other)
            .iter()
            .copied()
            .find(|s| s.bus == stub.bus)
            .unwrap();
        assert!(!t.place_write_stub(0, conflicting, op(9), 2));
    }

    #[test]
    fn refcounted_rollback_keeps_shared_claims() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let rstub = arch.read_stubs(add0, 0)[0];
        assert!(t.place_read_stub(0, rstub, op(5), 0));
        let sp = t.savepoint();
        assert!(t.place_read_stub(0, rstub, op(5), 0)); // second comm, same operand
        t.rollback(sp);
        // Operand claim is still held by the first communication.
        assert!(!t.place_read_stub(0, rstub, op(6), 0));
    }

    #[test]
    fn modulo_mode_folds_cycles() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(4));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(1, fu, 1, op(0)));
        // Cycle 5 maps to the same modulo slot.
        assert!(!t.place_issue(5, fu, 1, op(1)));
        assert!(t.place_issue(6, fu, 1, op(1)));
    }

    #[test]
    fn modulo_rejects_interval_beyond_ii() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(3));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(!t.place_issue(0, fu, 4, op(0)));
        assert!(t.place_issue(0, fu, 3, op(0)));
    }

    #[test]
    fn probes_do_not_mutate() {
        let (arch, mut t) = setup();
        let add0 = arch.fu_by_name("ADD0").unwrap();
        let stub = arch.write_stubs(add0)[0];
        assert!(t.can_place_write_stub(0, stub, op(0), 1));
        assert!(t.can_place_write_stub(0, stub, op(1), 1)); // still free
        let rstub = arch.read_stubs(add0, 1)[0];
        assert!(t.can_place_read_stub(0, rstub, op(0), 1));
        assert!(t.can_place_read_stub(0, rstub, op(1), 1));
    }

    #[test]
    fn negative_linear_cycle_is_rejected_not_corrupting() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        let fp = t.fingerprint();
        assert!(!t.place_issue(-1, fu, 1, op(0)));
        assert_eq!(t.occupancy(-1, Resource::FuIssue(fu)), 0);
        assert_eq!(t.fingerprint(), fp);
        // Modulo mode folds negatives instead.
        let mut m = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(4));
        assert!(m.place_issue(-1, fu, 1, op(0)));
        assert!(!m.place_issue(3, fu, 1, op(1))); // -1 mod 4 == 3
    }

    #[test]
    fn modulo_profile_repeats_past_the_fold() {
        let (arch, _) = setup();
        let mut t = ResourceTable::new(ResourceMap::new(&arch), TableMode::Modulo(3));
        let fu = arch.fu_by_name("ADD0").unwrap();
        assert!(t.place_issue(1, fu, 1, op(0)));
        assert_eq!(
            t.occupancy_profile(Resource::FuIssue(fu), 7),
            vec![0, 1, 0, 0, 1, 0, 0]
        );
    }

    #[test]
    fn stale_savepoint_is_ignored_in_release() {
        let (arch, mut t) = setup();
        let fu = arch.fu_by_name("ADD0").unwrap();
        let outer = t.savepoint();
        assert!(t.place_issue(0, fu, 1, op(0)));
        let inner = t.savepoint();
        t.rollback(outer);
        // `inner` now points past the journal's end: a later-generation
        // position. Rolling back to it must not invent claims.
        let fp = t.fingerprint();
        if !cfg!(debug_assertions) {
            t.rollback(inner);
            assert_eq!(t.fingerprint(), fp);
        }
        assert!(inner.len > t.savepoint().len);
    }
}
