//! Dense connectivity cache for the placement inner loop (DESIGN.md §14).
//!
//! Every placement attempt scores candidate stubs by *copy distance* —
//! how many copy operations it takes to move a value between register
//! files (paper §4.6, eq 1). Those distances derive purely from the
//! [`Architecture`]: which units write which files, which buses reach
//! which ports. The engine used to memoise them in per-engine hashmaps,
//! paying a hash probe per score and rebuilding the memo for every II
//! attempt; on the distributed Imagine machine (~370 write stubs per
//! unit) that was the dominant cost of scheduling.
//!
//! [`ConnCache`] precomputes the whole family once per architecture into
//! flat arrays indexed by dense ids, so the hot path is a bounds-checked
//! load. It is independent of the initiation interval and the scheduler
//! configuration, which makes it shareable across the entire II search
//! *and* every rung of the retry ladder (`Arc`-held by each
//! [`Engine`](crate::Engine)):
//!
//! - [`ConnCache::fus_for`]: units able to execute an opcode, in
//!   architecture order (replaces an allocation per query);
//! - [`ConnCache::fu_to_rf`] / [`ConnCache::producer_to_rf`] /
//!   [`ConnCache::min_route_copies`] / [`ConnCache::fu_to_consumer`] /
//!   [`ConnCache::rf_to_consumer`]: the five copy-distance families the
//!   engine's eq-1 scoring asks for, as O(1) table reads (`u32::MAX`
//!   encodes *unreachable*, so each table doubles as a reachability
//!   mask);
//! - [`ConnCache::write_stub_groups`]: each unit's write stubs regrouped
//!   by target register file, so per-(FU, RF) candidate enumeration and
//!   stub revision walk one short slice and compute one distance per
//!   *file* instead of one per *stub*;
//! - [`ConnCache::copy_rank`]: the copy-unit preference order used by
//!   copy insertion (paper §4.3 step 5), precomputed per staging file.
//!
//! Nothing in the cache depends on scheduling state, so sharing it across
//! attempts cannot change any placement decision — the schedule-identity
//! invariant that lets `csched bench --compare` gate the rebuild
//! byte-for-byte (see DESIGN.md §14).

use csched_machine::{Architecture, CopyConnectivity, FuId, Opcode, RfId, WriteStub};

const NONE: u32 = u32::MAX;

/// One unit's write stubs that target a single register file. `start..end`
/// indexes the regrouped stub array of [`ConnCache::write_stub_groups`].
#[derive(Clone, Copy, Debug)]
pub struct WstubGroup {
    /// The register file every stub in the group writes.
    pub rf: RfId,
    /// First stub of the group (inclusive).
    pub start: u32,
    /// One past the last stub of the group.
    pub end: u32,
    /// First port run of the group in [`ConnCache::write_stub_port_runs`].
    pub runs_start: u32,
    /// One past the group's last port run.
    pub runs_end: u32,
}

/// A maximal run of one unit's write stubs sharing a `(file, port)` pair,
/// with buses in ascending order. The engine's write-candidate ranking
/// sorts stubs by `(score, rotated port, rotated bus)`; the score is
/// constant per file and the rotated port per run, so ranking runs and
/// walking each run's bus ring in rotated order reproduces the full sort
/// without ever materialising per-stub keys.
#[derive(Clone, Copy, Debug)]
pub struct PortRun {
    /// Raw index of the write port every stub in the run uses.
    pub port: u32,
    /// First stub of the run (inclusive) in the regrouped stub array.
    pub start: u32,
    /// One past the last stub of the run.
    pub end: u32,
}

/// Copy-capable units ranked for staging a value out of one register
/// file: direct readers first (score 0), then reachable units by copy
/// distance (8 + d), unreachable last (100 000) — the exact scoring of
/// the engine's copy insertion, hoisted out of the attempt loop.
#[derive(Clone, Debug, Default)]
pub struct CopyRank {
    fus: Vec<(i64, FuId)>,
    direct: usize,
}

impl CopyRank {
    /// The ranked `(score, unit)` list, best first.
    pub fn fus(&self) -> &[(i64, FuId)] {
        &self.fus
    }

    /// How many leading entries read the staging file directly (score 0).
    pub fn direct_count(&self) -> usize {
        self.direct
    }
}

/// The precomputed connectivity tables. See the module docs.
#[derive(Clone, Debug)]
pub struct ConnCache {
    conn: CopyConnectivity,
    num_rfs: usize,
    num_fus: usize,
    /// Max operand slots of any unit (>= 1).
    max_slots: usize,
    num_opcodes: usize,
    fus_for: Vec<Vec<FuId>>,
    /// `[fu * num_rfs + rf]`: min copies from `fu`'s writable files to `rf`.
    fu_to_rf: Vec<u32>,
    /// `[(p * num_fus + q) * max_slots + slot]`: min copies on any route
    /// from `p`'s output to `q`'s operand `slot`.
    route: Vec<u32>,
    /// `[(fu * num_opcodes + op) * max_slots + slot]`: min copies from `fu`
    /// to any unit able to run `op`.
    fu_to_consumer: Vec<u32>,
    /// `[(rf * num_opcodes + op) * max_slots + slot]`: min copies from file
    /// `rf` to any file readable by a unit able to run `op`.
    rf_to_consumer: Vec<u32>,
    /// `[op * num_rfs + rf]`: min copies from any unit able to run `op`
    /// into file `rf`.
    producer_to_rf: Vec<u32>,
    /// Per unit: its write stubs regrouped by target file.
    wstubs: Vec<Vec<WriteStub>>,
    wstub_groups: Vec<Vec<WstubGroup>>,
    /// Per unit: the `(file, port)` runs of its regrouped write stubs.
    wstub_runs: Vec<Vec<PortRun>>,
    /// Per register file: ranked copy units for staging a value out of it.
    copy_rank: Vec<CopyRank>,
}

#[inline]
fn opx(op: Opcode) -> usize {
    op as usize
}

#[inline]
fn lift(d: u32) -> Option<u32> {
    (d != NONE).then_some(d)
}

#[inline]
fn fold(best: &mut u32, d: Option<u32>) {
    if let Some(d) = d {
        if d < *best {
            *best = d;
        }
    }
}

impl ConnCache {
    /// Builds every table for `arch`. Cost is a few hundred thousand
    /// integer operations (dominated by the Floyd–Warshall inside
    /// [`Architecture::copy_connectivity`]) — comparable to *one* engine
    /// construction under the old per-engine memoisation, after which
    /// every II attempt and retry rung reads for free.
    pub fn new(arch: &Architecture) -> Self {
        let conn = arch.copy_connectivity();
        let num_rfs = arch.num_rfs();
        let num_fus = arch.num_fus();
        let max_slots = arch
            .fu_ids()
            .map(|f| arch.fu(f).num_inputs())
            .max()
            .unwrap_or(0)
            .max(1);
        let num_opcodes = Opcode::ALL.len();
        debug_assert!(Opcode::ALL
            .iter()
            .enumerate()
            .all(|(i, &op)| op as usize == i));

        let fus_for: Vec<Vec<FuId>> = Opcode::ALL.iter().map(|&op| arch.fus_for(op)).collect();

        // Opcodes with identical capable-unit lists produce identical rows
        // in every per-opcode table below; map each opcode to the first
        // with the same list and compute each distinct row once.
        let mut class_rep: Vec<usize> = (0..num_opcodes).collect();
        for op in 0..num_opcodes {
            for prev in 0..op {
                if fus_for[prev] == fus_for[op] {
                    class_rep[op] = prev;
                    break;
                }
            }
        }

        // Distinct target files of each unit's write stubs (order of first
        // appearance; only the per-file distance minimum is consumed, so
        // order cannot affect results).
        let mut writable: Vec<Vec<RfId>> = vec![Vec::new(); num_fus];
        let mut writable_seen = vec![false; num_rfs];
        for fu in arch.fu_ids() {
            let list = &mut writable[fu.index()];
            writable_seen.iter_mut().for_each(|m| *m = false);
            for s in arch.write_stubs(fu) {
                if !writable_seen[s.rf.index()] {
                    writable_seen[s.rf.index()] = true;
                    list.push(s.rf);
                }
            }
        }

        // Units with identical writable-file sets share their `fu_to_rf`
        // row (on the distributed machine every unit writes every file, so
        // one row serves all sixteen units).
        let mut fu_rep: Vec<usize> = (0..num_fus).collect();
        for fu in 0..num_fus {
            for prev in 0..fu {
                if writable[prev] == writable[fu] {
                    fu_rep[fu] = prev;
                    break;
                }
            }
        }

        let mut fu_to_rf = vec![NONE; num_fus * num_rfs];
        for fu in 0..num_fus {
            if fu_rep[fu] != fu {
                let rep = fu_rep[fu];
                fu_to_rf.copy_within(rep * num_rfs..(rep + 1) * num_rfs, fu * num_rfs);
                continue;
            }
            for rf in 0..num_rfs {
                let target = RfId::from_raw(rf);
                let best = &mut fu_to_rf[fu * num_rfs + rf];
                for &src in &writable[fu] {
                    fold(best, conn.copy_distance(src, target));
                }
            }
        }

        // Slots past a unit's input count stay `NONE`: `read_stubs` is only
        // defined for `slot < num_inputs`, and no caller asks about a slot
        // a capable unit does not have.
        let mut route = vec![NONE; num_fus * num_fus * max_slots];
        for p in 0..num_fus {
            for q in 0..num_fus {
                let qid = FuId::from_raw(q);
                for slot in 0..arch.fu(qid).num_inputs().min(max_slots) {
                    let best = &mut route[(p * num_fus + q) * max_slots + slot];
                    for rs in arch.read_stubs(qid, slot) {
                        // min over p's writable files is already folded
                        // into `fu_to_rf`.
                        fold(best, lift(fu_to_rf[p * num_rfs + rs.rf.index()]));
                    }
                }
            }
        }

        let mut fu_to_consumer = vec![NONE; num_fus * num_opcodes * max_slots];
        for fu in 0..num_fus {
            for (op, fus) in fus_for.iter().enumerate() {
                let rep = class_rep[op];
                for slot in 0..max_slots {
                    let idx = (fu * num_opcodes + op) * max_slots + slot;
                    if rep != op {
                        fu_to_consumer[idx] =
                            fu_to_consumer[(fu * num_opcodes + rep) * max_slots + slot];
                        continue;
                    }
                    let best = &mut fu_to_consumer[idx];
                    for f in fus {
                        fold(
                            best,
                            lift(route[(fu * num_fus + f.index()) * max_slots + slot]),
                        );
                    }
                }
            }
        }

        // Readable-file mask per (opcode, slot), then a min-to-mask sweep
        // per source file.
        let mut rf_to_consumer = vec![NONE; num_rfs * num_opcodes * max_slots];
        let mut mask = vec![false; num_rfs];
        for (op, fus) in fus_for.iter().enumerate() {
            let rep = class_rep[op];
            if rep != op {
                for slot in 0..max_slots {
                    for rf in 0..num_rfs {
                        rf_to_consumer[(rf * num_opcodes + op) * max_slots + slot] =
                            rf_to_consumer[(rf * num_opcodes + rep) * max_slots + slot];
                    }
                }
                continue;
            }
            for slot in 0..max_slots {
                mask.iter_mut().for_each(|m| *m = false);
                for &f in fus {
                    if slot >= arch.fu(f).num_inputs() {
                        continue;
                    }
                    for rs in arch.read_stubs(f, slot) {
                        mask[rs.rf.index()] = true;
                    }
                }
                for rf in 0..num_rfs {
                    let from = RfId::from_raw(rf);
                    let best = &mut rf_to_consumer[(rf * num_opcodes + op) * max_slots + slot];
                    for (target, &in_mask) in mask.iter().enumerate() {
                        if in_mask {
                            fold(best, conn.copy_distance(from, RfId::from_raw(target)));
                        }
                    }
                }
            }
        }

        let mut producer_to_rf = vec![NONE; num_opcodes * num_rfs];
        for (op, fus) in fus_for.iter().enumerate() {
            let rep = class_rep[op];
            if rep != op {
                producer_to_rf.copy_within(rep * num_rfs..(rep + 1) * num_rfs, op * num_rfs);
                continue;
            }
            for rf in 0..num_rfs {
                let best = &mut producer_to_rf[op * num_rfs + rf];
                for f in fus {
                    fold(best, lift(fu_to_rf[f.index() * num_rfs + rf]));
                }
            }
        }

        // Regroup each unit's write stubs by target file. Group order and
        // intra-group order are canonical (file, then port, then bus); the
        // consumers sort by total orders in which (port, bus) is a unique
        // key, so the regrouping cannot change any candidate ranking.
        let mut wstubs: Vec<Vec<WriteStub>> = Vec::with_capacity(num_fus);
        let mut wstub_groups: Vec<Vec<WstubGroup>> = Vec::with_capacity(num_fus);
        let mut wstub_runs: Vec<Vec<PortRun>> = Vec::with_capacity(num_fus);
        let mut rf_buckets: Vec<Vec<WriteStub>> = vec![Vec::new(); num_rfs];
        for fu in arch.fu_ids() {
            // Bucket by target file, then sort each (small) bucket by
            // `(port, bus)`: equivalent to one sort by `(rf, port, bus)`
            // — a total order, stubs being unique — at near-linear cost.
            for &s in arch.write_stubs(fu) {
                rf_buckets[s.rf.index()].push(s);
            }
            let mut stubs: Vec<WriteStub> = Vec::with_capacity(arch.write_stubs(fu).len());
            for bucket in rf_buckets.iter_mut() {
                bucket.sort_unstable_by_key(|s| {
                    ((s.port.index() as u64) << 20) | s.bus.index() as u64
                });
                stubs.extend_from_slice(bucket);
                bucket.clear();
            }
            let mut groups: Vec<WstubGroup> = Vec::new();
            let mut runs: Vec<PortRun> = Vec::new();
            for (i, s) in stubs.iter().enumerate() {
                let idx = i as u32;
                let same_group = matches!(groups.last(), Some(g) if g.rf == s.rf);
                if let Some(g) = groups.last_mut().filter(|_| same_group) {
                    g.end = idx + 1;
                } else {
                    groups.push(WstubGroup {
                        rf: s.rf,
                        start: idx,
                        end: idx + 1,
                        runs_start: runs.len() as u32,
                        runs_end: runs.len() as u32,
                    });
                }
                let same_run =
                    same_group && matches!(runs.last(), Some(r) if r.port == s.port.index() as u32);
                if let Some(r) = runs.last_mut().filter(|_| same_run) {
                    r.end = idx + 1;
                } else {
                    runs.push(PortRun {
                        port: s.port.index() as u32,
                        start: idx,
                        end: idx + 1,
                    });
                    if let Some(g) = groups.last_mut() {
                        g.runs_end = runs.len() as u32;
                    }
                }
            }
            wstubs.push(stubs);
            wstub_groups.push(groups);
            wstub_runs.push(runs);
        }

        // Copy-unit ranking per staging file (the §4.3 step 5 order).
        let copy_fus = &fus_for[opx(Opcode::Copy)];
        let copy_rank: Vec<CopyRank> = (0..num_rfs)
            .map(|rf| {
                let from = RfId::from_raw(rf);
                let mut fus: Vec<(i64, FuId)> = copy_fus
                    .iter()
                    .map(|&f| {
                        let direct = arch.read_stubs(f, 0).iter().any(|s| s.rf == from);
                        let reach = arch
                            .read_stubs(f, 0)
                            .iter()
                            .filter_map(|s| conn.copy_distance(from, s.rf))
                            .min();
                        let base = if direct {
                            0
                        } else {
                            match reach {
                                Some(d) => 8 + d as i64,
                                None => 100_000,
                            }
                        };
                        (base, f)
                    })
                    .collect();
                // `(score, unit)` is a total order (units are distinct).
                fus.sort_unstable_by_key(|&(s, f)| (s, f));
                let direct = fus.iter().filter(|&&(s, _)| s == 0).count();
                CopyRank { fus, direct }
            })
            .collect();

        ConnCache {
            conn,
            num_rfs,
            num_fus,
            max_slots,
            num_opcodes,
            fus_for,
            fu_to_rf,
            route,
            fu_to_consumer,
            rf_to_consumer,
            producer_to_rf,
            wstubs,
            wstub_groups,
            wstub_runs,
            copy_rank,
        }
    }

    /// The underlying copy-connectivity analysis (Appendix A).
    pub fn connectivity(&self) -> &CopyConnectivity {
        &self.conn
    }

    /// Minimum copies to move a value from file `from` to file `to`.
    #[inline]
    pub fn copy_distance(&self, from: RfId, to: RfId) -> Option<u32> {
        self.conn.copy_distance(from, to)
    }

    /// Units able to execute `op`, in architecture order.
    #[inline]
    pub fn fus_for(&self, op: Opcode) -> &[FuId] {
        &self.fus_for[opx(op)]
    }

    /// Min copies from a file writable by `fu` into file `rf`.
    #[inline]
    pub fn fu_to_rf(&self, fu: FuId, rf: usize) -> Option<u32> {
        lift(self.fu_to_rf[fu.index() * self.num_rfs + rf])
    }

    /// Min copies on any route from `p`'s output to `q`'s operand `slot`.
    #[inline]
    pub fn min_route_copies(&self, p: FuId, q: FuId, slot: usize) -> Option<u32> {
        if slot >= self.max_slots {
            return None;
        }
        lift(self.route[(p.index() * self.num_fus + q.index()) * self.max_slots + slot])
    }

    /// Min copies from `fu` to operand `slot` of any unit able to run `op`.
    #[inline]
    pub fn fu_to_consumer(&self, fu: FuId, op: Opcode, slot: usize) -> Option<u32> {
        if slot >= self.max_slots {
            return None;
        }
        lift(self.fu_to_consumer[(fu.index() * self.num_opcodes + opx(op)) * self.max_slots + slot])
    }

    /// Min copies from file `rf` to a file readable by operand `slot` of
    /// any unit able to run `op`.
    #[inline]
    pub fn rf_to_consumer(&self, rf: usize, op: Opcode, slot: usize) -> Option<u32> {
        if slot >= self.max_slots {
            return None;
        }
        lift(self.rf_to_consumer[(rf * self.num_opcodes + opx(op)) * self.max_slots + slot])
    }

    /// Min copies from any unit able to run `op` into file `rf`.
    #[inline]
    pub fn producer_to_rf(&self, op: Opcode, rf: usize) -> Option<u32> {
        lift(self.producer_to_rf[opx(op) * self.num_rfs + rf])
    }

    /// `fu`'s write stubs regrouped by target file: the stub array and the
    /// per-file group ranges. The hot candidate scan computes one copy
    /// distance per *group* and applies it to every stub in the range.
    #[inline]
    pub fn write_stub_groups(&self, fu: FuId) -> (&[WriteStub], &[WstubGroup]) {
        (&self.wstubs[fu.index()], &self.wstub_groups[fu.index()])
    }

    /// The `(file, port)` runs of `fu`'s regrouped write stubs, indexed by
    /// the `runs_start..runs_end` range of each [`WstubGroup`]. See
    /// [`PortRun`] for how the engine uses them to rank candidates without
    /// sorting stubs.
    pub fn write_stub_port_runs(&self, fu: FuId) -> &[PortRun] {
        &self.wstub_runs[fu.index()]
    }

    /// Ranked copy units for staging a value out of `rf`.
    #[inline]
    pub fn copy_rank(&self, rf: RfId) -> &CopyRank {
        &self.copy_rank[rf.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csched_machine::imagine;

    /// Every dense table must agree with the brute-force formulas the
    /// engine used to memoise per instance.
    #[test]
    fn tables_match_brute_force() {
        for arch in [imagine::central(), imagine::distributed()] {
            let cache = ConnCache::new(&arch);
            let conn = arch.copy_connectivity();
            for fu in arch.fu_ids() {
                for rf in 0..arch.num_rfs() {
                    let target = RfId::from_raw(rf);
                    let brute = arch
                        .write_stubs(fu)
                        .iter()
                        .filter_map(|s| conn.copy_distance(s.rf, target))
                        .min();
                    assert_eq!(cache.fu_to_rf(fu, rf), brute, "fu_to_rf {fu:?} {rf}");
                }
                for q in arch.fu_ids() {
                    for slot in 0..3 {
                        assert_eq!(
                            cache.min_route_copies(fu, q, slot),
                            conn.min_route_copies(&arch, fu, q, slot),
                            "route {fu:?} {q:?} {slot}"
                        );
                    }
                }
            }
            for &op in Opcode::ALL {
                assert_eq!(cache.fus_for(op), arch.fus_for(op).as_slice());
                for rf in 0..arch.num_rfs() {
                    let brute = arch
                        .fus_for(op)
                        .into_iter()
                        .filter_map(|f| cache.fu_to_rf(f, rf))
                        .min();
                    assert_eq!(cache.producer_to_rf(op, rf), brute);
                    let from = RfId::from_raw(rf);
                    for slot in 0..2 {
                        let brute = arch
                            .fus_for(op)
                            .into_iter()
                            .flat_map(|f| arch.readable_rfs(f, slot))
                            .filter_map(|r| conn.copy_distance(from, r))
                            .min();
                        assert_eq!(cache.rf_to_consumer(rf, op, slot), brute);
                    }
                }
                for fu in arch.fu_ids() {
                    for slot in 0..2 {
                        let brute = arch
                            .fus_for(op)
                            .into_iter()
                            .filter_map(|f| conn.min_route_copies(&arch, fu, f, slot))
                            .min();
                        assert_eq!(cache.fu_to_consumer(fu, op, slot), brute);
                    }
                }
            }
        }
    }

    /// The regrouped stub arrays are a permutation of the architecture's
    /// stub lists, partitioned by target file.
    #[test]
    fn stub_groups_partition_the_stub_list() {
        let arch = imagine::distributed();
        let cache = ConnCache::new(&arch);
        for fu in arch.fu_ids() {
            let (stubs, groups) = cache.write_stub_groups(fu);
            assert_eq!(stubs.len(), arch.write_stubs(fu).len());
            let mut seen: Vec<WriteStub> = stubs.to_vec();
            let mut orig: Vec<WriteStub> = arch.write_stubs(fu).to_vec();
            let key = |s: &WriteStub| (s.rf, s.port, s.bus);
            seen.sort_by_key(key);
            orig.sort_by_key(key);
            assert_eq!(seen, orig);
            let mut covered = 0usize;
            for g in groups {
                assert_eq!(g.start as usize, covered);
                assert!(g.end > g.start);
                for s in &stubs[g.start as usize..g.end as usize] {
                    assert_eq!(s.rf, g.rf);
                }
                covered = g.end as usize;
            }
            assert_eq!(covered, stubs.len());
        }
    }

    /// Copy ranking matches the scoring the engine's copy insertion used
    /// to recompute per attempt.
    #[test]
    fn copy_rank_matches_insert_copy_scoring() {
        let arch = imagine::clustered(2);
        let cache = ConnCache::new(&arch);
        let conn = arch.copy_connectivity();
        for rf in arch.rf_ids() {
            let mut brute: Vec<(i64, FuId)> = arch
                .fus_for(Opcode::Copy)
                .into_iter()
                .map(|f| {
                    let direct = arch.read_stubs(f, 0).iter().any(|s| s.rf == rf);
                    let reach = arch
                        .read_stubs(f, 0)
                        .iter()
                        .filter_map(|s| conn.copy_distance(rf, s.rf))
                        .min();
                    let base = if direct {
                        0
                    } else {
                        match reach {
                            Some(d) => 8 + d as i64,
                            None => 100_000,
                        }
                    };
                    (base, f)
                })
                .collect();
            brute.sort_by_key(|&(s, f)| (s, f));
            let rank = cache.copy_rank(rf);
            assert_eq!(rank.fus(), brute.as_slice());
            assert_eq!(
                rank.direct_count(),
                brute.iter().filter(|&&(s, _)| s == 0).count()
            );
        }
    }
}
