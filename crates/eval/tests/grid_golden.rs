//! Golden byte-identity for the paper grid: every Table 1 kernel ×
//! Imagine organisation cell must schedule to exactly the pinned
//! `(II, copies, attempts)` triple and the pinned digest of its whole
//! schedule.
//!
//! The digest is FNV-1a over a canonical text of the schedule: every
//! operation's opcode, block and placement (unit, issue cycle, latency),
//! and every communication's endpoints and disposition — the write and
//! read stub of each direct route, or the copy a split communication runs
//! through. Two schedules with the same digest therefore agree on every
//! placement, stub, route and copy, not only on the summary triple.
//!
//! The scheduler is deterministic, so these values are part of its
//! observable contract: *any* drift — a reordered candidate list, a
//! changed tie-break, a table that admits a claim it used to reject —
//! shows up here even when the schedule remains valid. The hot-path data
//! structures of DESIGN.md §14 (dense modulo tables, the connectivity
//! cache, the port-run candidate ranking) were each landed against this
//! grid: they are pure reformulations, so the triples survived unchanged.
//!
//! The pinned values match `BENCH_baseline.json` / `BENCH_pregrid.json`
//! (`csched bench --compare` gates the same fields in CI). Update them only
//! when a change is *meant* to alter scheduling decisions, and say so in
//! the commit message.
//!
//! The full 10×4 grid takes minutes under the debug profile, so plain
//! `cargo test` runs a 3×2 subgrid and the full grid is `#[ignore]`d;
//! CI runs it with `cargo test --release -p csched-eval --test
//! grid_golden -- --include-ignored`.

use std::fmt::Write as _;

use csched_core::{schedule_kernel, validate, Schedule, SchedulerConfig};
use csched_machine::{fnv1a, imagine};

/// A pinned `(ii, copies, attempts)` triple.
type Triple = (u32, u64, u64);

/// A pinned cell: the triple and the whole-schedule digest.
type Golden = (Triple, u64);

/// Pinned cells per kernel, in architecture order central,
/// clustered(2), clustered(4), distributed.
const GOLDEN: &[(&str, [Golden; 4])] = &[
    (
        "DCT",
        [
            ((8, 0, 400), 0xe80d_b140_c003_8b42),
            ((10, 9, 1276), 0xca64_dc53_53de_bf34),
            ((11, 20, 3205), 0x185a_7488_daf0_6f95),
            ((9, 4, 942), 0x8d6b_bda7_2cb4_a1b8),
        ],
    ),
    (
        "FFT",
        [
            ((3, 0, 84), 0x0700_dde7_8f94_b6ab),
            ((4, 3, 214), 0xa942_3070_6cba_8e71),
            ((5, 8, 371), 0x0058_bdba_97ed_934e),
            ((3, 1, 113), 0xbad9_c4fd_c3d5_6771),
        ],
    ),
    (
        "FFT-U4",
        [
            ((13, 0, 1413), 0x7f99_f04e_c440_7b32),
            ((14, 17, 2287), 0x69dc_f641_06fa_9986),
            ((16, 23, 2164), 0x54d4_fe1b_133d_2ada),
            ((13, 11, 1836), 0x9af6_100a_ceef_3aee),
        ],
    ),
    (
        "FIR-FP",
        [
            ((19, 0, 2824), 0x4768_e260_b05a_8557),
            ((19, 34, 7319), 0x7eda_468a_c6fc_0a49),
            ((19, 63, 5781), 0x7ee5_9a7f_8ff0_6c57),
            ((25, 38, 10611), 0xe9d9_4482_d603_a465),
        ],
    ),
    (
        "FIR-INT",
        [
            ((19, 0, 2826), 0x9f6d_df48_3acf_9b47),
            ((19, 34, 5554), 0xc04f_a3ad_f74c_54b1),
            ((19, 64, 6208), 0x2508_df73_a52f_6818),
            ((25, 44, 15519), 0x2734_4732_bb1f_619a),
        ],
    ),
    (
        "Block Warp",
        [
            ((6, 0, 151), 0x4296_8b23_801c_474d),
            ((6, 9, 448), 0xb990_4569_f568_f90e),
            ((6, 12, 740), 0xe807_0855_84a9_cff2),
            ((6, 0, 189), 0x682e_de01_1ee5_2f36),
        ],
    ),
    (
        "Block Warp-U2",
        [
            ((12, 0, 496), 0xec42_83ac_86d8_f964),
            ((12, 15, 980), 0x9619_6878_4eae_77b0),
            ((12, 23, 1140), 0xdbab_9caa_0bf1_047d),
            ((12, 0, 4550), 0x6191_d095_c4d7_9fe8),
        ],
    ),
    (
        "Triangle Transform",
        [
            ((16, 0, 1383), 0xe847_7aef_5726_e65b),
            ((17, 25, 2476), 0xbcde_b08b_0245_0515),
            ((17, 39, 10513), 0x7623_3795_1d71_b57d),
            ((16, 4, 9459), 0x6ea9_19da_a513_6b51),
        ],
    ),
    (
        "Sort",
        [
            ((7, 0, 323), 0x2ba1_d20d_102e_994b),
            ((10, 11, 1940), 0x2880_6696_a8e0_0d9a),
            ((15, 12, 1195), 0x2e8e_9420_d6a7_761d),
            ((9, 0, 306), 0x58ae_c3a8_676d_e327),
        ],
    ),
    (
        "Merge",
        [
            ((7, 0, 9), 0x7e85_6a58_8389_14ce),
            ((7, 0, 9), 0x6ae8_c746_5730_d10d),
            ((9, 2, 77), 0x96bc_c3db_a125_af1b),
            ((7, 0, 10), 0x5c73_948c_f385_43ca),
        ],
    ),
];

fn arch_by_index(i: usize) -> csched_machine::Architecture {
    match i {
        0 => imagine::central(),
        1 => imagine::clustered(2),
        2 => imagine::clustered(4),
        _ => imagine::distributed(),
    }
}

/// FNV-1a over the canonical text of `s` (see the module docs).
fn schedule_digest(s: &Schedule) -> u64 {
    let u = s.universe();
    let mut text = String::new();
    let _ = writeln!(text, "ii {:?}", s.ii());
    for op in u.op_ids() {
        let o = u.op(op);
        let p = s.placement(op);
        let _ = writeln!(
            text,
            "{op:?} {:?} {:?} {:?} {:?}@{} lat {}",
            o.opcode, o.block, o.kernel_op, p.fu, p.cycle, p.latency
        );
    }
    for cid in u.comm_ids() {
        let c = u.comm(cid);
        let _ = writeln!(
            text,
            "{cid:?} {:?}->{:?}.{} d{} {:?}",
            c.producer,
            c.consumer,
            c.slot,
            c.distance,
            s.disposition(cid)
        );
    }
    fnv1a(text.as_bytes())
}

fn check_cell(kernel_name: &str, arch_index: usize, (want, want_digest): Golden) {
    let w = csched_kernels::by_name(kernel_name)
        .unwrap_or_else(|| panic!("unknown kernel {kernel_name:?}"));
    let arch = arch_by_index(arch_index);
    let cell = format!("{} on {}", kernel_name, arch.name());
    let s = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    validate::validate(&arch, &w.kernel, &s)
        .unwrap_or_else(|e| panic!("{cell}: invalid schedule: {e:?}"));
    let got = (
        s.ii().unwrap_or(0),
        s.num_copies() as u64,
        s.stats().attempts,
    );
    assert_eq!(
        got, want,
        "{cell}: (ii, copies, attempts) drifted from the golden triple"
    );
    assert_eq!(
        schedule_digest(&s),
        want_digest,
        "{cell}: the schedule drifted from the golden digest"
    );
}

fn golden_for(kernel: &str) -> &'static [Golden; 4] {
    GOLDEN
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|(_, t)| t)
        .unwrap_or_else(|| panic!("no golden cell for {kernel:?}"))
}

/// Fast subgrid for the debug-profile run: the two extreme organisations
/// on the kernels that stress different paths (FFT: copy on distributed;
/// Merge: recurrence-bound; DCT: transport-heavy when distributed).
#[test]
fn golden_triples_hold_on_the_subgrid() {
    for kernel in ["FFT", "Merge", "DCT"] {
        let cells = golden_for(kernel);
        for arch_index in [0, 3] {
            check_cell(kernel, arch_index, cells[arch_index]);
        }
    }
}

/// Every paper-grid cell. Minutes under the debug profile, so ignored by
/// default; CI runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "full 10x4 grid; CI runs it under the release profile"]
fn golden_triples_hold_on_every_paper_grid_cell() {
    for (kernel, cells) in GOLDEN {
        for (arch_index, want) in cells.iter().enumerate() {
            check_cell(kernel, arch_index, *want);
        }
    }
}
