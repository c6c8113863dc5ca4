//! Assertions tying the reproduction to the paper's §5 claims and §2
//! motivating example, at integration-test scale.
//!
//! The quantitative Figure 28/29 claims over the full grid run in release
//! mode (`csched report`; see EXPERIMENTS.md); here we pin the
//! *qualitative* relationships on fast-to-schedule kernels so regressions
//! surface in `cargo test`.

use csched::core::{schedule_kernel, SchedulerConfig};
use csched::machine::{cost, imagine};

fn ii(arch: &csched::machine::Architecture, name: &str) -> u32 {
    let w = csched::kernels::by_name(name).expect("known kernel");
    schedule_kernel(arch, &w.kernel, SchedulerConfig::default())
        .unwrap_or_else(|e| panic!("{name} on {}: {e}", arch.name()))
        .ii()
        .expect("loop kernels")
}

#[test]
fn central_is_never_beaten() {
    // The paper: the central register file is the performance upper bound
    // (same unit mix and latencies everywhere).
    for name in ["FFT", "Merge", "Block Warp"] {
        let central = ii(&imagine::central(), name);
        for arch in [
            imagine::clustered(2),
            imagine::clustered(4),
            imagine::distributed(),
        ] {
            assert!(
                ii(&arch, name) >= central,
                "{name}: {} beat central",
                arch.name()
            );
        }
    }
}

#[test]
fn recurrence_bound_kernels_hit_parity_everywhere() {
    // Merge's II is recurrence-limited (load → compare → index update), so
    // every organisation achieves the same II — one of the paper's "seven
    // out of ten kernels have the same performance" parity cases.
    let central = ii(&imagine::central(), "Merge");
    assert_eq!(ii(&imagine::distributed(), "Merge"), central);
    assert_eq!(ii(&imagine::clustered(2), "Merge"), central);
}

#[test]
fn clustered_machines_pay_for_copies() {
    // Inter-cluster communications require copy operations with non-zero
    // latency and limited copy-unit bandwidth (§1): some kernel must pay.
    let arch = imagine::clustered(4);
    let mut total_copies = 0;
    for name in ["FFT", "Block Warp"] {
        let w = csched::kernels::by_name(name).unwrap();
        let s = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default()).unwrap();
        total_copies += s.num_copies();
    }
    assert!(total_copies > 0, "clustered schedules should need copies");
}

#[test]
fn no_cross_block_backtracking_on_distributed() {
    // §5: "Communication scheduling does not require backtracking to
    // schedule any of the evaluation kernels on the distributed register
    // file architecture."
    let arch = imagine::distributed();
    for name in ["FFT", "Merge", "Block Warp"] {
        let w = csched::kernels::by_name(name).unwrap();
        let s = schedule_kernel(&arch, &w.kernel, SchedulerConfig::default()).unwrap();
        assert!(!s.stats().backtracked, "{name} needed §4.5 backtracking");
    }
}

#[test]
fn cost_model_matches_headline_bands() {
    // §1/§8: distributed ≈ 9% area / 6% power / 37% delay of central;
    // ≈ 56% area / 50% power of clustered(4). Generous bands — the model
    // is a re-derivation of [15], not a copy of its numbers.
    let p = cost::CostParams::default();
    let central = cost::estimate(&imagine::central(), &p);
    let clustered = cost::estimate(&imagine::clustered(4), &p);
    let dist = cost::estimate(&imagine::distributed(), &p);

    let (a, pw, d) = cost::normalized(&dist, &central).unwrap();
    assert!((0.04..=0.16).contains(&a), "area vs central {a:.3}");
    assert!((0.02..=0.12).contains(&pw), "power vs central {pw:.3}");
    assert!((0.20..=0.55).contains(&d), "delay vs central {d:.3}");

    let (a2, pw2, _) = cost::normalized(&dist, &clustered).unwrap();
    assert!((0.30..=0.80).contains(&a2), "area vs clustered {a2:.3}");
    assert!((0.20..=0.75).contains(&pw2), "power vs clustered {pw2:.3}");
}

#[test]
fn scaling_projection_favours_distributed() {
    // §8: the distributed advantage grows with unit count (12% area / 9%
    // power of clustered(4) at 48 units).
    let p = cost::CostParams::default();
    let ratios: Vec<f64> = [1usize, 4]
        .iter()
        .map(|&s| {
            let c = cost::estimate(&imagine::clustered_scaled(4, s), &p);
            let d = cost::estimate(&imagine::distributed_scaled(s), &p);
            d.area() / c.area()
        })
        .collect();
    assert!(
        ratios[1] < 0.5 * ratios[0],
        "advantage should widen: {ratios:?}"
    );
}

#[test]
fn motivating_example_needs_communication_scheduling() {
    // On the Figure 5 machine, disabling the smart parts (cost heuristic,
    // closing-first ordering) must still produce a *correct* schedule —
    // communication scheduling itself is what guarantees correctness.
    let arch = csched::machine::toy::motivating_example();
    let mut kb = csched::ir::KernelBuilder::new("fig4");
    use csched::machine::Opcode;
    let mem = kb.region("mem", true);
    let b = kb.straight_block("b");
    let a = kb.load(b, mem, 0i64.into(), 0i64.into());
    let bv = kb.push(b, Opcode::IAdd, [1i64.into(), 2i64.into()]);
    let cv = kb.push(b, Opcode::IAdd, [3i64.into(), 4i64.into()]);
    let s4 = kb.push(b, Opcode::IAdd, [a.into(), bv.into()]);
    let s5 = kb.push(b, Opcode::IAdd, [a.into(), cv.into()]);
    kb.store(b, mem, 10i64.into(), 0i64.into(), s4.into());
    kb.store(b, mem, 11i64.into(), 0i64.into(), s5.into());
    let kernel = kb.build().unwrap();

    for config in [
        SchedulerConfig::default(),
        SchedulerConfig::without_comm_cost(),
        SchedulerConfig::without_closing_first(),
        SchedulerConfig::cycle_order(),
    ] {
        let s = schedule_kernel(&arch, &kernel, config).expect("all variants schedule");
        csched::core::validate::validate(&arch, &kernel, &s).expect("and validate");
    }
}
