//! Property-based integration tests: random integer kernels scheduled on
//! shared-interconnect machines must always validate cleanly and execute
//! identically to the reference interpreter.
//!
//! The random generator lives in `tests/common`; proptest drives the seeds
//! and sizes. The toy Figure 5 machine and a down-scaled distributed
//! machine keep the scheduling cost per case small.

mod common;

use common::{differential_check, random_kernel, random_kernel_with_ops, TOY_OPS};
use csched::machine::{imagine, toy, ArchBuilder, Architecture, FuClass, Opcode};
use proptest::prelude::*;

/// Every test in this binary is registered exactly once. The vendored
/// `proptest!` passes the `#[test]` written on each property through and
/// adds none of its own; when it added one, every property ran twice,
/// concurrently and on identical seeds. The binary lists its own tests
/// (`--list` runs none), so the check covers whatever the macro expands
/// to. `ci.sh` applies the same check to every test binary.
#[test]
fn every_test_is_registered_once() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--list", "--format", "terse"])
        .output()
        .expect("list this binary's tests");
    assert!(out.status.success(), "--list failed");
    let listing = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.strip_suffix(": test"))
        .collect();
    assert!(names.contains(&"random_kernels_on_random_clustered"));
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate test names: {listing}");
}

/// A small distributed-style machine (2 ALUs, 1 MUL, 1 LS over 4 shared
/// buses with per-input register files) so property tests run fast.
fn mini_distributed() -> Architecture {
    let mut b = ArchBuilder::new("mini-distributed");
    let caps = |ops: &[Opcode]| {
        ops.iter()
            .map(|&o| csched::machine::default_capability(o))
            .collect::<Vec<_>>()
    };
    use Opcode::*;
    let alu_ops = [IAdd, ISub, IMin, IMax, And, Or, Xor, Select, Copy];
    let units = vec![
        b.functional_unit("ALU0", FuClass::Alu, 3, true, caps(&alu_ops)),
        b.functional_unit("ALU1", FuClass::Alu, 3, true, caps(&alu_ops)),
        b.functional_unit("MUL0", FuClass::Mul, 2, true, caps(&[IMul, Copy])),
        b.functional_unit("LS0", FuClass::Ls, 3, true, caps(&[Load, Store])),
    ];
    let buses: Vec<_> = (0..4).map(|i| b.bus(format!("GB{i}"))).collect();
    for &fu in &units {
        for &bus in &buses {
            b.connect_output(fu, bus);
        }
    }
    let inputs = [3usize, 3, 2, 3];
    for (&fu, &n) in units.iter().zip(&inputs) {
        for slot in 0..n {
            let rf = b.register_file(format!("RF_{}_{slot}", fu.index()), 16);
            let wp = b.write_port(rf);
            for &bus in &buses {
                b.connect_bus_to_write_port(bus, wp);
            }
            b.dedicated_read(rf, fu, slot);
        }
    }
    b.build().expect("mini machine is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Random kernels schedule, validate and simulate correctly on the
    /// Figure 5 toy machine.
    #[test]
    fn random_kernels_on_toy_machine(seed in 1u64..u64::MAX, ops in 2usize..10) {
        // The toy machine only executes adds and subtracts.
        let kernel = random_kernel_with_ops(seed, ops, TOY_OPS);
        differential_check(&toy::motivating_example(), &kernel, 5, seed);
    }

    /// Random kernels schedule, validate and simulate correctly on a small
    /// distributed register file machine (shared buses, shared ports).
    #[test]
    fn random_kernels_on_mini_distributed(seed in 1u64..u64::MAX, ops in 2usize..16) {
        let kernel = random_kernel(seed, ops);
        differential_check(&mini_distributed(), &kernel, 5, seed);
    }
}

/// A fixed batch on the full Imagine machines (fewer cases: they are big).
#[test]
fn random_kernels_on_imagine_variants() {
    for seed in [3u64, 17, 91] {
        let kernel = random_kernel(seed, 8);
        for arch in [
            imagine::central(),
            imagine::clustered(4),
            imagine::distributed(),
        ] {
            differential_check(&arch, &kernel, 4, seed);
        }
    }
}

/// The mini machine itself is copy-connected (sanity for the generator).
#[test]
fn mini_distributed_is_copy_connected() {
    let arch = mini_distributed();
    assert!(arch.copy_connectivity().is_copy_connected());
    assert_eq!(arch.num_rfs(), 11);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random kernels on randomly generated distributed-style machines:
    /// always schedulable, always valid, always semantically exact.
    #[test]
    fn random_kernels_on_random_distributed(seed in 1u64..u64::MAX, ops in 2usize..12) {
        let arch = common::random_distributed_arch(seed);
        prop_assert!(arch.copy_connectivity().is_copy_connected());
        let kernel = random_kernel(seed ^ 0xABCD, ops);
        differential_check(&arch, &kernel, 4, seed);
    }

    /// Random kernels on randomly generated two-cluster machines, where
    /// cross-cluster communications force copy insertion.
    #[test]
    fn random_kernels_on_random_clustered(seed in 1u64..u64::MAX, ops in 2usize..12) {
        let arch = common::random_clustered_arch(seed);
        prop_assert!(arch.copy_connectivity().is_copy_connected());
        let kernel = random_kernel(seed ^ 0x1234, ops);
        differential_check(&arch, &kernel, 4, seed);
    }
}
