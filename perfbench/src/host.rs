//! Host-speed calibration.
//!
//! On a shared 2-vCPU VM, the speed the scheduler's code gets drifts
//! by ±15% over seconds to minutes (see NOTES.md). Tight ALU or memory
//! loops do not see that drift; branchy, allocation-heavy code does. So
//! each run interleaves a fixed reference of that kind with its
//! operations, built only from the standard library so that no change
//! to csched moves it. Every reported timing is scaled by
//! `NOMINAL_REFERENCE_S / median reference time of its pass`: seconds
//! at the reference host speed.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::stats::{median, secs};

/// The reference's median time on a 2-vCPU KVM guest (Xeon, release
/// build), where the benchmark was tuned.
pub const NOMINAL_REFERENCE_S: f64 = 1.65e-3;

/// One reference run: ordered-map inserts with formatted string keys,
/// a sort with a two-key comparison, hash-map counting and an
/// edit-distance table — the mix of branches, allocation and pointer
/// chasing the scheduler runs on.
pub fn reference() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut tree: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for i in 0..1500u32 {
        tree.entry(format!("k{}-{}", next() % 5000, i % 7))
            .or_default()
            .push(i);
    }
    let mut keyed: Vec<(u64, String)> = tree.keys().map(|k| (next() % 1000, k.clone())).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..8000 {
        *counts.entry(next() % 4096).or_insert(0) += 1;
    }
    let a: Vec<u64> = (0..150).map(|_| next() % 4).collect();
    let b: Vec<u64> = (0..150).map(|_| next() % 4).collect();
    let mut dist = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in 0..=a.len() {
        for j in 0..=b.len() {
            dist[i][j] = if i == 0 || j == 0 {
                (i + j) as u32
            } else {
                (dist[i - 1][j] + 1)
                    .min(dist[i][j - 1] + 1)
                    .min(dist[i - 1][j - 1] + u32::from(a[i - 1] != b[j - 1]))
            };
        }
    }
    std::hint::black_box((&keyed, &counts, dist[a.len()][b.len()]));
    secs(start.elapsed())
}

/// Reference samples taken through one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Runs the reference once and returns its time, which the caller
    /// leaves out of its own measurement.
    pub fn sample(&mut self) -> f64 {
        let t = reference();
        self.samples.push(t);
        t
    }

    /// Median reference time of the run, in seconds.
    pub fn reference_s(&self) -> f64 {
        median(&self.samples)
    }

    /// The factor that turns this run's seconds into seconds at the
    /// reference host speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_REFERENCE_S / self.reference_s()
    }

    /// Samples taken so far: a mark for [`Self::factor_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// [`Self::factor`] over the samples taken since `mark` only, for
    /// comparing two passes of one run that the host ran at different
    /// speeds.
    pub fn factor_since(&self, mark: usize) -> f64 {
        NOMINAL_REFERENCE_S / median(&self.samples[mark..])
    }
}

/// A time measured in one pass, at that pass's host speed
/// (`pass_factor`, from [`HostSpeed::factor_since`]), expressed in the
/// run's seconds so that [`crate::stats::Report::calibrate`] applies once.
/// Passes seconds apart can run at different host speeds; within a run
/// the per-pass factor ranged from 0.93 to 1.43, and scaling each pass by
/// its own factor halved the spread of most timings across runs.
pub fn rescale(s: f64, pass_factor: f64, host: &HostSpeed) -> f64 {
    s * pass_factor / host.factor()
}
