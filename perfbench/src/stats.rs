//! Order statistics, the run report, and process-level measurements.

use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed and every deterministic count repeated.
    pub correct: bool,
    /// Operations attempted (compile cells, requests, oracle cells).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Scales every timing by `factor` and every rate by its inverse
    /// (see [`crate::host`]).
    pub fn calibrate(&mut self, factor: f64) {
        for m in &mut self.metrics {
            match m.unit {
                "s" | "ms" | "us" => m.value *= factor,
                "1/s" => m.value /= factor,
                _ => {}
            }
        }
    }

    /// The report as one JSON object. Non-finite values are written as
    /// `null` and clear `correct`: a metric that could not be measured is
    /// a failed run, never a silent zero.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; NaN for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `pass` at least `min_passes` times, then again while another
/// pass, as long as the last one, would still end within `budget`.
/// Stops at the first error.
pub fn repeat_for<T, E>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.len() < min_passes || start.elapsed() + last <= budget {
        let t = Instant::now();
        out.push(pass(out.len())?);
        last = t.elapsed();
    }
    Ok(out)
}

/// Runs `f` and returns its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, secs(t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn report_rejects_unmeasured_values() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        r.push("a", 1.5, "ms");
        assert!(r.json().starts_with("{\"correct\": true"));
        r.push("b", f64::NAN, "ms");
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
