//! The benchmark's metric catalogue and the statistics behind each value.
//!
//! `END_TO_END` is what an untraced run (`--trace 0`) prints, `PER_LAYER`
//! what a traced run (`--trace 1`) prints. Both lists must match the
//! `end_to_end` / `per_layer` sections of `BENCHMARK.json` exactly; the
//! crate's tests hold them together.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports all of them.
/// What an "operation" and a "job" are differs per workload (see the
/// README beside this file).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
    m("jobs_per_s", "jobs/s", Higher),
];

/// Metrics of single layers (the workspace crates), from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.generate_s", "s", Lower),
    m("trace.jobs", "count", Higher),
    m("analysis.characterize_s", "s", Lower),
    m("predict.features_s", "s", Lower),
    m("predict.bin_s", "s", Lower),
    m("predict.fit_s", "s", Lower),
    m("predict.train_rows", "count", Higher),
    m("predict.fit_row_trees_per_s", "1/s", Higher),
    m("core.qssf_train_s", "s", Lower),
    m("core.qssf_score_s", "s", Lower),
    m("core.qssf_scored_jobs", "count", Higher),
    m("core.ces_eval_s", "s", Lower),
    m("core.qssf_jct_speedup", "x", Higher),
    m("core.ces_smape", "%", Lower),
    m("energy.node_series_s", "s", Lower),
    m("sim.push_s", "s", Lower),
    m("sim.fifo.run_s", "s", Lower),
    m("sim.sjf.run_s", "s", Lower),
    m("sim.srtf.run_s", "s", Lower),
    m("sim.tiresias.run_s", "s", Lower),
    m("sim.qssf_oracle.run_s", "s", Lower),
    m("sim.events.submit", "count", Higher),
    m("sim.events.start", "count", Higher),
    m("sim.events.finish", "count", Higher),
    m("sim.events.preempt", "count", Lower),
    m("sim.events.node_fail", "count", Lower),
    m("sim.events.node_repair", "count", Lower),
    m("sim.events_per_s", "1/s", Higher),
    m("sim.preempt_per_job", "ratio", Lower),
    m("faults.fifo.run_s", "s", Lower),
    m("faults.drain_fifo.run_s", "s", Lower),
    m("faults.failures", "count", Lower),
    m("faults.killed_jobs", "count", Lower),
    m("faults.goodput", "ratio", Higher),
    m("fleet.submit_us.p50", "us", Lower),
    m("fleet.submit_us.p99", "us", Lower),
    m("fleet.advance_ms.p50", "ms", Lower),
    m("fleet.advance_ms.p99", "ms", Lower),
    m("fleet.status_us.p50", "us", Lower),
    m("fleet.status_us.p99", "us", Lower),
    m("fleet.snapshot_ms", "ms", Lower),
    m("fleet.snapshot_bytes", "bytes", Lower),
    m("fleet.shutdown_s", "s", Lower),
    m("trace.self_s", "s", Lower),
    m("analysis.self_s", "s", Lower),
    m("predict.self_s", "s", Lower),
    m("core.self_s", "s", Lower),
    m("energy.self_s", "s", Lower),
    m("sim.self_s", "s", Lower),
    m("faults.self_s", "s", Lower),
    m("fleet.self_s", "s", Lower),
    m("bench.tracing_overhead_s", "s", Lower),
];

/// The eight workspace crates the per-layer metrics cover.
pub const LAYERS: [&str; 8] = [
    "trace", "analysis", "predict", "core", "energy", "sim", "faults", "fleet",
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric names are restricted to `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The values a run collected, keyed by metric name, plus notes: counts
/// that are fixed by configuration or never move while the program works
/// (trees per model, fleet cycles, overflow retries, fresh statuses).
/// Notes go to the `record` line only.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Measured>,
    notes: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`; panics on a name outside the catalogue, which is a
    /// bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(d.name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    pub fn notes(&self) -> &BTreeMap<&'static str, f64> {
        &self.notes
    }

    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
        self.notes.extend(other.notes);
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1)`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn every_layer_has_a_self_time() {
        for layer in LAYERS {
            assert!(def(&format!("{layer}.self_s")).is_some(), "{layer}");
        }
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert!(!percentile_supported(100, 0.99));
        assert!(percentile_supported(1000, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
    }
}
