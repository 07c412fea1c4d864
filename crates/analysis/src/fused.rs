//! Single-pass characterization: the one path behind every §3 number.
//!
//! [`characterize`] walks a trace **once**. In that pass it fills every
//! status/class/demand counter, the per-user accumulators, the hourly
//! utilization and submission series, and shared duration/size sample
//! buffers. The buffers are sorted once (fanned out over rayon) and
//! served to every figure as a borrowed [`CdfView`].
//!
//! Counts and sums are kept as integers, so [`pool`] can add several
//! traces' results exactly: the Table 2 row, the Fig. 1(b) and Fig. 7
//! status shares and the pooled Fig. 1(a) duration CDF come out
//! bit-identical to a single scan over all the traces.
//!
//! `tests/fused_equivalence.rs` pins both functions, float for float,
//! against straightforward per-figure reference scans kept in
//! `tests/oracle/`, across seeds and presets.

use crate::cdf::{Cdf, CdfView, WeightedCdf};
use crate::clusters::DailyPattern;
use crate::jobs::{
    demand_bucket, shares, status_index, StatusShares, TraceSummary, DEMAND_BUCKETS,
};
use crate::timeseries::{hourly_profile, BinnedSeries};
use crate::users::UserStats;
use helios_trace::{Trace, SECS_PER_HOUR};
use rayon::prelude::*;

/// Integer counts and sums behind the float outputs. Every value is far
/// below 2^53, so summing them and converting once gives the same bits
/// as a running `f64` sum over the jobs.
#[derive(Debug, Clone, Default)]
struct Tallies {
    gpu_jobs: u64,
    cpu_jobs: u64,
    /// Sum of GPU counts over GPU jobs.
    gpus: u64,
    max_gpus: u32,
    /// Sum of GPU-job durations, seconds.
    duration: i64,
    max_duration: i64,
    /// Job counts per final status, [completed, canceled, failed].
    cpu_status: [u64; 3],
    gpu_status: [u64; 3],
    /// GPU-seconds per final status.
    gpu_time: [i64; 3],
    /// GPU-job counts per status, one row per [`DEMAND_BUCKETS`] entry.
    demand: [[u64; 3]; DEMAND_BUCKETS.len()],
}

impl Tallies {
    fn add(&mut self, o: &Tallies) {
        self.gpu_jobs += o.gpu_jobs;
        self.cpu_jobs += o.cpu_jobs;
        self.gpus += o.gpus;
        self.max_gpus = self.max_gpus.max(o.max_gpus);
        self.duration += o.duration;
        self.max_duration = self.max_duration.max(o.max_duration);
        for s in 0..3 {
            self.cpu_status[s] += o.cpu_status[s];
            self.gpu_status[s] += o.gpu_status[s];
            self.gpu_time[s] += o.gpu_time[s];
            for (row, other) in self.demand.iter_mut().zip(&o.demand) {
                row[s] += other[s];
            }
        }
    }

    fn summary(&self, clusters: usize, vcs: usize, duration_days: u32) -> TraceSummary {
        let gpu_jobs = self.gpu_jobs.max(1) as f64;
        TraceSummary {
            clusters,
            vcs,
            jobs: self.gpu_jobs + self.cpu_jobs,
            gpu_jobs: self.gpu_jobs,
            cpu_jobs: self.cpu_jobs,
            duration_days,
            avg_gpus: self.gpus as f64 / gpu_jobs,
            max_gpus: self.max_gpus,
            avg_duration_s: self.duration as f64 / gpu_jobs,
            max_duration_s: self.max_duration,
        }
    }

    fn cpu_status(&self) -> StatusShares {
        shares(self.cpu_status.map(|c| c as f64))
    }

    fn gpu_status(&self) -> StatusShares {
        shares(self.gpu_status.map(|c| c as f64))
    }

    fn gpu_time_status(&self) -> StatusShares {
        shares(self.gpu_time.map(|t| t as f64))
    }

    fn status_by_demand(&self) -> Vec<StatusShares> {
        self.demand
            .iter()
            .map(|row| shares(row.map(|c| c as f64)))
            .collect()
    }
}

/// Everything §3 needs from one trace, computed by [`characterize`] in a
/// single pass.
#[derive(Debug, Clone)]
pub struct FusedCharacterization {
    /// Table 2 row for this trace alone.
    pub summary: TraceSummary,
    /// Fig. 2 daily pattern.
    pub daily: DailyPattern,
    /// Per-user aggregates, sorted by user id (Figs. 8 and 9).
    pub users: Vec<UserStats>,
    /// Fig. 7(a) CPU-job status shares, percent.
    pub cpu_status: StatusShares,
    /// Fig. 7(a) GPU-job status shares, percent.
    pub gpu_status: StatusShares,
    /// Fig. 1(b) GPU-*time* status shares, percent.
    pub gpu_time_status: StatusShares,
    /// Fig. 7(b) status shares per GPU-demand bucket.
    pub status_by_demand: Vec<StatusShares>,
    /// Integer partials behind the fields above, for [`pool`].
    tallies: Tallies,
    /// Shared sorted sample buffers behind the [`CdfView`] accessors.
    gpu_durations: Vec<f64>,
    cpu_durations: Vec<f64>,
    gpu_sizes: Vec<f64>,
    size_by_time: WeightedCdf,
}

impl FusedCharacterization {
    /// Fig. 1(a) / 5(a): GPU-job duration CDF.
    pub fn gpu_duration_cdf(&self) -> CdfView<'_> {
        CdfView::from_sorted(&self.gpu_durations)
    }

    /// Fig. 5(b): CPU-job duration CDF.
    pub fn cpu_duration_cdf(&self) -> CdfView<'_> {
        CdfView::from_sorted(&self.cpu_durations)
    }

    /// Fig. 6(a): job-size CDF by job count.
    pub fn job_size_cdf(&self) -> CdfView<'_> {
        CdfView::from_sorted(&self.gpu_sizes)
    }

    /// Fig. 6(b): job-size CDF weighted by GPU time.
    pub fn job_size_time_cdf(&self) -> &WeightedCdf {
        &self.size_by_time
    }
}

/// One traversal of `trace.jobs` computing every §3 statistic; the
/// independent finalization groups (sample-buffer sorts, weighted CDF,
/// hourly folds) fan out over rayon.
pub fn characterize(trace: &Trace) -> FusedCharacterization {
    let horizon = trace.calendar.total_seconds();
    let capacity = trace.total_gpus() as u64;
    let bin = SECS_PER_HOUR;
    let num_bins = ((horizon + bin - 1) / bin) as usize;

    // Single-pass accumulators.
    let mut t = Tallies::default();
    let mut user_stats: Vec<UserStats> = Vec::new();
    let mut user_seen: Vec<bool> = Vec::new();
    let mut busy = vec![0.0f64; num_bins];
    let mut submissions = vec![0.0f64; num_bins];
    let mut gpu_durations = Vec::with_capacity(trace.jobs.len() / 2);
    let mut cpu_durations = Vec::with_capacity(trace.jobs.len() / 2);
    let mut gpu_sizes = Vec::with_capacity(trace.jobs.len() / 2);
    let mut size_time = Vec::with_capacity(trace.jobs.len() / 2);

    for j in &trace.jobs {
        let uid = j.user as usize;
        if uid >= user_stats.len() {
            user_stats.resize_with(uid + 1, UserStats::default);
            user_seen.resize(uid + 1, false);
        }
        if !user_seen[uid] {
            user_seen[uid] = true;
            user_stats[uid].user = j.user;
        }
        let s = &mut user_stats[uid];
        let si = status_index(j.status);
        if j.is_gpu() {
            t.gpu_jobs += 1;
            t.gpus += j.gpus as u64;
            t.max_gpus = t.max_gpus.max(j.gpus);
            t.duration += j.duration;
            t.max_duration = t.max_duration.max(j.duration);
            t.gpu_status[si] += 1;
            t.gpu_time[si] += j.gpu_time();
            if let Some(b) = demand_bucket(j.gpus) {
                t.demand[b][si] += 1;
            }
            let gpu_time = j.gpu_time() as f64;
            s.gpu_jobs += 1;
            s.gpu_time += gpu_time;
            s.queue_delay += j.queue_delay() as f64;
            if si == 0 {
                s.completed_gpu_jobs += 1;
            }
            gpu_durations.push(j.duration as f64);
            gpu_sizes.push(j.gpus as f64);
            size_time.push((j.gpus as f64, gpu_time));
            // Utilization: same filter and overlap arithmetic as
            // `timeseries::gpu_utilization_series`.
            if j.gpus as u64 <= capacity {
                let (lo, hi) = (j.start.max(0), j.end().min(horizon));
                if hi > lo {
                    let first = (lo / bin) as usize;
                    let last = ((hi - 1) / bin) as usize;
                    #[allow(clippy::needless_range_loop)] // sparse span of `busy`
                    for b in first..=last {
                        let bin_lo = b as i64 * bin;
                        let bin_hi = bin_lo + bin;
                        let overlap = (hi.min(bin_hi) - lo.max(bin_lo)) as f64;
                        busy[b] += overlap * j.gpus as f64;
                    }
                }
            }
            if j.submit >= 0 && j.submit < horizon {
                submissions[(j.submit / bin) as usize] += 1.0;
            }
        } else {
            t.cpu_jobs += 1;
            t.cpu_status[si] += 1;
            s.cpu_jobs += 1;
            s.cpu_time += j.cpu_time() as f64;
            cpu_durations.push(j.duration as f64);
        }
    }

    // Independent finalization groups, fanned out over rayon: the three
    // shared sample buffers sort concurrently (each exactly the buffer a
    // legacy `Cdf::new` would sort).
    {
        let mut buffers = [&mut gpu_durations, &mut cpu_durations, &mut gpu_sizes];
        buffers
            .par_iter_mut()
            .with_min_len(1)
            .for_each(|buf| buf.sort_unstable_by(f64::total_cmp));
    }
    let size_by_time = WeightedCdf::new(size_time);

    let denom = (capacity * bin as u64) as f64;
    let util = BinnedSeries {
        t0: 0,
        bin,
        values: busy.into_iter().map(|b| b / denom).collect(),
    };
    let subs = BinnedSeries {
        t0: 0,
        bin,
        values: submissions,
    };
    let daily = DailyPattern {
        cluster: trace.spec.id.name().to_string(),
        hourly_utilization: hourly_profile(&util)
            .into_iter()
            .map(|u| u * 100.0)
            .collect(),
        hourly_submissions: hourly_profile(&subs),
        utilization_std_dev: util.std_dev() * 100.0,
    };

    let users: Vec<UserStats> = user_seen
        .iter()
        .zip(user_stats)
        .filter_map(|(&seen, s)| seen.then_some(s))
        .collect();

    FusedCharacterization {
        summary: t.summary(1, trace.spec.num_vcs(), trace.calendar.total_days()),
        daily,
        users,
        cpu_status: t.cpu_status(),
        gpu_status: t.gpu_status(),
        gpu_time_status: t.gpu_time_status(),
        status_by_demand: t.status_by_demand(),
        tallies: t,
        gpu_durations,
        cpu_durations,
        gpu_sizes,
        size_by_time,
    }
}

/// The §3 statistics the paper reports over several clusters at once
/// (Table 2, Figs. 1 and 7), computed by [`pool`].
#[derive(Debug, Clone)]
pub struct PooledCharacterization {
    /// Table 2 column: `clusters` counts the parts, `vcs` is their sum
    /// and `duration_days` their maximum.
    pub summary: TraceSummary,
    /// Fig. 7(a) CPU-job status shares, percent.
    pub cpu_status: StatusShares,
    /// Fig. 7(a) GPU-job status shares, percent.
    pub gpu_status: StatusShares,
    /// Fig. 1(b) GPU-*time* status shares, percent.
    pub gpu_time_status: StatusShares,
    /// Fig. 7(b) status shares per GPU-demand bucket.
    pub status_by_demand: Vec<StatusShares>,
    /// Fig. 1(a): GPU-job duration CDF over every part.
    pub gpu_duration_cdf: Cdf,
}

/// Pool per-trace characterizations: every count and sum is added as an
/// integer and converted once, so the result is exactly what one scan
/// over all the traces would give.
pub fn pool(parts: &[&FusedCharacterization]) -> PooledCharacterization {
    let mut t = Tallies::default();
    for p in parts {
        t.add(&p.tallies);
    }
    let vcs = parts.iter().map(|p| p.summary.vcs).sum();
    let days = parts
        .iter()
        .map(|p| p.summary.duration_days)
        .max()
        .unwrap_or(0);
    let durations = parts
        .iter()
        .flat_map(|p| p.gpu_durations.iter().copied())
        .collect();
    PooledCharacterization {
        summary: t.summary(parts.len(), vcs, days),
        cpu_status: t.cpu_status(),
        gpu_status: t.gpu_status(),
        gpu_time_status: t.gpu_time_status(),
        status_by_demand: t.status_by_demand(),
        gpu_duration_cdf: Cdf::new(durations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{generate, venus_profile, GeneratorConfig};

    #[test]
    fn shapes_and_invariants() {
        let t = generate(
            &venus_profile(),
            &GeneratorConfig {
                scale: 0.03,
                seed: 11,
            },
        )
        .unwrap();
        let f = characterize(&t);
        assert_eq!(f.summary.jobs, t.jobs.len() as u64);
        assert_eq!(f.daily.hourly_utilization.len(), 24);
        assert_eq!(f.status_by_demand.len(), DEMAND_BUCKETS.len());
        assert_eq!(
            f.gpu_duration_cdf().len() as u64 + f.cpu_duration_cdf().len() as u64,
            f.summary.jobs
        );
        assert!((f.gpu_status.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // Users sorted and unique.
        assert!(f.users.windows(2).all(|w| w[0].user < w[1].user));
    }
}
