//! Reference per-figure scans for §3: straightforward, one trace walk per
//! statistic, kept only as the test oracle for the one-pass
//! `helios_analysis::characterize` and `helios_analysis::pool`. Nothing
//! outside the tests calls them.

pub mod jobs {
    use helios_analysis::cdf::{Cdf, WeightedCdf};
    use helios_analysis::jobs::{demand_bucket, StatusShares, TraceSummary, DEMAND_BUCKETS};
    use helios_trace::{JobStatus, Trace};

    /// Compute the Table 2 summary over one or more traces.
    pub fn summarize(traces: &[&Trace]) -> TraceSummary {
        let mut gpu_jobs = 0u64;
        let mut cpu_jobs = 0u64;
        let mut gpus_sum = 0.0;
        let mut max_gpus = 0;
        let mut dur_sum = 0.0;
        let mut max_dur = 0;
        for t in traces {
            for j in &t.jobs {
                if j.is_gpu() {
                    gpu_jobs += 1;
                    gpus_sum += j.gpus as f64;
                    max_gpus = max_gpus.max(j.gpus);
                    dur_sum += j.duration as f64;
                    max_dur = max_dur.max(j.duration);
                } else {
                    cpu_jobs += 1;
                }
            }
        }
        TraceSummary {
            clusters: traces.len(),
            vcs: traces.iter().map(|t| t.spec.num_vcs()).sum(),
            jobs: gpu_jobs + cpu_jobs,
            gpu_jobs,
            cpu_jobs,
            duration_days: traces
                .iter()
                .map(|t| t.calendar.total_days())
                .max()
                .unwrap_or(0),
            avg_gpus: gpus_sum / gpu_jobs.max(1) as f64,
            max_gpus,
            avg_duration_s: dur_sum / gpu_jobs.max(1) as f64,
            max_duration_s: max_dur,
        }
    }

    /// Duration CDF of GPU jobs (Fig. 1a / Fig. 5a).
    pub fn gpu_duration_cdf(trace: &Trace) -> Cdf {
        Cdf::new(trace.gpu_jobs().map(|j| j.duration as f64).collect())
    }

    /// Duration CDF of CPU jobs (Fig. 5b).
    pub fn cpu_duration_cdf(trace: &Trace) -> Cdf {
        Cdf::new(trace.cpu_jobs().map(|j| j.duration as f64).collect())
    }

    /// Fig. 6(a): CDF of job sizes weighted by job count, and
    /// Fig. 6(b): CDF of job sizes weighted by GPU time.
    pub fn job_size_cdfs(trace: &Trace) -> (Cdf, WeightedCdf) {
        let by_count = Cdf::new(trace.gpu_jobs().map(|j| j.gpus as f64).collect());
        let by_time = WeightedCdf::new(
            trace
                .gpu_jobs()
                .map(|j| (j.gpus as f64, j.gpu_time() as f64))
                .collect(),
        );
        (by_count, by_time)
    }

    fn shares(counts: [f64; 3]) -> StatusShares {
        let total: f64 = counts.iter().sum();
        if total == 0.0 {
            return [0.0; 3];
        }
        [
            counts[0] / total * 100.0,
            counts[1] / total * 100.0,
            counts[2] / total * 100.0,
        ]
    }

    fn status_index(s: JobStatus) -> usize {
        match s {
            JobStatus::Completed => 0,
            JobStatus::Canceled => 1,
            JobStatus::Failed => 2,
        }
    }

    /// Fig. 1(b): percentage of *GPU time* by final status.
    pub fn gpu_time_by_status(traces: &[&Trace]) -> StatusShares {
        let mut acc = [0.0f64; 3];
        for t in traces {
            for j in t.gpu_jobs() {
                acc[status_index(j.status)] += j.gpu_time() as f64;
            }
        }
        shares(acc)
    }

    /// Fig. 7(a): percentage of jobs by final status, for (cpu, gpu) jobs.
    pub fn status_by_job_class(traces: &[&Trace]) -> (StatusShares, StatusShares) {
        let mut cpu = [0.0f64; 3];
        let mut gpu = [0.0f64; 3];
        for t in traces {
            for j in &t.jobs {
                let acc = if j.is_gpu() { &mut gpu } else { &mut cpu };
                acc[status_index(j.status)] += 1.0;
            }
        }
        (shares(cpu), shares(gpu))
    }

    /// Compute Fig. 7(b): one status-share triple per demand bucket.
    pub fn status_by_gpu_demand(traces: &[&Trace]) -> Vec<StatusShares> {
        let mut acc = vec![[0.0f64; 3]; DEMAND_BUCKETS.len()];
        for t in traces {
            for j in t.gpu_jobs() {
                if let Some(b) = demand_bucket(j.gpus) {
                    acc[b][status_index(j.status)] += 1.0;
                }
            }
        }
        acc.into_iter().map(shares).collect()
    }
}

pub mod users {
    use helios_analysis::users::UserStats;
    use helios_trace::{JobStatus, Trace, UserId};
    use std::collections::BTreeMap;

    /// Aggregate the trace per user.
    pub fn per_user_stats(trace: &Trace) -> Vec<UserStats> {
        let mut map: BTreeMap<UserId, UserStats> = BTreeMap::new();
        for j in &trace.jobs {
            let s = map.entry(j.user).or_insert_with(|| UserStats {
                user: j.user,
                ..Default::default()
            });
            if j.is_gpu() {
                s.gpu_jobs += 1;
                s.gpu_time += j.gpu_time() as f64;
                s.queue_delay += j.queue_delay() as f64;
                if j.status == JobStatus::Completed {
                    s.completed_gpu_jobs += 1;
                }
            } else {
                s.cpu_jobs += 1;
                s.cpu_time += j.cpu_time() as f64;
            }
        }
        // BTreeMap iteration is user-id order already — the report contract.
        map.into_values().collect()
    }
}

pub mod clusters {
    use super::timeseries::submission_rate_series;
    use helios_analysis::clusters::DailyPattern;
    use helios_analysis::timeseries::{gpu_utilization_series, hourly_profile};
    use helios_trace::{Trace, SECS_PER_HOUR};

    /// Compute Fig. 2 for one trace.
    pub fn daily_pattern(trace: &Trace) -> DailyPattern {
        let horizon = trace.calendar.total_seconds();
        let util = gpu_utilization_series(
            &trace.jobs,
            trace.total_gpus() as u64,
            0,
            horizon,
            SECS_PER_HOUR,
        );
        let subs = submission_rate_series(&trace.jobs, 0, horizon, SECS_PER_HOUR, |j| j.is_gpu());
        DailyPattern {
            cluster: trace.spec.id.name().to_string(),
            hourly_utilization: hourly_profile(&util)
                .into_iter()
                .map(|u| u * 100.0)
                .collect(),
            hourly_submissions: hourly_profile(&subs),
            utilization_std_dev: util.std_dev() * 100.0,
        }
    }
}

pub mod timeseries {
    use helios_analysis::BinnedSeries;
    use helios_trace::JobRecord;
    use rayon::prelude::*;

    /// Jobs submitted per bin (optionally restricted by a filter).
    pub fn submission_rate_series<F: Fn(&JobRecord) -> bool + Sync>(
        jobs: &[JobRecord],
        t0: i64,
        t1: i64,
        bin: i64,
        filter: F,
    ) -> BinnedSeries {
        assert!(bin > 0 && t1 > t0);
        let n = (((t1 - t0) + bin - 1) / bin) as usize;
        // Parallel fold: count submissions per bin.
        let values = jobs
            .par_iter()
            .fold(
                || vec![0.0f64; n],
                |mut acc, j| {
                    if j.submit >= t0 && j.submit < t1 && filter(j) {
                        acc[((j.submit - t0) / bin) as usize] += 1.0;
                    }
                    acc
                },
            )
            .reduce(
                || vec![0.0f64; n],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
        BinnedSeries { t0, bin, values }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use helios_trace::JobStatus;

        fn job(gpus: u32, start: i64, duration: i64) -> JobRecord {
            JobRecord {
                id: 0,
                user: 0,
                vc: 0,
                gpus,
                cpus: 0,
                submit: start,
                start,
                duration,
                status: JobStatus::Completed,
                name: 0,
                run: 0,
            }
        }

        #[test]
        fn submission_counts() {
            let jobs = vec![job(1, 10, 5), job(1, 20, 5), job(2, 110, 5)];
            let s = submission_rate_series(&jobs, 0, 200, 100, |_| true);
            assert_eq!(s.values, vec![2.0, 1.0]);
            let multi = submission_rate_series(&jobs, 0, 200, 100, |j| j.gpus > 1);
            assert_eq!(multi.values, vec![0.0, 1.0]);
        }
    }
}
