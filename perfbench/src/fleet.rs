//! The layer sweep's fleet stream: evaluation-window jobs streamed into a running
//! [`Fleet`] in virtual-time order, one 10-minute admission cycle at a
//! time (submit the jobs due, advance, read each cluster's status), with
//! daily drains of finished outcomes, periodic whole-fleet snapshots and a
//! final shutdown.

use crate::checks::{self, Row};
use crate::metrics::{median, percentile, percentile_supported, Metrics};
use crate::spans::Tracer;
use crate::Res;
use helios_fleet::{ClusterConfig, Fleet, FleetConfig, StatusKind};
use helios_sim::{simulate_with, JobOutcome, KernelConfig, Policy, SimJob};
use helios_trace::{ClusterId, HeliosError, Trace};
use std::time::{Duration, Instant};

/// Virtual seconds per admission cycle.
pub const CYCLE_SECS: i64 = 600;
/// Cycles between two `Fleet::snapshot` calls (three virtual days).
pub const SNAPSHOT_EVERY: u64 = 432;
/// Cycles between two `Fleet::drain` calls per cluster (one virtual day).
pub const DRAIN_EVERY: u64 = 144;
/// Deadline of each `status_within` query.
const STATUS_DEADLINE: Duration = Duration::from_millis(100);

pub struct StreamCluster {
    pub id: ClusterId,
    pub policy: Policy,
    /// Evaluation-window jobs in submission order.
    pub jobs: Vec<SimJob>,
}

/// The job stream: one entry per hosted cluster, all on one virtual
/// timeline starting at `start`. Every pass streams the same jobs into a
/// freshly launched fleet, so passes do the same work.
pub struct Stream {
    pub clusters: Vec<StreamCluster>,
    pub start: i64,
    pub cycles: u64,
}

impl Stream {
    /// Stream the evaluation windows of `traces`, hosting them under
    /// `policies` in order.
    pub fn new(traces: &[&Trace], policies: &[Policy], tr: &mut Tracer) -> Stream {
        let mut start = i64::MAX;
        let mut end = i64::MIN;
        let clusters = traces
            .iter()
            .zip(policies)
            .map(|(t, &policy)| {
                let (lo, hi) = crate::sched::eval_window(t);
                start = start.min(lo);
                end = end.max(hi);
                let mut jobs = tr.span("sim.jobs_from_trace", || {
                    helios_sim::jobs_from_trace(t, lo, hi)
                });
                jobs.sort_by_key(|j| (j.submit, j.id));
                StreamCluster {
                    id: t.spec.id,
                    policy,
                    jobs,
                }
            })
            .collect();
        Stream {
            clusters,
            start,
            cycles: ((end - start + CYCLE_SECS - 1) / CYCLE_SECS) as u64,
        }
    }

    /// Digest of each cluster's jobs run in bulk through one kernel on the
    /// preset the fleet hosts: the stream must deliver the same outcomes.
    pub fn bulk_digests(&self) -> Res<Vec<Option<String>>> {
        self.clusters
            .iter()
            .map(|c| {
                let spec = helios_trace::preset(c.id);
                let run =
                    simulate_with(&spec, &c.jobs, c.policy.build(), &KernelConfig::default())?;
                Ok(checks::digest(&mut run.outcomes.clone()))
            })
            .collect()
    }

    pub fn launch(&self, tr: &mut Tracer) -> Res<Fleet> {
        let mut cfg = FleetConfig::new();
        for c in &self.clusters {
            cfg = cfg.with_cluster(ClusterConfig::new(c.id, c.policy));
        }
        Ok(tr.span("fleet.launch", || Fleet::launch(&cfg))?)
    }
}

/// What one cluster's own calls measured, over every pass.
#[derive(Default)]
pub struct ClusterTally {
    pub submit_us: Vec<f64>,
    pub status_us: Vec<f64>,
    pub fresh: u64,
    pub retries: u64,
    /// Outcomes and digest of the first pass; later passes must repeat it.
    pub jobs: usize,
    pub digest: Option<String>,
}

#[derive(Default)]
pub struct Tally {
    pub per: Vec<ClusterTally>,
    pub advance_ms: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    pub snapshot_ms: Vec<f64>,
    pub snapshot_bytes: Vec<f64>,
    pub shutdown_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
}

impl Tally {
    pub fn new(clusters: usize) -> Tally {
        Tally {
            per: (0..clusters).map(|_| ClusterTally::default()).collect(),
            ..Tally::default()
        }
    }
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One pass: launch a fleet, stream the whole window through it, shut it
/// down, and check exactly-once delivery and the outcome digests.
pub fn pass(s: &Stream, tally: &mut Tally, tr: &mut Tracer) -> Res<()> {
    let fleet = s.launch(tr)?;
    let n = s.clusters.len();
    let mut accepted: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut delivered: Vec<Vec<JobOutcome>> = vec![Vec::new(); n];
    let mut next = vec![0usize; n];
    for cycle in 0..s.cycles {
        let floor = s.start + cycle as i64 * CYCLE_SECS;
        let until = floor + CYCLE_SECS;
        let cycle_started = Instant::now();
        tr.begin("bench.cycle");
        for (ci, c) in s.clusters.iter().enumerate() {
            let t = &mut tally.per[ci];
            tr.begin("fleet.submit");
            while let Some(&job) = c.jobs.get(next[ci]) {
                if job.submit >= until {
                    break;
                }
                tally.attempted += 1;
                let started = Instant::now();
                let mut res = fleet.submit(c.id, job);
                if let Err(HeliosError::FleetOverflow { .. }) = res {
                    // A full shard is backpressure, not a failure: run one
                    // admission cycle at the current floor and retry.
                    t.retries += 1;
                    res = fleet
                        .advance_cluster(c.id, floor)
                        .and_then(|_| fleet.submit(c.id, job));
                }
                if let Err(e) = res {
                    tally.failed += 1;
                    return Err(
                        format!("{}: submit of job {} failed: {e}", c.id.name(), job.id).into(),
                    );
                }
                t.submit_us.push(micros(started));
                accepted[ci].push(job.id);
                next[ci] += 1;
            }
            tr.end();
        }
        let started = Instant::now();
        tr.span("fleet.advance", || fleet.advance(until))?;
        tally.advance_ms.push(started.elapsed().as_secs_f64() * 1e3);
        for (ci, c) in s.clusters.iter().enumerate() {
            tally.attempted += 1;
            let started = Instant::now();
            let report = tr.span("fleet.status", || {
                fleet.status_within(c.id, STATUS_DEADLINE)
            })?;
            tally.per[ci].status_us.push(micros(started));
            match report.kind {
                StatusKind::Fresh => tally.per[ci].fresh += 1,
                StatusKind::Stale { .. } => {}
                StatusKind::Degraded => tally.failed += 1,
            }
            if report.status.pending_ingest != 0 {
                return Err(format!(
                    "{}: an admission cycle left {} jobs in the shards",
                    c.id.name(),
                    report.status.pending_ingest
                )
                .into());
            }
        }
        tr.end();
        tally
            .cycle_ms
            .push(cycle_started.elapsed().as_secs_f64() * 1e3);
        if (cycle + 1) % DRAIN_EVERY == 0 {
            for (ci, c) in s.clusters.iter().enumerate() {
                let outs = tr.span("fleet.drain", || fleet.drain(c.id))?;
                delivered[ci].extend(outs);
            }
        }
        if (cycle + 1) % SNAPSHOT_EVERY == 0 {
            let started = Instant::now();
            let frame = tr.span("fleet.snapshot", || fleet.snapshot())?;
            tally
                .snapshot_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            tally.snapshot_bytes.push(frame.len() as f64);
        }
    }
    let started = Instant::now();
    let rest = tr.span("fleet.shutdown", || fleet.shutdown())?;
    tally.shutdown_s.push(started.elapsed().as_secs_f64());
    for (ci, (id, outs)) in rest.into_iter().enumerate() {
        let c = &s.clusters[ci];
        if id != c.id {
            return Err(format!(
                "shutdown returned {} in place of {}",
                id.name(),
                c.id.name()
            )
            .into());
        }
        delivered[ci].extend(outs);
        check_delivery(c, &mut accepted[ci], &mut delivered[ci])?;
        let t = &mut tally.per[ci];
        let digest = checks::digest(&mut delivered[ci]);
        if tally.passes == 0 {
            t.jobs = delivered[ci].len();
            t.digest = digest;
        } else if digest != t.digest {
            return Err(format!("{}: outcome digest differs between passes", c.id.name()).into());
        }
    }
    tally.passes += 1;
    Ok(())
}

/// Exactly-once delivery: the outcomes drained during the pass plus those
/// returned at shutdown are exactly the accepted jobs, each once, with
/// possible timing.
fn check_delivery(c: &StreamCluster, accepted: &mut [u64], outs: &mut [JobOutcome]) -> Res<()> {
    outs.sort_by_key(|o| o.id);
    accepted.sort_unstable();
    if outs.windows(2).any(|w| w[0].id == w[1].id) {
        return Err(format!("{}: an outcome was delivered twice", c.id.name()).into());
    }
    if outs.len() != accepted.len() || outs.iter().zip(accepted.iter()).any(|(o, &id)| o.id != id) {
        return Err(format!(
            "{}: {} outcomes delivered for {} accepted jobs",
            c.id.name(),
            outs.len(),
            accepted.len()
        )
        .into());
    }
    if let Some(o) = outs
        .iter()
        .find(|o| o.start < o.submit || o.end - o.start < o.duration)
    {
        return Err(format!("{}: impossible timing in {o:?}", c.id.name()).into());
    }
    Ok(())
}

/// Per-cluster rows, each from that cluster's own calls.
pub fn rows(s: &Stream, tally: &Tally) -> Vec<Row> {
    s.clusters
        .iter()
        .zip(&tally.per)
        .map(|(c, t)| Row {
            cluster: c.id.name().to_string(),
            label: format!("stream-{:?}", c.policy),
            jobs: t.jobs,
            digest: t.digest.clone(),
            figures: vec![
                ("retries", t.retries as f64),
                ("submit_us_p50", median_or_zero(&t.submit_us)),
                ("status_us_p50", median_or_zero(&t.status_us)),
                ("fresh", t.fresh as f64),
            ],
        })
        .collect()
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// The `fleet.*` per-layer metrics of one streamed fleet. A percentile
/// needs at least ten samples beyond it.
pub fn layer_metrics(tally: &Tally, m: &mut Metrics) -> Res<()> {
    let submit: Vec<f64> = tally
        .per
        .iter()
        .flat_map(|t| t.submit_us.iter().copied())
        .collect();
    let status: Vec<f64> = tally
        .per
        .iter()
        .flat_map(|t| t.status_us.iter().copied())
        .collect();
    let statuses = status.len();
    let fresh: u64 = tally.per.iter().map(|t| t.fresh).sum();
    let retries: u64 = tally.per.iter().map(|t| t.retries).sum();
    for (name, xs, q) in [
        ("fleet.submit_us.p50", &submit, 0.5),
        ("fleet.submit_us.p99", &submit, 0.99),
        ("fleet.advance_ms.p50", &tally.advance_ms, 0.5),
        ("fleet.advance_ms.p99", &tally.advance_ms, 0.99),
        ("fleet.status_us.p50", &status, 0.5),
        ("fleet.status_us.p99", &status, 0.99),
    ] {
        if !percentile_supported(xs.len(), q) {
            return Err(format!("{name}: {} samples cannot support it", xs.len()).into());
        }
        let v = if q == 0.5 {
            median(xs)
        } else {
            percentile(xs, q)
        };
        m.set(name, v, xs.len());
    }
    m.note("fleet.overflow_retries", retries as f64);
    m.note(
        "fleet.status_fresh_ratio",
        fresh as f64 / statuses.max(1) as f64,
    );
    m.set(
        "fleet.snapshot_ms",
        median_or_zero(&tally.snapshot_ms),
        tally.snapshot_ms.len(),
    );
    m.set(
        "fleet.snapshot_bytes",
        median_or_zero(&tally.snapshot_bytes),
        tally.snapshot_bytes.len(),
    );
    m.set(
        "fleet.shutdown_s",
        median_or_zero(&tally.shutdown_s),
        tally.shutdown_s.len(),
    );
    m.note("fleet.cycles", tally.cycle_ms.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Stream {
        let cluster = |id, policy| StreamCluster {
            id,
            policy,
            jobs: Vec::new(),
        };
        Stream {
            clusters: vec![
                cluster(ClusterId::Saturn, Policy::Srtf),
                cluster(ClusterId::Venus, Policy::Fifo),
            ],
            start: 0,
            cycles: 0,
        }
    }

    fn tally(venus_submit_us: f64) -> Tally {
        let mut t = Tally::new(2);
        for (ci, (submit, digest)) in [
            (3.5, "0123456789abcdef"),
            (venus_submit_us, "fedcba9876543210"),
        ]
        .into_iter()
        .enumerate()
        {
            let c = &mut t.per[ci];
            c.submit_us = vec![submit];
            c.status_us = vec![12.0];
            c.fresh = 1;
            c.jobs = 1;
            c.digest = Some(digest.into());
        }
        t
    }

    #[test]
    fn copied_fleet_figures_fail_validation() {
        let s = stream();
        let own = rows(&s, &tally(4.5));
        assert_ne!(own[0].label, own[1].label);
        assert!(checks::validate_rows(&own).is_ok());
        let copied = rows(&s, &tally(3.5));
        let err = checks::validate_rows(&copied).unwrap_err();
        assert!(err.contains("copies the figures"), "{err}");
    }
}
