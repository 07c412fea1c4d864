//! `sched-replay`: the evaluation-window jobs of the four Helios clusters
//! replayed through the scheduler kernel — five policies without failures,
//! then FIFO and drain-wrapped FIFO with failure injection.

use crate::checks::{self, Row};
use crate::spans::Tracer;
use crate::Res;
use helios_core::noisy_oracle_priorities;
use helios_faults::{goodput, DrainConfig, DrainPolicy};
use helios_sim::{
    jobs_from_trace, schedule_stats, ClusterView, FaultConfig, FaultStats, FifoPolicy, JobOutcome,
    KernelConfig, PriorityPolicy, SchedulingPolicy, SimEvent, SimJob, SimObserver, Simulator,
    SjfPolicy, SrtfPolicy, TiresiasPolicy,
};
use helios_trace::{ClusterSpec, Trace};

/// Per-node MTBF of the failure-injected runs: a failure every three
/// days per node, with two-hourly checkpoints so long jobs terminate.
pub const MTBF_HOURS: f64 = 72.0;

pub fn fault_config(seed: u64) -> FaultConfig {
    FaultConfig::with_mtbf_hours(MTBF_HOURS)
        .checkpoint_hours(2.0)
        .seed(seed)
}

/// Kernel lifecycle events by kind; registered only in traced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCounts {
    pub submit: u64,
    pub start: u64,
    pub finish: u64,
    pub preempt: u64,
    pub node_fail: u64,
    pub node_repair: u64,
}

impl EventCounts {
    pub fn total(&self) -> u64 {
        self.submit + self.start + self.finish + self.preempt + self.node_fail + self.node_repair
    }
}

impl SimObserver for EventCounts {
    fn on_event(&mut self, event: &SimEvent, _cluster: &ClusterView<'_>) {
        match event {
            SimEvent::Submit { .. } => self.submit += 1,
            SimEvent::Start { .. } => self.start += 1,
            SimEvent::Finish { .. } => self.finish += 1,
            SimEvent::Preempt { .. } => self.preempt += 1,
            SimEvent::NodeFail { .. } => self.node_fail += 1,
            SimEvent::NodeRepair { .. } => self.node_repair += 1,
        }
    }
}

/// One simulation: its outcomes in id order and the failure totals.
pub struct SimOut {
    pub outcomes: Vec<JobOutcome>,
    pub stats: Option<FaultStats>,
}

/// Push `jobs` into a fresh kernel and run it to completion, with spans
/// `sim.push` and `run_span` around the two calls.
pub fn simulate(
    spec: &ClusterSpec,
    jobs: &[SimJob],
    policy: Box<dyn SchedulingPolicy>,
    faults: Option<&FaultConfig>,
    counts: Option<&mut EventCounts>,
    tr: &mut Tracer,
    run_span: &str,
) -> Res<SimOut> {
    let mut sim = Simulator::with_config(spec, policy, &KernelConfig::default());
    if let Some(f) = faults {
        sim.enable_faults(f)?;
    }
    if let Some(c) = counts {
        sim.observe(Box::new(c));
    }
    tr.span("sim.push", || sim.push_jobs(jobs))?;
    tr.span(run_span, || sim.run_to_completion());
    let mut outcomes = sim.drain_outcomes();
    outcomes.sort_by_key(|o| o.id);
    Ok(SimOut {
        stats: sim.fault_stats(),
        outcomes,
    })
}

/// The job lists one cluster is replayed with.
pub struct ReplayCluster {
    pub name: &'static str,
    pub spec: ClusterSpec,
    /// Evaluation-window jobs, priorities = submission time.
    pub base: Vec<SimJob>,
    /// The same jobs with noisy-oracle QSSF priorities (no model trained).
    pub oracle: Vec<SimJob>,
}

impl ReplayCluster {
    pub fn build(trace: &Trace, seed: u64, tr: &mut Tracer) -> ReplayCluster {
        let (lo, hi) = eval_window(trace);
        ReplayCluster {
            name: trace.spec.id.name(),
            spec: trace.spec.clone(),
            base: tr.span("sim.jobs_from_trace", || jobs_from_trace(trace, lo, hi)),
            oracle: tr.span("core.oracle_priorities", || {
                noisy_oracle_priorities(trace, lo, hi, 0.8, seed ^ 0xF1)
            }),
        }
    }
}

/// The last calendar month: the window every workload schedules.
pub fn eval_window(trace: &Trace) -> (i64, i64) {
    trace.calendar.month_range(trace.calendar.num_months() - 1)
}

#[derive(Clone, Copy, PartialEq)]
enum Run {
    Fifo,
    Sjf,
    Srtf,
    Tiresias,
    QssfOracle,
    FaultFifo,
    FaultDrainFifo,
}

/// `(run, label, span)` in replay order. The first five are the quiet
/// pass, the last two the failure-injected pass.
const RUNS: [(Run, &str, &str); 7] = [
    (Run::Fifo, "FIFO", "sim.fifo.run"),
    (Run::Sjf, "SJF", "sim.sjf.run"),
    (Run::Srtf, "SRTF", "sim.srtf.run"),
    (Run::Tiresias, "TIRESIAS", "sim.tiresias.run"),
    (Run::QssfOracle, "QSSF-oracle", "sim.qssf_oracle.run"),
    (Run::FaultFifo, "FIFO+faults", "faults.fifo.run"),
    (
        Run::FaultDrainFifo,
        "DRAIN-FIFO+faults",
        "faults.drain_fifo.run",
    ),
];

/// One replayed simulation, summarized.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub row: Row,
    pub avg_jct: f64,
    pub stats: Option<FaultStats>,
    pub goodput: f64,
}

/// Replay one cluster through all seven runs, checking every outcome.
pub fn replay(
    c: &ReplayCluster,
    faults: &FaultConfig,
    mut counts: Option<&mut EventCounts>,
    tr: &mut Tracer,
) -> Res<Vec<Replayed>> {
    let mut out = Vec::with_capacity(RUNS.len());
    for (run, label, span) in RUNS {
        let policy: Box<dyn SchedulingPolicy> = match run {
            Run::Fifo | Run::FaultFifo => Box::new(FifoPolicy),
            Run::Sjf => Box::new(SjfPolicy),
            Run::Srtf => Box::new(SrtfPolicy),
            Run::Tiresias => Box::new(TiresiasPolicy::default()),
            Run::QssfOracle => Box::new(PriorityPolicy::named("QSSF")),
            Run::FaultDrainFifo => Box::new(DrainPolicy::uptime(
                Box::new(FifoPolicy),
                MTBF_HOURS,
                DrainConfig::default(),
            )?),
        };
        let faulted = matches!(run, Run::FaultFifo | Run::FaultDrainFifo);
        let jobs = if run == Run::QssfOracle {
            &c.oracle
        } else {
            &c.base
        };
        let sim = simulate(
            &c.spec,
            jobs,
            policy,
            faulted.then_some(faults),
            counts.as_deref_mut(),
            tr,
            span,
        )?;
        let exclusive = matches!(run, Run::Fifo | Run::Sjf | Run::QssfOracle);
        let what = format!("{}/{label}", c.name);
        checks::check_outcomes(&what, jobs, &sim.outcomes, exclusive)?;
        let mut outcomes = sim.outcomes;
        let g = goodput(&outcomes, sim.stats);
        out.push(Replayed {
            avg_jct: schedule_stats(&outcomes).avg_jct,
            stats: sim.stats,
            goodput: g.ratio(),
            row: Row {
                cluster: c.name.to_string(),
                label: label.to_string(),
                jobs: jobs.len(),
                digest: checks::digest(&mut outcomes),
                figures: Vec::new(),
            },
        });
    }
    Ok(out)
}
