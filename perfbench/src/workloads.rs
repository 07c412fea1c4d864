//! The two workloads. Each one sets up, runs its operation in a closed
//! loop for the requested seconds, sets up four more times (the median of
//! the five set-ups is `setup_s`), checks every output, and in a traced
//! run adds the layer sweep.

use crate::checks::{self, Pins, Row};
use crate::heap;
use crate::host;
use crate::metrics::{self, median, Metrics, LAYERS};
use crate::sched::{self, EventCounts, ReplayCluster};
use crate::spans::Tracer;
use crate::sweep;
use crate::Res;
use helios::prelude::{Helios, Preset, SchedulePolicy, Session};
use helios_sim::{jobs_from_trace, simulate_with, FifoPolicy, KernelConfig, SimJob};
use helios_trace::{generate, profile_for, ClusterId, GeneratorConfig, Trace};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Seed of the reference runs pinned for every workload. A run whose own
/// seed and scale have no pins also runs this seed at the workload's
/// `check_scale` and compares those digests with their pins.
pub const CHECK_SEED: u64 = 2020;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QssfPipeline,
    SchedReplay,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::QssfPipeline, Workload::SchedReplay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QssfPipeline => "qssf-pipeline",
            Workload::SchedReplay => "sched-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace scale the workload runs at.
    /// `sched-replay` runs at a quarter scale: at full scale its replay
    /// times swung by a fifth between identical runs on a shared host,
    /// against a twentieth at this size.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::QssfPipeline => 0.1,
            Workload::SchedReplay => 0.25,
        }
    }

    /// Scale of the small pinned reference run (see `CHECK_SEED`).
    pub fn check_scale(self) -> f64 {
        match self {
            Workload::QssfPipeline => 0.02,
            Workload::SchedReplay => 0.05,
        }
    }

    /// Fewest measured operations per run.
    fn min_ops(self) -> usize {
        match self {
            Workload::QssfPipeline => 3,
            Workload::SchedReplay => 5,
        }
    }
}

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub traced: bool,
    pub pins: Pins,
}

/// Everything a run measured and checked.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub rows: Vec<Row>,
    /// Wall seconds of each untraced operation, in run order.
    pub op_secs: Vec<f64>,
    /// Peak live heap of each untraced operation, in MB, in run order.
    pub op_peak_heap_mb: Vec<f64>,
    /// Digests of this run that matched a pin.
    pub pins_checked: usize,
    /// Digests of the reference run (`CHECK_SEED`) that matched a pin;
    /// 0 when the run's own digests were pinned.
    pub reference_pins_checked: usize,
    /// Spans of the traced operations and of the set-up plus sweep.
    pub op_spans: Tracer,
    pub sweep_spans: Tracer,
}

/// Operation timings of the closed loop: with tracing off, and (in a
/// traced run, alternating with them) with tracing on.
#[derive(Default)]
struct Loop {
    plain: Vec<f64>,
    traced: Vec<f64>,
    /// Wall seconds of `host::time_kernel`: `KERNEL_BURST` times before
    /// the loop, once before each untraced operation, `KERNEL_BURST` times
    /// after the loop.
    kernel: Vec<f64>,
    /// Peak live heap of each untraced operation, in MB, inputs included.
    peak_heap_mb: Vec<f64>,
}

/// Runs of the host kernel before and after the loop, so the median rests
/// on enough samples when the loop makes few operations: a
/// `qssf-pipeline` run makes about fifteen.
const KERNEL_BURST: usize = 8;

fn time_kernel_burst(kernel: &mut Vec<f64>) {
    kernel.extend((0..KERNEL_BURST).map(|_| host::time_kernel()));
}

/// Run `op` back to back until `seconds` have passed and at least
/// `min_ops` untraced operations ran. A traced run alternates untraced
/// and traced operations, so both see the same conditions.
fn closed_loop(
    cfg: &RunCfg,
    op_tr: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> Res<()>,
) -> Res<Loop> {
    let mut off = Tracer::new(false);
    let mut lp = Loop::default();
    time_kernel_burst(&mut lp.kernel);
    let started = Instant::now();
    loop {
        let traced_turn = cfg.traced && lp.plain.len() > lp.traced.len();
        if traced_turn {
            let t0 = Instant::now();
            op(op_tr)?;
            lp.traced.push(t0.elapsed().as_secs_f64());
        } else {
            lp.kernel.push(host::time_kernel());
            heap::reset_peak();
            let t0 = Instant::now();
            op(&mut off)?;
            lp.plain.push(t0.elapsed().as_secs_f64());
            lp.peak_heap_mb.push(heap::peak_mb());
        }
        let balanced = !cfg.traced || lp.traced.len() == lp.plain.len();
        if balanced
            && lp.plain.len() >= cfg.workload.min_ops()
            && started.elapsed().as_secs_f64() >= cfg.seconds
        {
            time_kernel_burst(&mut lp.kernel);
            return Ok(lp);
        }
    }
}

/// Wall seconds of every set-up, and the peak live heap of the first, in
/// MB.
struct Setups {
    secs: Vec<f64>,
    first_peak_heap_mb: f64,
}

/// The set-up the run uses, timed; in a traced run it records spans.
/// The other `SETUP_REPEATS - 1` set-ups run after the measured loop
/// (`Setups::repeat`), so the loop starts from the state one set-up
/// leaves, whatever the others would allocate and free.
fn setup<T>(tr: &mut Tracer, make: &impl Fn(&mut Tracer) -> Res<T>) -> Res<(T, Setups)> {
    let started = Instant::now();
    let kept = make(tr)?;
    let secs = vec![started.elapsed().as_secs_f64()];
    let first_peak_heap_mb = heap::peak_mb();
    Ok((
        kept,
        Setups {
            secs,
            first_peak_heap_mb,
        },
    ))
}

impl Setups {
    /// Time the remaining set-ups, untraced, dropping each result.
    fn repeat<T>(&mut self, make: &impl Fn(&mut Tracer) -> Res<T>) -> Res<()> {
        let mut off = Tracer::new(false);
        while self.secs.len() < SETUP_REPEATS {
            let started = Instant::now();
            drop(make(&mut off)?);
            self.secs.push(started.elapsed().as_secs_f64());
        }
        Ok(())
    }
}

fn generate_traced(id: ClusterId, cfg: &RunCfg, tr: &mut Tracer) -> Res<Trace> {
    let gcfg = GeneratorConfig {
        scale: cfg.scale,
        seed: cfg.seed,
    };
    Ok(tr.span("trace.generate", || generate(&profile_for(id), &gcfg))?)
}

/// What a workload's closed loop produced, before the shared tail.
struct Measured<'a> {
    /// The workload's traces, for the layer sweep.
    traces: Vec<&'a Trace>,
    setup: Setups,
    lp: Loop,
    jobs_per_op: f64,
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
}

/// The shared tail of every workload: digest pins, end-to-end metrics
/// and, in a traced run, the layer sweep.
fn conclude(
    cfg: &RunCfg,
    run: Measured<'_>,
    op_tr: Tracer,
    mut sweep_tr: Tracer,
) -> Res<RunResult> {
    let mut pins_checked = 0;
    for row in &run.rows {
        let label = format!("{}/{}", row.cluster, row.label);
        let digest = row.digest.as_deref();
        if cfg
            .pins
            .check(cfg.workload.name(), cfg.seed, cfg.scale, &label, digest)?
        {
            pins_checked += 1;
        }
    }
    let mut m = Metrics::default();
    let plain = &run.lp.plain;
    // How much slower than the reference host this one ran; the timings
    // are divided by it (see `host`).
    let slowdown = median(&run.lp.kernel) / host::REFERENCE_SECS;
    m.note("host_slowdown", slowdown);
    let setup_s = median(&run.setup.secs);
    m.note("measured_setup_s", setup_s);
    m.set("setup_s", setup_s / slowdown, run.setup.secs.len());
    m.set(
        "peak_heap_mb",
        median(&run.lp.peak_heap_mb),
        run.lp.peak_heap_mb.len(),
    );
    m.note("setup_peak_heap_mb", run.setup.first_peak_heap_mb);
    m.note(
        "process_peak_rss_mb",
        metrics::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    let busy: f64 = plain.iter().sum();
    let jobs_per_s = run.jobs_per_op * plain.len() as f64 / busy;
    m.note("measured_jobs_per_s", jobs_per_s);
    m.set("jobs_per_s", jobs_per_s * slowdown, plain.len());
    let (mut attempted, mut failed) = (run.attempted, run.failed);
    if cfg.traced {
        let out = sweep::run(&run.traces, cfg.seed, &mut sweep_tr)?;
        attempted += out.attempted;
        failed += out.failed;
        m.merge(out.metrics);
        layer_common(&mut m, &sweep_tr, &run.traces, &run.lp);
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: m,
        rows: run.rows,
        op_secs: run.lp.plain,
        op_peak_heap_mb: run.lp.peak_heap_mb,
        pins_checked,
        reference_pins_checked: 0,
        op_spans: op_tr,
        sweep_spans: sweep_tr,
    })
}

/// Per-layer figures every traced run shares: generation, self time per
/// crate, and the tracing overhead.
fn layer_common(m: &mut Metrics, tr: &Tracer, traces: &[&Trace], lp: &Loop) {
    m.set(
        "trace.generate_s",
        tr.total_secs("trace.generate"),
        tr.count("trace.generate"),
    );
    let jobs: usize = traces.iter().map(|t| t.jobs.len()).sum();
    m.set("trace.jobs", jobs as f64, traces.len());
    let by_layer = tr.self_secs_by_layer();
    for layer in LAYERS {
        let v = by_layer.get(layer).copied().unwrap_or(0.0);
        m.set(&format!("{layer}.self_s"), v, tr.spans().len());
    }
    m.set(
        "bench.tracing_overhead_s",
        median(&lp.traced) - median(&lp.plain),
        lp.traced.len().min(lp.plain.len()),
    );
}

/// Run the workload of `cfg` and check its outputs. When no pin covers
/// the run's seed and scale, the pinned reference run (`CHECK_SEED` at
/// `check_scale`) is made and checked as well, so every run compares its
/// program's outcomes with pins; with no pin for either, the run fails.
pub fn run(cfg: &RunCfg) -> Res<RunResult> {
    let mut res = run_workload(cfg)?;
    if res.pins_checked == 0 {
        let reference = RunCfg {
            workload: cfg.workload,
            seed: CHECK_SEED,
            scale: cfg.workload.check_scale(),
            seconds: 0.0,
            traced: false,
            pins: cfg.pins.clone(),
        };
        res.reference_pins_checked = run_workload(&reference)?.pins_checked;
        if res.reference_pins_checked == 0 {
            return Err(format!(
                "no digest pins for {} at seed {} scale {} or at seed {} scale {}",
                cfg.workload.name(),
                cfg.seed,
                cfg.scale,
                reference.seed,
                reference.scale
            )
            .into());
        }
    }
    Ok(res)
}

fn run_workload(cfg: &RunCfg) -> Res<RunResult> {
    match cfg.workload {
        Workload::QssfPipeline => qssf_pipeline(cfg),
        Workload::SchedReplay => sched_replay(cfg),
    }
}

/// What one session iteration produced, compared across iterations.
#[derive(Debug, Clone, PartialEq)]
struct SessionDigests {
    fifo: Row,
    qssf: Row,
    speedup: f64,
    smape: f64,
}

fn session_iteration(base: &Session, jobs: &[SimJob], tr: &mut Tracer) -> Res<SessionDigests> {
    let mut s = base.clone();
    tr.span("session.pipeline", || s.pipeline().map(|_| ()))?;
    tr.span("session.schedule_fifo", || {
        s.schedule(SchedulePolicy::Fifo).map(|_| ())
    })?;
    tr.span("session.schedule_qssf", || {
        s.schedule(SchedulePolicy::Qssf).map(|_| ())
    })?;
    let report = tr.span("session.report", || s.report())?;
    let row = |p: SchedulePolicy| -> Res<Row> {
        let run = s
            .schedule_outcomes()
            .iter()
            .find(|o| o.policy == Some(p))
            .ok_or_else(|| format!("session has no {} outcome", p.label()))?;
        let mut outcomes = run.outcomes.clone();
        outcomes.sort_by_key(|o| o.id);
        checks::check_outcomes(&format!("Saturn/{}", run.label), jobs, &outcomes, true)?;
        Ok(Row {
            cluster: "Saturn".into(),
            label: run.label.clone(),
            jobs: outcomes.len(),
            digest: checks::digest(&mut outcomes),
            figures: vec![("avg_jct", run.stats.avg_jct)],
        })
    };
    Ok(SessionDigests {
        fifo: row(SchedulePolicy::Fifo)?,
        qssf: row(SchedulePolicy::Qssf)?,
        speedup: report
            .qssf_vs_fifo
            .ok_or("report has no QSSF-vs-FIFO gain")?
            .jct,
        smape: report.ces.ok_or("report has no CES summary")?.smape,
    })
}

fn qssf_pipeline(cfg: &RunCfg) -> Res<RunResult> {
    let mut sweep_tr = Tracer::new(cfg.traced);
    let mut op_tr = Tracer::new(cfg.traced);
    let make = |tr: &mut Tracer| -> Res<Session> {
        let mut s = Helios::cluster(Preset::Saturn)
            .scale(cfg.scale)
            .seed(cfg.seed)
            .build()?;
        tr.span("trace.generate", || s.generate().map(|_| ()))?;
        Ok(s)
    };
    let (base, mut setups) = setup(&mut sweep_tr, &make)?;
    let trace = base.trace()?;
    let (lo, hi) = sched::eval_window(trace);
    let jobs = jobs_from_trace(trace, lo, hi);

    // Reference: FIFO straight through the kernel, outside the session.
    let mut reference = simulate_with(
        &trace.spec,
        &jobs,
        Box::new(FifoPolicy),
        &KernelConfig::default(),
    )?
    .outcomes;
    reference.sort_by_key(|o| o.id);
    checks::check_outcomes("Saturn/FIFO reference", &jobs, &reference, true)?;
    let reference = checks::digest(&mut reference);

    let mut first: Option<SessionDigests> = None;
    let mut ops = 0u64;
    let lp = closed_loop(cfg, &mut op_tr, |tr| {
        ops += 4;
        let d = session_iteration(&base, &jobs, tr)?;
        match &first {
            None => first = Some(d),
            Some(f) if *f != d => {
                return Err(
                    format!("session results differ between iterations: {f:?} vs {d:?}").into(),
                )
            }
            Some(_) => {}
        }
        Ok(())
    })?;
    setups.repeat(&make)?;
    let first = first.expect("the loop ran at least once");
    if first.fifo.digest != reference {
        return Err(format!(
            "session FIFO digest {:?} differs from the kernel's {:?}",
            first.fifo.digest, reference
        )
        .into());
    }
    if first.speedup <= 1.0 {
        return Err(format!("QSSF does not beat FIFO: JCT speed-up {}", first.speedup).into());
    }
    if !(first.smape > 0.0 && first.smape < 200.0) {
        return Err(format!("CES forecast SMAPE out of range: {}", first.smape).into());
    }
    let run = Measured {
        traces: vec![trace],
        setup: setups,
        lp,
        jobs_per_op: trace.gpu_jobs().count() as f64,
        rows: vec![first.fifo, first.qssf],
        attempted: ops,
        failed: 0,
    };
    conclude(cfg, run, op_tr, sweep_tr)
}

const REPLAY_CLUSTERS: [ClusterId; 4] = [
    ClusterId::Venus,
    ClusterId::Earth,
    ClusterId::Saturn,
    ClusterId::Uranus,
];

fn sched_replay(cfg: &RunCfg) -> Res<RunResult> {
    let mut sweep_tr = Tracer::new(cfg.traced);
    let mut op_tr = Tracer::new(cfg.traced);
    let make = |tr: &mut Tracer| -> Res<(Vec<Trace>, Vec<ReplayCluster>)> {
        let mut traces = Vec::with_capacity(REPLAY_CLUSTERS.len());
        let mut clusters = Vec::with_capacity(REPLAY_CLUSTERS.len());
        for id in REPLAY_CLUSTERS {
            let t = generate_traced(id, cfg, tr)?;
            clusters.push(ReplayCluster::build(&t, cfg.seed, tr));
            traces.push(t);
        }
        Ok((traces, clusters))
    };
    let ((traces, clusters), mut setups) = setup(&mut sweep_tr, &make)?;
    let faults = sched::fault_config(cfg.seed);
    let mut first: Option<Vec<Row>> = None;
    let mut ops = 0u64;
    let lp = closed_loop(cfg, &mut op_tr, |tr| {
        let mut counts = EventCounts::default();
        let mut rows = Vec::new();
        for c in &clusters {
            let observer = tr.is_on().then_some(&mut counts);
            for r in sched::replay(c, &faults, observer, tr)? {
                ops += 1;
                rows.push(r.row);
            }
        }
        match &first {
            None => first = Some(rows),
            Some(f) if *f != rows => return Err("replay digests differ between passes".into()),
            Some(_) => {}
        }
        Ok(())
    })?;
    setups.repeat(&make)?;
    let rows = first.expect("the loop ran at least once");
    let run = Measured {
        traces: traces.iter().collect(),
        setup: setups,
        lp,
        jobs_per_op: rows.iter().map(|r| r.jobs).sum::<usize>() as f64,
        rows,
        attempted: ops,
        failed: 0,
    };
    conclude(cfg, run, op_tr, sweep_tr)
}
