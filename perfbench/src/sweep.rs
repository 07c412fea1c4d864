//! The traced run's layer sweep: each crate's public entry point called in
//! turn on the workload's own traces, one span around each call.
//!
//! The model-side layers (`analysis`, `predict`, `core`, `energy`) run on
//! the workload's smallest trace; the kernel layers (`sim`, `faults`)
//! replay every trace; `fleet` streams the first two traces (SRTF, then
//! FIFO) through a freshly launched fleet.

use crate::fleet::{self, Stream, Tally};
use crate::metrics::Metrics;
use crate::sched::{self, EventCounts, ReplayCluster};
use crate::spans::Tracer;
use crate::Res;
use helios_core::{CesService, CesServiceConfig, QssfConfig, QssfService};
use helios_energy::node_series_from_trace;
use helios_predict::binning::BinnedDataset;
use helios_predict::features::job::build_training_matrix;
use helios_predict::Gbdt;
use helios_sim::{schedule_stats, Placement, Policy};
use helios_trace::{Trace, SECS_PER_DAY};
use std::hint::black_box;

/// What the sweep did, beyond its spans.
pub struct SweepOut {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// CES configuration with control thresholds scaled to the cluster size
/// (the defaults target the paper's 130–320-node clusters).
fn ces_config(nodes: u32) -> CesServiceConfig {
    let mut cfg = CesServiceConfig::default();
    let k = (nodes as f64 / 140.0).clamp(0.05, 3.0);
    cfg.control.buffer_nodes = (cfg.control.buffer_nodes * k).max(1.0);
    cfg.control.xi_hist = (cfg.control.xi_hist * k).max(0.25);
    cfg.control.xi_future = (cfg.control.xi_future * k).max(0.25);
    cfg
}

pub fn run(traces: &[&Trace], seed: u64, tr: &mut Tracer) -> Res<SweepOut> {
    let mut m = Metrics::default();
    let model = *traces
        .iter()
        .min_by_key(|t| t.jobs.len())
        .ok_or("sweep needs at least one trace")?;
    let (lo, hi) = sched::eval_window(model);

    tr.begin("bench.sweep");
    let characterized = tr.span("analysis.characterize", || {
        helios_analysis::characterize(model)
    });
    black_box(characterized);

    // predict: the QSSF training matrix, binned, then boosted.
    let params = QssfConfig::default().gbdt;
    let (cols, targets, _) = tr.span("predict.features", || build_training_matrix(model, 0, lo));
    black_box(tr.span("predict.bin", || {
        BinnedDataset::from_columns(&cols, params.max_bins)
    }));
    let gbdt = tr.span("predict.fit", || Gbdt::fit(&cols, &targets, &params, None));
    let fit_s = tr.total_secs("predict.fit");
    m.set("predict.train_rows", targets.len() as f64, 1);
    m.note("predict.trees", gbdt.num_trees() as f64);
    m.set(
        "predict.fit_row_trees_per_s",
        (targets.len() * gbdt.num_trees()) as f64 / fit_s,
        1,
    );
    drop((cols, targets, gbdt));

    // core: the QSSF service (training repeats the two steps above inside
    // the crate) and the CES service on the node-occupancy series.
    let mut qssf = QssfService::new(QssfConfig::default());
    tr.span("core.qssf_train", || qssf.train(model, 0, lo))?;
    let mut scorer = qssf.clone();
    let scored = tr.span("core.qssf_score", || {
        scorer.assign_priorities(model, lo, hi)
    });
    m.set("core.qssf_scored_jobs", scored.len() as f64, 1);
    let series = tr.span("energy.node_series", || {
        node_series_from_trace(model, 600, Placement::Consolidate)
    })?;
    let mut ces = CesService::new(ces_config(model.spec.nodes));
    let eval_end = (lo + 21 * SECS_PER_DAY).min(hi);
    let ces_eval = tr.span("core.ces_eval", || {
        ces.evaluate(model, &series, lo, eval_end)
    })?;
    m.set("core.ces_smape", ces_eval.smape, 1);

    // sim + faults: every trace through the seven replay runs, with the
    // counting observer attached; QSSF with trained priorities on the
    // model trace gives the JCT speed-up over FIFO.
    let faults = sched::fault_config(seed);
    let mut counts = EventCounts::default();
    // The eight model-side calls above, then one per simulation.
    let mut attempted = 8;
    let (mut failures, mut killed, mut useful) = (0u64, 0u64, Vec::new());
    let mut model_fifo_jct = None;
    for t in traces {
        let cluster = ReplayCluster::build(t, seed, tr);
        for r in sched::replay(&cluster, &faults, Some(&mut counts), tr)? {
            attempted += 1;
            if let Some(s) = r.stats {
                failures += s.failures;
                killed += s.killed_jobs;
                useful.push(r.goodput);
            }
            if std::ptr::eq(*t, model) && r.row.label == "FIFO" {
                model_fifo_jct = Some(r.avg_jct);
            }
        }
    }
    let trained = sched::simulate(
        &model.spec,
        &scored,
        qssf.scheduling_policy(),
        None,
        Some(&mut counts),
        tr,
        "sim.qssf.run",
    )?;
    attempted += 1;
    let fifo_jct = model_fifo_jct.ok_or("the model trace had no FIFO replay")?;
    m.set(
        "core.qssf_jct_speedup",
        fifo_jct / schedule_stats(&trained.outcomes).avg_jct.max(1.0),
        1,
    );
    m.set("faults.failures", failures as f64, useful.len());
    m.set("faults.killed_jobs", killed as f64, useful.len());
    m.set(
        "faults.goodput",
        useful.iter().sum::<f64>() / useful.len().max(1) as f64,
        useful.len(),
    );
    for (name, v) in [
        ("sim.events.submit", counts.submit),
        ("sim.events.start", counts.start),
        ("sim.events.finish", counts.finish),
        ("sim.events.preempt", counts.preempt),
        ("sim.events.node_fail", counts.node_fail),
        ("sim.events.node_repair", counts.node_repair),
    ] {
        m.set(name, v as f64, 1);
    }
    let kernel_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name.ends_with(".run") && matches!(s.layer(), "sim" | "faults"))
        .map(|s| s.secs())
        .sum();
    m.set("sim.events_per_s", counts.total() as f64 / kernel_s, 1);
    m.set(
        "sim.preempt_per_job",
        counts.preempt as f64 / counts.finish.max(1) as f64,
        counts.finish as usize,
    );

    // fleet: one pass of the stream through a fresh fleet.
    let hosted: Vec<&Trace> = traces.iter().take(2).copied().collect();
    let stream = Stream::new(&hosted, &[Policy::Srtf, Policy::Fifo], tr);
    let mut tally = Tally::new(stream.clusters.len());
    fleet::pass(&stream, &mut tally, tr)?;
    for (row, bulk) in fleet::rows(&stream, &tally)
        .iter()
        .zip(stream.bulk_digests()?)
    {
        if row.digest != bulk {
            return Err(format!(
                "{}: streamed outcomes {:?} differ from the bulk kernel run {:?}",
                row.cluster, row.digest, bulk
            )
            .into());
        }
    }
    fleet::layer_metrics(&tally, &mut m)?;
    tr.end();

    for name in [
        "analysis.characterize",
        "predict.features",
        "predict.bin",
        "predict.fit",
        "core.qssf_train",
        "core.qssf_score",
        "core.ces_eval",
        "energy.node_series",
        "sim.push",
        "sim.fifo.run",
        "sim.sjf.run",
        "sim.srtf.run",
        "sim.tiresias.run",
        "sim.qssf_oracle.run",
        "faults.fifo.run",
        "faults.drain_fifo.run",
    ] {
        m.set(&format!("{name}_s"), tr.total_secs(name), tr.count(name));
    }
    Ok(SweepOut {
        metrics: m,
        attempted: attempted + tally.attempted,
        failed: tally.failed,
    })
}
