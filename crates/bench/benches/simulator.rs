//! Discrete-event scheduling throughput (Figs 11-13, Tables 3-4 substrate),
//! a comparison of the incremental `Simulator` kernel against the
//! one-shot `simulate_with` path on a 0.1-scale Saturn September trace, and the
//! **scale-1.0 kernel group** pinning the full-production-scale speedup
//! (802-node deployment class; see README "Performance").
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use helios_sim::{
    jobs_from_trace, simulate_with, FifoPolicy, KernelConfig, OccupancyObserver, Policy, SimJob,
    Simulator, TiresiasPolicy,
};
use helios_trace::{generate, saturn_profile, venus, GeneratorConfig};

fn jobs(n: u64) -> Vec<SimJob> {
    let mut out: Vec<SimJob> = (0..n)
        .map(|i| SimJob {
            id: i,
            vc: (i % 10) as u16,
            gpus: [1, 2, 4, 8][(i % 4) as usize],
            submit: (i as i64 * 97) % 500_000,
            duration: 60 + (i as i64 * 131) % 20_000,
            priority: ((i * 7919) % 100_000) as f64,
        })
        .collect();
    out.sort_by_key(|j| j.submit);
    out
}

fn bench(c: &mut Criterion) {
    let spec = venus();
    let js = jobs(30_000);
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    for policy in [Policy::Fifo, Policy::Sjf, Policy::Srtf, Policy::Priority] {
        g.bench_function(format!("{policy:?}_30k_jobs"), |b| {
            b.iter(|| {
                simulate_with(
                    black_box(&spec),
                    black_box(&js),
                    policy.build(),
                    &KernelConfig::default(),
                )
            })
        });
    }
    g.finish();
}

/// Incremental kernel vs the one-shot `simulate_with` wrapper on a realistic
/// workload: Saturn at 0.1 scale, September (the QSSF evaluation window).
fn bench_kernel(c: &mut Criterion) {
    let trace = generate(
        &saturn_profile(),
        &GeneratorConfig {
            scale: 0.1,
            seed: 2020,
        },
    )
    .expect("valid generator config");
    let (lo, hi) = trace.calendar.month_range(5);
    let js = jobs_from_trace(&trace, lo, hi);
    let spec = trace.spec.clone();
    eprintln!("kernel comparison: {} Saturn September jobs", js.len());

    let mut g = c.benchmark_group("kernel");
    g.sample_size(10);
    g.bench_function("oneshot_saturn_0.1", |b| {
        b.iter(|| {
            simulate_with(
                black_box(&spec),
                black_box(&js),
                Policy::Fifo.build(),
                &KernelConfig::default(),
            )
        })
    });
    g.bench_function("incremental_saturn_0.1", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(black_box(&spec), Box::new(FifoPolicy));
            sim.push_jobs(black_box(&js)).expect("valid workload");
            sim.run_to_completion();
            black_box(sim.drain_outcomes())
        })
    });
    // Online feeding: daily batches with interleaved drains — the
    // streaming shape callers use when the trace never sits in memory.
    let day = 86_400i64;
    g.bench_function("incremental_daily_batches_saturn_0.1", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(black_box(&spec), Box::new(FifoPolicy));
            let mut done = 0usize;
            let mut cursor = 0usize;
            let mut t = lo;
            while cursor < js.len() {
                let end = js[cursor..].partition_point(|j| j.submit < t + day) + cursor;
                sim.run_until(t - 1);
                sim.push_jobs(&js[cursor..end]).expect("valid workload");
                done += sim.drain_outcomes().len();
                cursor = end;
                t += day;
            }
            sim.run_to_completion();
            done += sim.drain_outcomes().len();
            black_box(done)
        })
    });
    // Streaming observer cost on top of the one-shot path.
    g.bench_function("incremental_with_occupancy_observer", |b| {
        b.iter(|| {
            let mut occ = OccupancyObserver::new(600).expect("positive bin");
            let mut sim = Simulator::new(black_box(&spec), Box::new(FifoPolicy));
            sim.observe(Box::new(&mut occ));
            sim.push_jobs(black_box(&js)).expect("valid workload");
            sim.run_to_completion();
            drop(sim);
            black_box(occ.series().len())
        })
    });
    g.finish();
}

/// Full production scale: Saturn at scale 1.0 (262 nodes / 2 096 GPUs),
/// September window (~130k jobs), FIFO and Tiresias — the acceptance
/// benchmark for the O(1)-indexed placement kernel. Regenerate the
/// README "Performance" table from this group; machine-readable records
/// come from `repro --bench-json`.
fn bench_kernel_full_scale(c: &mut Criterion) {
    let trace = generate(
        &saturn_profile(),
        &GeneratorConfig {
            scale: 1.0,
            seed: 2020,
        },
    )
    .expect("valid generator config");
    let (lo, hi) = trace.calendar.month_range(5);
    let js = jobs_from_trace(&trace, lo, hi);
    let spec = trace.spec.clone();
    eprintln!("kernel scale-1.0: {} Saturn September jobs", js.len());

    let mut g = c.benchmark_group("kernel");
    g.sample_size(10);
    g.bench_function("fifo_saturn_1.0", |b| {
        b.iter(|| {
            simulate_with(
                black_box(&spec),
                black_box(&js),
                Policy::Fifo.build(),
                &KernelConfig::default(),
            )
        })
    });
    g.bench_function("tiresias_saturn_1.0", |b| {
        b.iter(|| {
            simulate_with(
                black_box(&spec),
                black_box(&js),
                Box::new(TiresiasPolicy::default()),
                &KernelConfig::default(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench, bench_kernel, bench_kernel_full_scale);
criterion_main!(benches);
