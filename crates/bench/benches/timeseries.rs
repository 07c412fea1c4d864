//! §3 characterization: the one-pass `characterize` over a generated
//! trace (Figs. 1-2 and 5-9 substrate), and the per-bin utilization
//! series behind the per-VC boxplots of Fig. 4.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use helios_analysis::characterize;
use helios_analysis::timeseries::gpu_utilization_series;
use helios_trace::{generate, venus_profile, GeneratorConfig, JobRecord, JobStatus};

fn jobs(n: u64) -> Vec<JobRecord> {
    (0..n)
        .map(|i| JobRecord {
            id: i,
            user: (i % 200) as u32,
            vc: (i % 20) as u16,
            gpus: [1, 2, 4, 8][(i % 4) as usize],
            cpus: 6,
            submit: (i as i64 * 61) % 2_000_000,
            start: (i as i64 * 61) % 2_000_000 + 30,
            duration: 100 + (i as i64 * 37) % 10_000,
            status: JobStatus::Completed,
            name: 0,
            run: 0,
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let js = jobs(100_000);
    let venus = generate(
        &venus_profile(),
        &GeneratorConfig {
            scale: 0.1,
            seed: 2020,
        },
    )
    .expect("valid preset");
    let mut g = c.benchmark_group("timeseries");
    g.sample_size(10);
    g.bench_function("utilization_100k_jobs_hourly", |b| {
        b.iter(|| gpu_utilization_series(black_box(&js), 1_064, 0, 2_100_000, 3_600))
    });
    g.bench_function("characterize_venus_scale_0.1", |b| {
        b.iter(|| characterize(black_box(&venus)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
