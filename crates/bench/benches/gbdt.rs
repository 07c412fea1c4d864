//! GBDT training/inference (the QSSF P_M estimator, Table 3 substrate).
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use helios_predict::gbdt::{Gbdt, GbdtParams};
use helios_predict::text::{levenshtein, NameBuckets};
use helios_trace::{generate, profile_for, ClusterId, GeneratorConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashSet;

fn bench(c: &mut Criterion) {
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    let n = 20_000;
    let cols: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..n).map(|_| rng.gen::<f64>() * 100.0).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|r| cols[0][r] * 0.5 + (cols[1][r] * 0.1).sin() * 20.0)
        .collect();
    let mut g = c.benchmark_group("gbdt");
    g.sample_size(10);
    g.bench_function("train_20k_rows_40_trees", |b| {
        b.iter(|| {
            Gbdt::fit(
                black_box(&cols),
                black_box(&y),
                &GbdtParams {
                    num_trees: 40,
                    early_stopping: 0,
                    ..Default::default()
                },
                None,
            )
        })
    });
    let model = Gbdt::fit(
        &cols,
        &y,
        &GbdtParams {
            num_trees: 40,
            early_stopping: 0,
            ..Default::default()
        },
        None,
    );
    let row: Vec<f64> = (0..12).map(|i| i as f64 * 7.0).collect();
    g.bench_function("predict_row", |b| {
        b.iter(|| model.predict_row(black_box(&row)))
    });
    g.bench_function("levenshtein_job_names", |b| {
        b.iter(|| {
            levenshtein(
                black_box("train_resnet50_imagenet_lr3"),
                black_box("train_resnet101_imagenet_lr5"),
            )
        })
    });
    // QSSF name bucketing from scratch over the templates of a Saturn
    // scale-0.1 trace (1,477 templates into 481 buckets at seed 2020).
    let cfg = GeneratorConfig {
        scale: 0.1,
        seed: 2020,
    };
    let trace = generate(&profile_for(ClusterId::Saturn), &cfg).expect("Saturn generates");
    let (train_end, _) = trace.calendar.month_range(trace.calendar.num_months() - 1);
    let mut seen = HashSet::new();
    let templates: Vec<String> = trace
        .gpu_jobs()
        .filter(|j| j.submit < train_end && seen.insert(j.name))
        .map(|j| trace.names.display_name(j))
        .collect();
    g.bench_function("name_buckets_saturn_templates", |b| {
        b.iter(|| {
            let mut buckets = NameBuckets::new(0.25);
            for name in &templates {
                black_box(buckets.bucket(black_box(name)));
            }
            buckets.num_buckets()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
