//! Equivalence pin: the one-pass characterization and its pooled view
//! must reproduce the reference per-figure scans in `oracle/` **exactly**
//! (same floats, not just close) — summary struct, daily pattern, status
//! shares, demand buckets, per-user stats, and every shared-buffer CDF —
//! across seeds and presets. This is the contract that lets every §3
//! report come from `characterize` and `pool` alone.

mod oracle;

use helios_analysis::{characterize, pool, users, Cdf, CdfView, FusedCharacterization};
use helios_trace::{generate_helios, generate_philly, GeneratorConfig, Trace};
use oracle::{clusters, jobs};
use std::sync::OnceLock;

const SEEDS: [u64; 3] = [3, 17, 2020];

/// Per seed in [`SEEDS`]: the four Helios traces, then Philly.
fn traces() -> &'static [Vec<Trace>] {
    static TRACES: OnceLock<Vec<Vec<Trace>>> = OnceLock::new();
    TRACES.get_or_init(|| {
        SEEDS
            .into_iter()
            .map(|seed| {
                let cfg = GeneratorConfig { scale: 0.05, seed };
                let mut set = generate_helios(&cfg).unwrap();
                set.push(generate_philly(&cfg).unwrap());
                set
            })
            .collect()
    })
}

fn assert_cdf_eq(view: CdfView<'_>, legacy: &Cdf, what: &str) {
    assert_eq!(view.len(), legacy.len(), "{what}: sample count");
    if view.is_empty() {
        return;
    }
    assert_eq!(view.min(), legacy.min(), "{what}: min");
    assert_eq!(view.max(), legacy.max(), "{what}: max");
    assert_eq!(view.mean(), legacy.mean(), "{what}: mean");
    for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
        assert_eq!(view.quantile(q), legacy.quantile(q), "{what}: q{q}");
    }
    for x in Cdf::log_grid(1.0, 1.0e7, 25) {
        assert_eq!(view.fraction_at(x), legacy.fraction_at(x), "{what}: F({x})");
    }
}

/// Bit patterns, so equal-but-differently-signed zeros would still differ.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_matches_legacy_everywhere() {
    for (seed, set) in SEEDS.iter().zip(traces()) {
        for trace in set {
            assert_trace_matches(trace, &format!("seed {seed}: {}", trace.spec.id));
        }
    }
}

/// `characterize` against every reference scan of one trace.
fn assert_trace_matches(trace: &Trace, tag: &str) {
    let f = characterize(trace);

    // Table 2 summary.
    assert_eq!(f.summary, jobs::summarize(&[trace]), "{tag}: summary");

    // Fig. 2 daily pattern.
    assert_eq!(f.daily, clusters::daily_pattern(trace), "{tag}: daily");

    // Fig. 7(a) / Fig. 1(b) status shares.
    let (cpu, gpu) = jobs::status_by_job_class(&[trace]);
    assert_eq!(f.cpu_status, cpu, "{tag}: cpu status");
    assert_eq!(f.gpu_status, gpu, "{tag}: gpu status");
    assert_eq!(
        f.gpu_time_status,
        jobs::gpu_time_by_status(&[trace]),
        "{tag}: gpu-time status"
    );

    // Fig. 7(b) demand buckets.
    assert_eq!(
        f.status_by_demand,
        jobs::status_by_gpu_demand(&[trace]),
        "{tag}: demand buckets"
    );

    // Per-user stats (Figs. 8/9 substrate).
    let legacy_users = oracle::users::per_user_stats(trace);
    assert_eq!(f.users, legacy_users, "{tag}: user stats");

    // Shared-buffer CDFs vs each legacy re-collect-and-sort.
    assert_cdf_eq(
        f.gpu_duration_cdf(),
        &jobs::gpu_duration_cdf(trace),
        &format!("{tag}: gpu durations"),
    );
    assert_cdf_eq(
        f.cpu_duration_cdf(),
        &jobs::cpu_duration_cdf(trace),
        &format!("{tag}: cpu durations"),
    );
    let (count_cdf, time_cdf) = jobs::job_size_cdfs(trace);
    assert_cdf_eq(f.job_size_cdf(), &count_cdf, &format!("{tag}: job sizes"));
    assert_eq!(
        f.job_size_time_cdf(),
        &time_cdf,
        "{tag}: size-by-time weighted CDF"
    );

    // Derived figures the façade reports.
    let (gpu_curve, _) = users::consumption_curves(&f.users);
    let (legacy_curve, _) = users::consumption_curves(&legacy_users);
    assert_eq!(
        users::top_share(&gpu_curve, 0.05),
        users::top_share(&legacy_curve, 0.05),
        "{tag}: top-5% share"
    );
}

/// `pool` against one reference scan over the same traces, bit for bit.
fn assert_pool_matches(set: &[Trace], tag: &str) {
    let fused: Vec<FusedCharacterization> = set.iter().map(characterize).collect();
    let pooled = pool(&fused.iter().collect::<Vec<_>>());
    let refs: Vec<&Trace> = set.iter().collect();

    let summary = jobs::summarize(&refs);
    assert_eq!(pooled.summary, summary, "{tag}: summary");
    assert_eq!(
        bits(&[pooled.summary.avg_gpus, pooled.summary.avg_duration_s]),
        bits(&[summary.avg_gpus, summary.avg_duration_s]),
        "{tag}: summary averages"
    );

    let (cpu, gpu) = jobs::status_by_job_class(&refs);
    assert_eq!(bits(&pooled.cpu_status), bits(&cpu), "{tag}: cpu status");
    assert_eq!(bits(&pooled.gpu_status), bits(&gpu), "{tag}: gpu status");
    assert_eq!(
        bits(&pooled.gpu_time_status),
        bits(&jobs::gpu_time_by_status(&refs)),
        "{tag}: gpu-time status"
    );
    let by_demand = jobs::status_by_gpu_demand(&refs);
    assert_eq!(pooled.status_by_demand.len(), by_demand.len());
    for (b, (got, want)) in pooled.status_by_demand.iter().zip(&by_demand).enumerate() {
        assert_eq!(bits(got), bits(want), "{tag}: demand bucket {b}");
    }

    // Fig. 1(a): every GPU duration of every trace in one CDF.
    let concatenated = Cdf::new(
        set.iter()
            .flat_map(|t| t.gpu_jobs().map(|j| j.duration as f64))
            .collect(),
    );
    assert_eq!(
        pooled.gpu_duration_cdf, concatenated,
        "{tag}: pooled GPU durations"
    );
}

#[test]
fn pooled_view_matches_one_scan_over_all_traces() {
    for (seed, set) in SEEDS.iter().zip(traces()) {
        let (helios, philly) = set.split_at(4);
        assert_pool_matches(helios, &format!("seed {seed}: Helios"));
        assert_pool_matches(philly, &format!("seed {seed}: Philly"));
        assert_pool_matches(set, &format!("seed {seed}: Helios and Philly"));
    }
}
