//! Property tests for the pluggable kernel: the incremental
//! `Simulator` + policy-object path must produce byte-identical
//! `JobOutcome` vectors to the one-shot `simulate_with()` wrapper, for every
//! built-in policy, across random workloads (seeded ChaCha), batch-fed
//! arrivals, and two cluster presets. Plus: observer event-stream
//! ordering invariants.

use helios_sim::{
    simulate_with, ClusterView, JobOutcome, KernelConfig, Policy, SimEvent, SimJob, SimObserver,
    Simulator, POLICY_REGISTRY,
};
use helios_trace::{saturn, venus, ClusterSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;

/// Random but valid workload: every job fits its VC.
fn random_jobs(spec: &ClusterSpec, n: u64, rng: &mut ChaCha12Rng) -> Vec<SimJob> {
    let mut jobs: Vec<SimJob> = (0..n)
        .map(|id| {
            let vc = rng.gen_range(0..spec.num_vcs()) as u16;
            let cap = spec.vc_gpus(vc);
            let choices: Vec<u32> = [1u32, 1, 2, 4, 8, 16, 32]
                .into_iter()
                .filter(|&g| g <= cap)
                .collect();
            SimJob {
                id,
                vc,
                gpus: choices[rng.gen_range(0..choices.len())],
                submit: rng.gen_range(0..200_000i64),
                duration: 1 + rng.gen_range(0..30_000i64),
                priority: rng.gen_range(0..1_000_000i64) as f64,
            }
        })
        .collect();
    jobs.sort_by_key(|j| (j.submit, j.id));
    jobs
}

fn by_id(outcomes: &[JobOutcome]) -> HashMap<u64, JobOutcome> {
    outcomes.iter().map(|o| (o.id, *o)).collect()
}

#[test]
fn incremental_batches_match_one_shot_across_seeds_policies_presets() {
    for preset in [venus(), saturn()] {
        for seed in [1u64, 7, 42] {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let jobs = random_jobs(&preset, 400, &mut rng);
            for policy in [Policy::Fifo, Policy::Sjf, Policy::Srtf] {
                let one_shot =
                    simulate_with(&preset, &jobs, policy.build(), &KernelConfig::default())
                        .expect("valid workload")
                        .outcomes;
                assert_eq!(one_shot.len(), jobs.len());

                // Feed arrivals in 5 time-ordered batches, advancing the
                // kernel between pushes and draining as we go.
                let mut sim = Simulator::new(&preset, policy.build());
                let batch = jobs.len().div_ceil(5);
                let mut drained: Vec<JobOutcome> = Vec::new();
                for chunk in jobs.chunks(batch) {
                    // Run up to just before this chunk's first arrival,
                    // then admit it.
                    sim.run_until(chunk[0].submit - 1);
                    sim.push_jobs(chunk).expect("arrivals respect horizon");
                    drained.extend(sim.drain_outcomes());
                }
                sim.run_to_completion();
                drained.extend(sim.drain_outcomes());
                assert_eq!(
                    drained.len(),
                    one_shot.len(),
                    "{policy:?} seed {seed}: every job finishes exactly once"
                );

                // Byte-identical outcome per job id.
                let a = by_id(&one_shot);
                let b = by_id(&drained);
                assert_eq!(a, b, "{policy:?} seed {seed}: outcomes must match");
            }
        }
    }
}

#[test]
fn policy_object_path_is_identical_to_enum_path() {
    // Policy::build() reads the registry; drive simulate_with with
    // explicitly-constructed policy objects too and compare.
    use helios_sim::{FifoPolicy, PriorityPolicy, SjfPolicy, SrtfPolicy};
    let spec = venus();
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    let jobs = random_jobs(&spec, 300, &mut rng);
    let cases: Vec<(Policy, Box<dyn helios_sim::SchedulingPolicy>)> = vec![
        (Policy::Fifo, Box::new(FifoPolicy)),
        (Policy::Sjf, Box::new(SjfPolicy)),
        (Policy::Srtf, Box::new(SrtfPolicy)),
        (Policy::Priority, Box::new(PriorityPolicy::default())),
    ];
    let kernel = KernelConfig::default();
    for (code, (policy, object)) in (0u8..).zip(cases) {
        let via_enum = simulate_with(&spec, &jobs, policy.build(), &kernel).unwrap();
        let via_object = simulate_with(&spec, &jobs, object, &kernel).unwrap();
        assert_eq!(via_enum.outcomes, via_object.outcomes, "{policy:?}");
        // Registry round trip: label -> code -> Policy, codes pinned 0-3.
        let entry = helios_sim::PolicyEntry::find(policy.label()).unwrap();
        assert_eq!(entry.wire, Some((policy, code)), "{policy:?}");
        assert_eq!(Policy::from_code(code), Some(policy));
    }
    assert_eq!(Policy::from_code(4), None);
    let labels: Vec<&str> = POLICY_REGISTRY.iter().map(|e| e.label).collect();
    let names: Vec<String> = POLICY_REGISTRY
        .iter()
        .map(|e| (e.build)().name().to_string())
        .collect();
    assert_eq!(names, labels);
    assert_eq!(
        labels,
        ["FIFO", "SJF", "QSSF", "SRTF", "TIRESIAS", "Priority"]
    );
}

#[test]
fn blocked_head_memo_is_outcome_invisible() {
    // The kernel memoizes failed blocked-head decisions (skipping victim
    // re-scans) whenever the policy grants rank-stability horizons. The
    // memo must be a pure optimization: outcomes with it enabled are
    // byte-identical to exhaustive per-event re-scanning, for preemptive
    // policies with stable ranks (Tiresias), drifting ranks (SRTF), and
    // non-preemptive policies (FIFO/SJF) alike.
    use helios_sim::{FifoPolicy, SjfPolicy, SrtfPolicy, TiresiasPolicy};
    type Ctor = fn() -> Box<dyn helios_sim::SchedulingPolicy>;
    let ctors: [Ctor; 5] = [
        || Box::new(TiresiasPolicy::default()),
        || {
            Box::new(TiresiasPolicy {
                quantum: 500.0, // frequent level crossings: short horizons
                levels: 6,
            })
        },
        || Box::new(SrtfPolicy),
        || Box::new(FifoPolicy),
        || Box::new(SjfPolicy),
    ];
    for preset in [venus(), saturn()] {
        for seed in [11u64, 23, 47] {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let jobs = random_jobs(&preset, 400, &mut rng);
            for ctor in &ctors {
                let run = |memo: bool| {
                    let mut sim = Simulator::new(&preset, ctor());
                    sim.set_blocked_memo(memo);
                    sim.push_jobs(&jobs).expect("valid workload");
                    sim.run_to_completion();
                    sim.drain_outcomes()
                };
                let with_memo = run(true);
                let without = run(false);
                assert_eq!(
                    with_memo, without,
                    "seed {seed}: memoized and exhaustive scans must agree"
                );
            }
        }
    }
}

/// Records the raw event stream for ordering assertions.
#[derive(Default)]
struct EventLog {
    events: Vec<(i64, String, u64)>,
}

impl SimObserver for EventLog {
    fn on_event(&mut self, event: &SimEvent, _cluster: &ClusterView<'_>) {
        let kind = match event {
            SimEvent::Submit { .. } => "submit",
            SimEvent::Start { .. } => "start",
            SimEvent::Finish { .. } => "finish",
            SimEvent::Preempt { .. } => "preempt",
            SimEvent::NodeFail { .. } | SimEvent::NodeRepair { .. } => return,
        };
        let job = event.job().expect("job events carry a job");
        self.events.push((event.time(), kind.into(), job.id));
    }
}

#[test]
fn observer_event_stream_is_ordered_and_complete() {
    let spec = venus();
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let jobs = random_jobs(&spec, 200, &mut rng);
    let mut log = EventLog::default();
    let mut sim = Simulator::new(&spec, Policy::Srtf.build());
    sim.observe(Box::new(&mut log));
    sim.push_jobs(&jobs).unwrap();
    sim.run_to_completion();
    drop(sim);

    // Times never go backwards.
    for w in log.events.windows(2) {
        assert!(w[0].0 <= w[1].0, "event times must be non-decreasing");
    }
    // Per job: exactly one submit and one finish; starts = preempts + 1;
    // lifecycle order submit -> start -> ... -> finish.
    let mut per_job: HashMap<u64, Vec<(i64, String)>> = HashMap::new();
    for (t, kind, id) in &log.events {
        per_job.entry(*id).or_default().push((*t, kind.clone()));
    }
    assert_eq!(per_job.len(), jobs.len(), "every job produced events");
    for (id, evs) in per_job {
        assert_eq!(evs.first().unwrap().1, "submit", "job {id}");
        assert_eq!(evs.last().unwrap().1, "finish", "job {id}");
        let count = |k: &str| evs.iter().filter(|(_, kind)| kind == k).count();
        assert_eq!(count("submit"), 1, "job {id}");
        assert_eq!(count("finish"), 1, "job {id}");
        assert_eq!(
            count("start"),
            count("preempt") + 1,
            "job {id}: one (re)start per preemption plus the first"
        );
    }
}
