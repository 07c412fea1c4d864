//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <experiment-id>...|all
//!
//! Options:
//!   --scale <F>     trace scale in (0, 1] (default 0.25; 1.0 = paper scale)
//!   --seed <N>      generator seed (default 2020)
//!   --out-dir <DIR> report directory (default "reports")
//!   --policy <P>    restrict schedule experiments to one policy:
//!                   fifo|sjf|srtf|qssf|tiresias|all — or drain:<P> to wrap
//!                   the selection in the proactive-drain layer
//!                   (default: the paper's FIFO/SJF/QSSF/SRTF set)
//!   --failures <H>  run every scheduler simulation under failure
//!                   injection with the given per-node MTBF in hours
//!                   (default: failure-free)
//!   --bench-json <PATH>  write machine-readable perf records (wall time,
//!                   jobs/sec, outcome digest) for every policy simulation
//!                   the selected experiments ran — the BENCH_*.json
//!                   perf-trajectory format; failure-injected runs land in
//!                   its `faults` section (BENCH_faults.json), chaos
//!                   recovery runs in its `resilience` section, and
//!                   overload/shedding runs in its `overload` section
//!                   (both BENCH_fleet.json)
//!   --list          print the experiment ids and exit
//! ```
//!
//! Several experiment ids may be given; they run in order and share one
//! context, so a single `--bench-json` file can carry every section
//! (e.g. `repro fleet-soak fleet-chaos --bench-json BENCH_fleet.json`).
//!
//! Outputs print to stdout and are mirrored under `<out-dir>/<id>.{txt,json}`.
//! Unknown experiment ids and report-write failures exit non-zero.

use helios_bench::experiments::{
    run, Context, ExperimentOutput, ALL_EXPERIMENTS, EXTRA_EXPERIMENTS,
};
use helios_trace::HeliosError;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    scale: f64,
    seed: u64,
    out_dir: PathBuf,
    policy: Option<String>,
    failures: Option<f64>,
    bench_json: Option<PathBuf>,
    ids: Vec<String>,
}

const USAGE: &str = "usage: repro [--scale F] [--seed N] [--out-dir DIR] \
                     [--policy [drain:]fifo|sjf|srtf|qssf|tiresias|all] \
                     [--failures MTBF-HOURS] \
                     [--bench-json PATH] [--list] <experiment-id>...|all";

fn parse_args() -> Result<Args, String> {
    let mut scale = 0.25f64;
    let mut seed = 2020u64;
    let mut out_dir = PathBuf::from("reports");
    let mut policy = None;
    let mut failures = None;
    let mut bench_json = None;
    let mut ids = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("invalid --scale {v:?}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
            }
            "--out-dir" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out-dir needs a value")?);
            }
            "--policy" => {
                policy = Some(argv.next().ok_or("--policy needs a value")?);
            }
            "--failures" => {
                let v = argv.next().ok_or("--failures needs a value (MTBF hours)")?;
                failures = Some(v.parse().map_err(|_| format!("invalid --failures {v:?}"))?);
            }
            "--bench-json" => {
                bench_json = Some(PathBuf::from(
                    argv.next().ok_or("--bench-json needs a value")?,
                ));
            }
            "--list" => {
                println!("all");
                for id in ALL_EXPERIMENTS.iter().chain(&EXTRA_EXPERIMENTS) {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(Args {
        scale,
        seed,
        out_dir,
        policy,
        failures,
        bench_json,
        ids,
    })
}

/// Write the perf trajectory file for `--bench-json`: run metadata plus
/// one record per policy simulation the experiments executed.
fn write_bench_json(path: &Path, args: &Args, ctx: &Context) -> Result<(), HeliosError> {
    // Scheduler experiments fan clusters x policies out over rayon, so
    // wall times include sibling-simulation contention: record the host
    // parallelism (also stamped into every individual record) so
    // trajectories are only compared like-for-like.
    let parallelism = helios_bench::experiments::run_parallelism();
    let doc = serde_json::json!({
        "schema": "helios-bench/1",
        "scale": args.scale,
        "seed": args.seed,
        "experiment": args.ids.join("+"),
        "parallelism": parallelism,
        "note": "wall_secs measured under the parallel clusters x policies fan-out; compare only across runs with the same fan-out shape and parallelism",
        // Per-policy simulations, pipeline stages (`pipeline`),
        // failure-injected runs (`failure-soak`), chaos recoveries
        // (`fleet-chaos`) and overload runs (`fleet-overload`).
        "runs": ctx.bench_records("runs"),
        "stages": ctx.bench_records("stages"),
        "faults": ctx.bench_records("faults"),
        "resilience": ctx.bench_records("resilience"),
        "overload": ctx.bench_records("overload"),
    });
    let rendered = serde_json::to_string_pretty(&doc).map_err(|e| HeliosError::Io {
        context: format!("serializing {}", path.display()),
        message: e.to_string(),
    })?;
    let mut f = std::fs::File::create(path)
        .map_err(|e| HeliosError::io(format!("creating {}", path.display()), &e))?;
    writeln!(f, "{rendered}")
        .map_err(|e| HeliosError::io(format!("writing {}", path.display()), &e))?;
    Ok(())
}

fn write_reports(dir: &Path, out: &ExperimentOutput) -> Result<(), HeliosError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| HeliosError::io(format!("creating {}", dir.display()), &e))?;
    let txt = dir.join(format!("{}.txt", out.id));
    let mut f = std::fs::File::create(&txt)
        .map_err(|e| HeliosError::io(format!("creating {}", txt.display()), &e))?;
    writeln!(f, "{}", out.text)
        .map_err(|e| HeliosError::io(format!("writing {}", txt.display()), &e))?;
    let json = dir.join(format!("{}.json", out.id));
    let rendered = serde_json::to_string_pretty(&out.data).map_err(|e| HeliosError::Io {
        context: format!("serializing {}", json.display()),
        message: e.to_string(),
    })?;
    let mut f = std::fs::File::create(&json)
        .map_err(|e| HeliosError::io(format!("creating {}", json.display()), &e))?;
    writeln!(f, "{rendered}")
        .map_err(|e| HeliosError::io(format!("writing {}", json.display()), &e))?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = match Context::new(args.scale, args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(choice) = &args.policy {
        if let Err(e) = ctx.set_policy_choice(choice) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(mtbf_hours) = args.failures {
        if let Err(e) = ctx.set_failures(mtbf_hours) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    let mut outputs = Vec::new();
    for id in &args.ids {
        match run(id, &mut ctx) {
            Ok(o) => outputs.extend(o),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for out in &outputs {
        println!("{}", out.text);
        println!("{}", "=".repeat(78));
        if let Err(e) = write_reports(&args.out_dir, out) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.bench_json {
        let [n, s, f, r, o] = ["runs", "stages", "faults", "resilience", "overload"]
            .map(|k| ctx.bench_records(k).len());
        if let Err(e) = write_bench_json(path, &args, &ctx) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench: {} policy-run, {} stage, {} fault, {} resilience, and {} overload records in {}",
            n,
            s,
            f,
            r,
            o,
            path.display()
        );
    }
    eprintln!(
        "done: {} experiment(s), scale {}, seed {}, reports in {}",
        outputs.len(),
        args.scale,
        args.seed,
        args.out_dir.display()
    );
    ExitCode::SUCCESS
}
