//! Argument parsing and the printed result.

use crate::checks::{self, Pins};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{self, RunCfg, RunResult, Workload};
use crate::Res;
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: perfbench --workload <qssf-pipeline|sched-replay> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Res<RunCfg> {
    let mut workload = None;
    let mut seed = 2020;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad().into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be finite and >= 0".into());
    }
    Ok(RunCfg {
        workload,
        seed,
        scale: workload.default_scale(),
        seconds,
        traced,
        pins: Pins::builtin(),
    })
}

/// The result's metric object, after checking every metric of `defs` was
/// measured and is finite.
fn metric_object(res: &RunResult, defs: &[MetricDef], out: &mut String) -> Res<(Value, Value)> {
    let mut short = Map::new();
    let mut full = Map::new();
    for d in defs {
        let got = res
            .metrics
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !got.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", d.name, got.value).into());
        }
        out.push_str(&format!(
            "metric {} = {} {} ({} is better, {} samples)\n",
            d.name,
            got.value,
            d.unit,
            d.better.as_str(),
            got.samples
        ));
        short.insert(d.name.into(), json!({"value": got.value, "unit": d.unit}));
        full.insert(
            d.name.into(),
            json!({
                "value": got.value,
                "unit": d.unit,
                "better": d.better.as_str(),
                "samples": got.samples,
            }),
        );
    }
    Ok((Value::Object(short), Value::Object(full)))
}

/// Everything a run prints: one line per metric, the `record` line and,
/// last, the result object. Fails, printing nothing, when a record row or
/// a metric breaks the rules.
pub fn report(cfg: &RunCfg, res: &RunResult) -> Res<String> {
    checks::validate_rows(&res.rows)?;
    let defs = if cfg.traced { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    let (short, full) = metric_object(res, defs, &mut out)?;
    let record = json!({
        "workload": cfg.workload.name(),
        "seed": cfg.seed,
        "scale": cfg.scale,
        "seconds": cfg.seconds,
        "trace": cfg.traced,
        "threads": helios_bench::experiments::run_parallelism(),
        "setup_repeats": workloads::SETUP_REPEATS,
        "op_secs": res.op_secs.clone(),
        "op_peak_heap_mb": res.op_peak_heap_mb.clone(),
        "pins_checked": res.pins_checked,
        "reference_pins_checked": res.reference_pins_checked,
        "rows": res.rows.iter().map(checks::Row::to_json).collect::<Vec<_>>(),
        "metrics": full,
        "notes": Value::Object(
            res.metrics
                .notes()
                .iter()
                .map(|(k, v)| (k.to_string(), Value::from(*v)))
                .collect(),
        ),
    });
    out.push_str(&format!("record {}\n", one_line(&record)));
    let result = json!({
        "correct": true,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": short,
    });
    out.push_str(&one_line(&result));
    Ok(out)
}

/// Render `v` as JSON on one line (the vendored writer only indents).
fn one_line(v: &Value) -> String {
    fn write(v: &Value, out: &mut String) {
        let scalar = |v: &Value| serde_json::to_string(v).unwrap_or_default();
        match v {
            Value::Array(items) => {
                out.push('[');
                for (i, x) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(x, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, x)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&scalar(&Value::String(k.clone())));
                    out.push(':');
                    write(x, out);
                }
                out.push('}');
            }
            _ => out.push_str(&scalar(v)),
        }
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write_spans(cfg: &RunCfg, res: &RunResult) -> Res<()> {
    let stem = format!("{}-{}", cfg.workload.name(), cfg.seed);
    for (kind, tr) in [("op", &res.op_spans), ("sweep", &res.sweep_spans)] {
        let path = PathBuf::from(OUT_DIR).join(format!("{stem}-{kind}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Run the benchmark with the process arguments; see the crate docs.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} scale {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.seconds,
        u8::from(cfg.traced)
    );
    let outcome = workloads::run(&cfg).and_then(|res| {
        let text = report(&cfg, &res)?;
        if cfg.traced {
            write_spans(&cfg, &res)?;
        }
        Ok(text)
    });
    match outcome {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
