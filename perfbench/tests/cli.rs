//! The benchmark's own contract: `BENCHMARK.json` declares exactly the
//! metric catalogue, every workload prints every declared metric with its
//! unit and better direction, and a tampered digest pin fails the run.

use perfbench::checks::Pins;
use perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, RunCfg, RunResult, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn better(s: &str) -> Better {
    match s {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => panic!("bad better direction {other}"),
    }
}

fn assert_declared(section: &Json, catalogue: &[MetricDef]) {
    let declared = section.arr();
    assert_eq!(declared.len(), catalogue.len(), "metric count differs");
    for (d, m) in declared.iter().zip(catalogue) {
        assert_eq!(d.get("name").str(), m.name);
        assert_eq!(d.get("unit").str(), m.unit, "{}", m.name);
        assert_eq!(better(d.get("better").str()), m.better, "{}", m.name);
    }
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    assert_declared(b.get("end_to_end"), END_TO_END);
    assert_declared(b.get("per_layer"), PER_LAYER);
    let bounds: BTreeMap<&str, f64> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| (m.get("name").str(), m.get("bound").num()))
        .collect();
    let setup = bounds["setup_s"];
    assert!(bounds.values().all(|&v| v > 0.0 && v <= 0.25 && v <= setup));
}

fn run_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

/// An untraced, single-pass run; small scales keep the suite quick in an
/// unoptimized build.
fn cfg(workload: Workload, seed: u64, scale: f64, pins: Pins) -> RunCfg {
    RunCfg {
        workload,
        seed,
        scale,
        seconds: 0.0,
        traced: false,
        pins,
    }
}

/// Check the printed text of a run: every metric of `catalogue` on its
/// own line with unit and better direction, and the result object last.
fn check_printed(stdout: &str, catalogue: &[MetricDef]) {
    let last = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(last.get("correct"), &Json::Bool(true));
    assert!(last.get("attempted").num() >= 1.0);
    assert_eq!(last.get("failed").num(), 0.0);
    let metrics = last.get("metrics").obj();
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for m in catalogue {
        assert_eq!(metrics[m.name].get("unit").str(), m.unit);
        assert!(metrics[m.name].get("value").num().is_finite());
        let line = format!("metric {} = ", m.name);
        let printed = stdout
            .lines()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("{} not printed", m.name));
        assert!(printed.contains(&format!(" {} (", m.unit)), "{printed}");
        assert!(
            printed.contains(&format!("({} is better", m.better.as_str())),
            "{printed}"
        );
    }
}

fn run_ok(cfg: &RunCfg) -> RunResult {
    workloads::run(cfg).unwrap_or_else(|e| panic!("{} failed: {e}", cfg.workload.name()))
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for w in Workload::ALL {
        for (traced, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let cfg = RunCfg {
                traced,
                ..cfg(w, 2020, w.check_scale(), Pins::builtin())
            };
            let res = run_ok(&cfg);
            let text = perfbench::cli::report(&cfg, &res).expect("a valid report");
            check_printed(&text, catalogue);
        }
    }
}

fn tampered_pins(prefix: &str) -> Pins {
    let pins = std::fs::read_to_string(manifest_dir().join("pins.txt")).expect("pins.txt");
    let line = pins
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("a pin starting {prefix:?}"));
    let digest = line.rsplit(' ').next().expect("digest field");
    let flipped: String = digest
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    Pins::parse(&pins.replace(line, &line.replace(digest, &flipped))).expect("tampered pins parse")
}

#[test]
fn tampered_pin_fails_the_run() {
    let w = Workload::SchedReplay;
    let honest = run_ok(&cfg(w, 2020, 0.05, Pins::builtin()));
    assert!(honest.pins_checked >= 7);
    assert_eq!(honest.reference_pins_checked, 0);
    let err = workloads::run(&cfg(
        w,
        2020,
        0.05,
        tampered_pins("sched-replay 2020 0.05 Venus/FIFO "),
    ))
    .err()
    .expect("a tampered pin fails the run");
    assert!(err.0.contains("does not match pin"), "{err}");
}

#[test]
fn unpinned_seed_checks_the_reference_run() {
    let w = Workload::SchedReplay;
    let seed = 987_654_321;
    let res = run_ok(&cfg(w, seed, 0.05, Pins::builtin()));
    assert_eq!(res.pins_checked, 0);
    assert!(res.reference_pins_checked >= 7);
    let tampered = tampered_pins("sched-replay 2020 0.05 Earth/SJF ");
    let err = workloads::run(&cfg(w, seed, 0.05, tampered))
        .err()
        .expect("a tampered reference pin fails the run");
    assert!(err.0.contains("does not match pin"), "{err}");
    let err = workloads::run(&cfg(w, seed, 0.05, Pins::default()))
        .err()
        .expect("a run with no pins at all fails");
    assert!(err.0.contains("no digest pins"), "{err}");
}

#[test]
fn full_scale_replay_matches_bench_sched_pins() {
    let res = run_ok(&cfg(Workload::SchedReplay, 2020, 1.0, Pins::builtin()));
    // 16 pins from BENCH_sched.json plus the 12 runs it does not cover.
    assert_eq!(res.pins_checked, 28);
}

#[test]
fn binary_prints_the_result_last() {
    let out = run_bin(&[
        "--workload",
        "sched-replay",
        "--seed",
        "2020",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_printed(&String::from_utf8_lossy(&out.stdout), END_TO_END);
}

#[test]
fn bad_arguments_exit_with_code_two() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "sched-replay", "--trace", "2"],
        &["--workload", "sched-replay", "--scale", "1"],
        &["--workload", "sched-replay", "--pins", "pins.txt"],
    ] {
        let out = run_bin(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
