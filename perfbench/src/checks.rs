//! Correctness gates: outcome invariants, digest pins, and the rules a
//! result record must obey before any metric is printed.

use helios_bench::experiments::outcome_digest;
use helios_sim::{JobOutcome, SimJob};

/// FNV-1a offset basis: the digest of an empty outcome list. A record
/// that shows it claims a digest for work that produced nothing.
pub const EMPTY_DIGEST: &str = "cbf29ce484222325";

/// Digest of `outcomes` in id order, or `None` when there are none.
pub fn digest(outcomes: &mut [JobOutcome]) -> Option<String> {
    if outcomes.is_empty() {
        return None;
    }
    outcomes.sort_by_key(|o| o.id);
    Some(outcome_digest(outcomes))
}

/// Every job of `jobs` finished exactly once, kept its attributes, never
/// started before it was submitted and ran at least its duration. With
/// `exclusive`, jobs also ran without interruption (non-preemptive
/// policies without failure injection). `outcomes` must be in id order.
pub fn check_outcomes(
    what: &str,
    jobs: &[SimJob],
    outcomes: &[JobOutcome],
    exclusive: bool,
) -> Result<(), String> {
    if jobs.len() != outcomes.len() {
        return Err(format!(
            "{what}: {} outcomes for {} jobs",
            outcomes.len(),
            jobs.len()
        ));
    }
    let mut expected: Vec<&SimJob> = jobs.iter().collect();
    expected.sort_by_key(|j| j.id);
    for (j, o) in expected.iter().zip(outcomes) {
        if j.id != o.id || j.submit != o.submit || j.duration != o.duration || j.gpus != o.gpus {
            return Err(format!("{what}: outcome {o:?} does not match job {j:?}"));
        }
        if o.start < o.submit || o.end - o.start < o.duration {
            return Err(format!("{what}: impossible timing in {o:?}"));
        }
        if exclusive && (o.end - o.start != o.duration || o.preemptions != 0) {
            return Err(format!("{what}: job {} was interrupted", o.id));
        }
    }
    Ok(())
}

/// One pinned digest: `workload seed scale label digest`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub label: String,
    pub digest: String,
}

/// The digest pins, one per line; `#` starts a comment.
#[derive(Debug, Clone, Default)]
pub struct Pins {
    pins: Vec<Pin>,
}

impl Pins {
    /// The pins in `pins.txt` beside this crate, compiled in.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.txt")).expect("pins.txt parses")
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || {
                format!(
                    "pins line {}: expected `workload seed scale label digest`",
                    i + 1
                )
            };
            if f.len() != 5 || f[4].len() != 16 {
                return Err(bad());
            }
            pins.push(Pin {
                workload: f[0].to_string(),
                seed: f[1].parse().map_err(|_| bad())?,
                scale: f[2].parse().map_err(|_| bad())?,
                label: f[3].to_string(),
                digest: f[4].to_string(),
            });
        }
        Ok(Pins { pins })
    }

    /// Compare `digest` with the pin for this run, if there is one.
    /// Returns whether a pin applied.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        scale: f64,
        label: &str,
        digest: Option<&str>,
    ) -> Result<bool, String> {
        let Some(pin) = self.pins.iter().find(|p| {
            p.workload == workload && p.seed == seed && p.scale == scale && p.label == label
        }) else {
            return Ok(false);
        };
        if digest != Some(pin.digest.as_str()) {
            return Err(format!(
                "{workload} seed {seed} scale {scale} {label}: digest {} does not match pin {}",
                digest.unwrap_or("null"),
                pin.digest
            ));
        }
        Ok(true)
    }
}

/// One row of a result record: a simulation, or one cluster's share of
/// the fleet stream. `figures` are that row's own measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub cluster: String,
    pub label: String,
    pub jobs: usize,
    pub digest: Option<String>,
    pub figures: Vec<(&'static str, f64)>,
}

impl Row {
    pub fn to_json(&self) -> serde_json::Value {
        let mut figures = serde_json::Map::new();
        for (k, v) in &self.figures {
            figures.insert(k.to_string(), serde_json::Value::from(*v));
        }
        serde_json::json!({
            "cluster": self.cluster.clone(),
            "label": self.label.clone(),
            "jobs": self.jobs,
            "digest": self.digest.clone(),
            "figures": serde_json::Value::Object(figures),
        })
    }
}

/// Reject placeholder digests and per-cluster figures that copy another
/// cluster's: a row with no jobs carries no digest, no digest is the
/// empty-input value, and no two rows of different clusters report
/// identical figures, whatever their labels.
pub fn validate_rows(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        match (&r.digest, r.jobs) {
            (Some(_), 0) => {
                return Err(format!(
                    "{}/{}: digest on a row with no jobs",
                    r.cluster, r.label
                ))
            }
            (Some(d), _) if d == EMPTY_DIGEST => {
                return Err(format!("{}/{}: placeholder digest {d}", r.cluster, r.label))
            }
            (None, n) if n > 0 => {
                return Err(format!("{}/{}: {n} jobs but no digest", r.cluster, r.label))
            }
            _ => {}
        }
    }
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            if a.cluster != b.cluster && !a.figures.is_empty() && a.figures == b.figures {
                return Err(format!(
                    "{}/{} copies the figures of {}/{}",
                    b.cluster, b.label, a.cluster, a.label
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, start: i64) -> JobOutcome {
        JobOutcome {
            id,
            vc: 0,
            gpus: 1,
            submit: 0,
            start,
            end: start + 10,
            duration: 10,
            preemptions: 0,
        }
    }

    fn row(cluster: &str, digest: Option<&str>, jobs: usize, figure: f64) -> Row {
        Row {
            cluster: cluster.into(),
            label: "stream".into(),
            jobs,
            digest: digest.map(String::from),
            figures: vec![("submit_us_p50", figure)],
        }
    }

    #[test]
    fn no_outcomes_means_no_digest() {
        assert_eq!(digest(&mut []), None);
        let d = digest(&mut [outcome(1, 0)]).unwrap();
        assert_ne!(d, EMPTY_DIGEST);
        assert_eq!(outcome_digest(&[]), EMPTY_DIGEST);
    }

    #[test]
    fn placeholder_digest_is_rejected() {
        assert!(validate_rows(&[row("Venus", Some(EMPTY_DIGEST), 5, 1.0)]).is_err());
        assert!(validate_rows(&[row("Venus", Some("0123456789abcdef"), 0, 1.0)]).is_err());
        assert!(validate_rows(&[row("Venus", None, 5, 1.0)]).is_err());
        assert!(validate_rows(&[row("Venus", None, 0, 1.0)]).is_ok());
    }

    #[test]
    fn copied_cluster_figures_are_rejected() {
        let a = row("Saturn", Some("0123456789abcdef"), 5, 1.5);
        let mut copy = row("Venus", Some("fedcba9876543210"), 7, 1.5);
        let own = row("Venus", Some("fedcba9876543210"), 7, 2.5);
        assert!(validate_rows(&[a.clone(), copy.clone()]).is_err());
        copy.label = "other".into();
        assert!(validate_rows(&[a.clone(), copy]).is_err());
        assert!(validate_rows(&[a, own]).is_ok());
    }

    #[test]
    fn pins_match_or_fail() {
        let pins = Pins::parse("# c\nsched-replay 2020 1 Venus/FIFO 47a30949ef4874cc\n").unwrap();
        let ok = pins.check(
            "sched-replay",
            2020,
            1.0,
            "Venus/FIFO",
            Some("47a30949ef4874cc"),
        );
        assert_eq!(ok, Ok(true));
        assert!(pins
            .check(
                "sched-replay",
                2020,
                1.0,
                "Venus/FIFO",
                Some("47a30949ef4874cd")
            )
            .is_err());
        assert_eq!(
            pins.check("sched-replay", 7, 1.0, "Venus/FIFO", Some("x")),
            Ok(false)
        );
        assert!(Pins::parse("sched-replay 2020 1 Venus/FIFO").is_err());
    }

    #[test]
    fn invariants_catch_bad_outcomes() {
        let job = SimJob {
            id: 1,
            vc: 0,
            gpus: 1,
            submit: 0,
            duration: 10,
            priority: 0.0,
        };
        assert!(check_outcomes("t", &[job], &[outcome(1, 5)], true).is_ok());
        let mut early = outcome(1, 5);
        early.end = 12;
        assert!(check_outcomes("t", &[job], &[early], false).is_err());
        assert!(check_outcomes("t", &[job], &[], false).is_err());
        assert!(check_outcomes("t", &[job], &[outcome(2, 5)], false).is_err());
    }
}
