//! What surrounds a run: the metric contract in `BENCHMARK.json`, the
//! host stamp, and the A/A tooling (`--repeat`, `--compare`).

use crate::gen::{Workload, CONNECTIONS};
use crate::stats::{quartiles, rel_iqr};
use crate::{Metric, Outcome};
use mad_model::json::Json;
use mad_model::{MadError, Result};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The contract every later performance claim is made against, compiled
/// in so `--compare` judges with the bounds this binary was built beside.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

fn text(j: &Json) -> Result<&str> {
    match j {
        Json::Str(s) => Ok(s),
        other => Err(MadError::protocol(format!(
            "expected a string, got {other:?}"
        ))),
    }
}

fn number(j: &Json) -> Result<f64> {
    match j {
        Json::Float(x) => Ok(*x),
        Json::Int(i) => Ok(*i as f64),
        other => Err(MadError::protocol(format!(
            "expected a number, got {other:?}"
        ))),
    }
}

/// The metrics of one section (`end_to_end` or `per_layer`).
pub fn specs(section: &str) -> Result<Vec<Spec>> {
    Json::parse(BENCHMARK_JSON)?
        .get(section)?
        .as_arr()?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: text(m.get("name")?)?.to_owned(),
                unit: text(m.get("unit")?)?.to_owned(),
                higher_is_better: text(m.get("better")?)? == "higher",
                bound: m.get("bound").ok().map(number).transpose()?,
            })
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type under `dir`: the longest mount point that prefixes it.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}

/// Where and how a result was measured. A number without this is not a
/// result (ROADMAP aim 1).
pub fn host_stamp(seed: u64, seconds: f64, data_root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("connections".into(), Json::Int(CONNECTIONS as i64)),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "fsync_policy".into(),
            Json::Str(format!("{:?}", crate::run::FSYNC)),
        ),
        (
            "data_filesystem".into(),
            Json::Str(filesystem_of(data_root)),
        ),
        ("seed".into(), Json::Int(seed as i64)),
        ("window_s".into(), Json::Float(seconds)),
        (
            "warmup_s".into(),
            Json::Float(
                crate::warmup_for(std::time::Duration::from_secs_f64(seconds)).as_secs_f64(),
            ),
        ),
    ])
}

/// Every metric by name with its unit (and, for a timing, its sample
/// count), then whatever the run wants said about itself.
pub fn print_outcome(workload: Workload, o: &Outcome) {
    for Metric {
        name,
        unit,
        value,
        samples,
    } in &o.metrics
    {
        match samples {
            0 => println!("{:<16} {name:<36} {value:>16.4} {unit}", workload.name()),
            n => println!(
                "{:<16} {name:<36} {value:>16.4} {unit} (n={n})",
                workload.name()
            ),
        }
    }
    for note in &o.notes {
        println!("{:<16} {note}", workload.name());
    }
}

/// The driver's result line: one JSON object, last on standard output.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = vec![
                ("value".to_owned(), Json::Float(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ];
            (m.name.to_owned(), Json::Obj(value))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.correct)),
        ("attempted".into(), Json::Int(o.attempted as i64)),
        ("failed".into(), Json::Int(o.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// The values of repeated runs: workload → metric → one value per run.
#[derive(Default)]
pub struct ResultSet {
    series: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl ResultSet {
    pub fn add(&mut self, workload: Workload, o: &Outcome) {
        let metrics = self.series.entry(workload.name().to_owned()).or_default();
        for m in &o.metrics {
            metrics.entry(m.name.to_owned()).or_default().push(m.value);
        }
    }

    fn values(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        self.series.get(workload)?.get(metric).map(Vec::as_slice)
    }

    /// Median, quartiles and relative IQR per metric.
    pub fn print_summary(&self) {
        println!(
            "{:<16} {:<36} {:>14} {:>14} {:>14} {:>8} {:>3}",
            "workload", "metric", "median", "q1", "q3", "relIQR", "n"
        );
        for (workload, metrics) in &self.series {
            for (metric, values) in metrics {
                let (q1, med, q3) = quartiles(values);
                println!(
                    "{workload:<16} {metric:<36} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>3}",
                    rel_iqr(values) * 100.0,
                    values.len()
                );
            }
        }
    }

    pub fn to_json(&self, host: Json) -> Json {
        let series = self
            .series
            .iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.clone(),
                            Json::Arr(v.iter().map(|x| Json::Float(*x)).collect()),
                        )
                    })
                    .collect();
                (w.clone(), Json::Obj(metrics))
            })
            .collect();
        Json::Obj(vec![
            ("host".into(), host),
            ("values".into(), Json::Obj(series)),
        ])
    }

    pub fn load(path: &str) -> Result<ResultSet> {
        let text =
            std::fs::read_to_string(path).map_err(|e| MadError::io(format!("read {path}: {e}")))?;
        let not_object =
            |what: &str| MadError::protocol(format!("{path}: `{what}` is not an object"));
        let Json::Obj(workloads) = Json::parse(&text)?.get("values")?.clone() else {
            return Err(not_object("values"));
        };
        let mut series = BTreeMap::new();
        for (workload, metrics) in workloads {
            let Json::Obj(metrics) = metrics else {
                return Err(not_object(&workload));
            };
            let mut parsed = BTreeMap::new();
            for (metric, values) in metrics {
                parsed.insert(
                    metric,
                    values
                        .as_arr()?
                        .iter()
                        .map(number)
                        .collect::<Result<Vec<f64>>>()?,
                );
            }
            series.insert(workload, parsed);
        }
        Ok(ResultSet { series })
    }
}

/// Judge `candidate` against `baseline` with the bounds of
/// `BENCHMARK.json`: an end-to-end median worse by more than its bound is
/// a regression — unless the baseline's own spread is wider than the
/// bound, in which case the pairing is unresolved, not unchanged.
/// Per-layer metrics are listed without a verdict. Returns whether any
/// pairing regressed.
pub fn compare(baseline: &ResultSet, candidate: &ResultSet) -> Result<bool> {
    let mut regressed = false;
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:<6} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "unit", "worse", "relIQR", "bound"
    );
    for spec in specs("end_to_end")?.iter().chain(&specs("per_layer")?) {
        for workload in baseline.series.keys() {
            let (Some(a), Some(b)) = (
                baseline.values(workload, &spec.name),
                candidate.values(workload, &spec.name),
            ) else {
                continue;
            };
            let ((_, a_med, _), (_, b_med, _)) = (quartiles(a), quartiles(b));
            let worse = match (a_med == 0.0, spec.higher_is_better) {
                (true, _) => 0.0,
                (false, true) => (a_med - b_med) / a_med.abs(),
                (false, false) => (b_med - a_med) / a_med.abs(),
            };
            let spread = rel_iqr(a);
            let (bound, verdict) = match spec.bound {
                None => ("-".to_owned(), "per-layer"),
                Some(bound) if worse <= bound => (format!("{:.1}%", bound * 100.0), "ok"),
                Some(bound) if spread > bound => (format!("{:.1}%", bound * 100.0), "unresolved"),
                Some(bound) => {
                    regressed = true;
                    (format!("{:.1}%", bound * 100.0), "REGRESSED")
                }
            };
            println!(
                "{workload:<16} {:<36} {a_med:>14.4} {b_med:>14.4} {:<6} {:>7.2}% {:>7.2}% {bound:>7}  {verdict}",
                spec.name,
                spec.unit,
                worse * 100.0,
                spread * 100.0
            );
        }
    }
    Ok(regressed)
}
