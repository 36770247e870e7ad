#![forbid(unsafe_code)]

//! `madbench` — the repository's one benchmark. Four MQL-over-TCP
//! workloads against an in-process `mad_net::Server` on loopback, the
//! end-to-end metrics a design-tool user would see, and an outside-in
//! per-layer ledger from a separate traced pass. See `README.md`.

mod gen;
mod layers;
mod report;
mod run;
mod stats;

use gen::Workload;
use mad_model::{MadError, Result};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Warm-up is a fifth of the window, at most this.
const MAX_WARMUP: Duration = Duration::from_secs(3);

/// One measured value; `samples` is the sample count behind a timing
/// statistic (0 for counts and ratios).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// What one run of one workload reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Correctness breaches, if any.
    breaches: Vec<String>,
    /// Lines for the reader (the ledger, where the spans went).
    notes: Vec<String>,
}

/// Where runs may write: under the build directory, which the root
/// `.gitignore` names.
fn data_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("madbench/target"))
        .join("madbench-data")
}

fn warmup_for(measure: Duration) -> Duration {
    (measure / 5).min(MAX_WARMUP)
}

/// The run with tracing off: set up (several times, for a steady
/// `setup_s`), warm up, measure, check.
fn end_to_end(workload: Workload, seed: u64, measure: Duration, dir: &Path) -> Result<Outcome> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for i in 0..SETUP_REPEATS {
        if let Some(run::Bench {
            clients, server, ..
        }) = bench.take()
        {
            drop(clients);
            server.shutdown();
        }
        let (b, setup_s) = run::setup(workload, seed, &dir.join(format!("setup-{i}")))?;
        setups.push(setup_s);
        bench = Some(b);
    }
    let mut bench = bench.ok_or_else(|| MadError::io("no set-up ran"))?;
    let window = run::window(&mut bench, warmup_for(measure), measure, false);
    let breaches = run::verify(bench, &window)?;
    let op_ns = match workload {
        Workload::MixedContended => &window.txn_ns,
        _ if workload.op_kind() == gen::Kind::Read => &window.read_ns,
        _ => &window.commit_ns,
    };
    let (_, setup_s, _) = stats::quartiles(&setups);
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    Ok(Outcome {
        correct: breaches.is_empty(),
        attempted: window.attempted.max(1),
        failed: window.failed,
        metrics: vec![
            metric(
                "stmts_per_s",
                "1/s",
                window.stmts_per_s,
                window.stmts_ok as usize,
            ),
            metric("op_p50_us", "us", stats::pct_us(op_ns, 0.5), op_ns.len()),
            metric("setup_s", "s", setup_s, setups.len()),
        ],
        breaches,
        notes: Vec::new(),
    })
}

fn run_one(workload: Workload, seed: u64, measure: Duration, trace: bool) -> Result<Outcome> {
    let dir = data_root().join(format!("{}-{}", workload.name(), std::process::id()));
    let outcome = if trace {
        let spans = data_root().join(format!("trace-{}.jsonl", workload.name()));
        layers::traced(workload, seed, measure, &dir, &spans)
    } else {
        end_to_end(workload, seed, measure, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str =
    "usage: madbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                [--repeat <n> [--out <results.json>]]
       madbench --compare <baseline.json> <candidate.json>";

fn parse_args(argv: &[String]) -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => args.trace = value()? != "0",
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run the selected workloads `repeat` times, each time with the next
/// seed. Every run prints its metrics by name and then its result line;
/// repeated runs end with the spread table.
fn run_all(args: &Args) -> Result<bool> {
    let measure = Duration::from_secs_f64(args.seconds);
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let root = data_root();
    std::fs::create_dir_all(&root).map_err(|e| MadError::io(format!("create {root:?}: {e}")))?;
    let host = report::host_stamp(args.seed, args.seconds, &root);
    println!("host {}", host.render());
    let mut results = report::ResultSet::default();
    let mut all_correct = true;
    for r in 0..args.repeat {
        for &workload in &workloads {
            let outcome = run_one(workload, args.seed + r, measure, args.trace)?;
            for breach in &outcome.breaches {
                eprintln!("madbench: {}: BREACH {breach}", workload.name());
            }
            all_correct &= outcome.correct;
            results.add(workload, &outcome);
            report::print_outcome(workload, &outcome);
            println!("{}", report::result_line(&outcome));
        }
    }
    if args.repeat > 1 {
        results.print_summary();
    }
    if let Some(path) = &args.out {
        std::fs::write(path, results.to_json(host).render_pretty())
            .map_err(|e| MadError::io(format!("write {path}: {e}")))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("madbench: {e}");
            return ExitCode::from(2);
        }
    };
    let passed = match &args.compare {
        Some((baseline, candidate)) => report::ResultSet::load(baseline)
            .and_then(|a| Ok((a, report::ResultSet::load(candidate)?)))
            .and_then(|(a, b)| report::compare(&a, &b))
            .map(|regressed| !regressed),
        None => run_all(&args),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("madbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `BENCHMARK.json` names is emitted — on every workload,
    /// under the declared unit — and nothing else is, so a renamed metric
    /// fails here before it fails a later PR's comparison.
    #[test]
    fn emits_exactly_the_declared_metrics() {
        let measure = Duration::from_millis(200);
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let mut declared: Vec<(String, String)> = report::specs(section)
                .expect("BENCHMARK.json parses")
                .into_iter()
                .map(|s| (s.name, s.unit))
                .collect();
            declared.sort();
            for workload in Workload::ALL {
                let outcome = run_one(workload, 7, measure, trace).expect("run completes");
                assert!(
                    outcome.correct,
                    "{}: {:?}",
                    workload.name(),
                    outcome.breaches
                );
                assert_eq!(outcome.failed, 0, "{}", workload.name());
                let mut emitted: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                    .collect();
                emitted.sort();
                assert_eq!(emitted, declared, "{} {section}", workload.name());
            }
        }
    }

    #[test]
    fn contract_lists_the_four_workloads() {
        let json =
            mad_model::json::Json::parse(report::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<mad_model::json::Json> = json
            .get("workloads")
            .and_then(|w| w.as_arr())
            .expect("workloads array")
            .iter()
            .map(|w| w.get("name").expect("name").clone())
            .collect();
        let expected: Vec<mad_model::json::Json> = Workload::ALL
            .iter()
            .map(|w| mad_model::json::Json::Str(w.name().to_owned()))
            .collect();
        assert_eq!(names, expected);
    }
}
