//! # mad-bench — benchmark & figure-regeneration harness
//!
//! * [`table`] — aligned text tables, the output format of every figure,
//!   claim table and bench target in this crate,
//! * [`presets`] — the workload configurations shared by the claim tables
//!   and the `figures` binary,
//! * [`measure`] / [`measure_batched`] — the one wall-clock timer: the
//!   minimum over five batches of the mean per call.
//!
//! Entry points:
//!
//! * `cargo run --release -p mad-bench --bin figures` — Fig. 1–5, E6, E7,
//!   E8 and the B2 duplication table ([`figures`]); deterministic, and
//!   diffed against `tests/golden/figures.txt` by `scripts/ci.sh`,
//! * `cargo run --release -p mad-bench --bin tables [b1 b3 … e8]` — the
//!   B1, B3–B7 and E8 claim tables ([`tables`]); no argument runs all,
//! * `cargo bench -p mad-bench --bench <target> [filter …]` — the
//!   system-level benches B8 (`concurrent_sessions`), B9 (`wal_commit`),
//!   B10 (`net_throughput`) and B11 (`repl_lag`); B8 and B9 run only the
//!   rows whose name contains one of the filters.

pub mod figures;
pub mod tables;

use std::time::Instant;

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        line.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Mean wall-clock microseconds per call of `f`, measured as the **minimum
/// over five batches** of `iters` calls each — the minimum is the standard
/// robust estimator against noisy-neighbor interference. The first error
/// `f` returns ends the measurement.
pub fn measure<T, E>(iters: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<f64, E> {
    measure_batched(iters, || (), |()| f())
}

/// [`measure`] for a routine that consumes a fresh input per call: each
/// batch builds its `iters` inputs with `setup` before the clock starts,
/// so only `f` (and the drop of what it consumes) is timed.
pub fn measure_batched<I, T, E>(
    iters: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> Result<T, E>,
) -> Result<f64, E> {
    // one warm-up call
    f(setup())?;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(f(input)?);
        }
        let mean = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
        best = best.min(mean);
    }
    Ok(best)
}

/// The substring filters of a bench target: its arguments, minus the
/// `--bench` flag `cargo bench` passes.
pub fn bench_filters() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect()
}

/// Whether the row `name` runs under `filters`: every row runs when there
/// is no filter, otherwise those whose name contains one.
pub fn selected(filters: &[String], name: &str) -> bool {
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

/// Workload presets shared by the claim tables and the figure binary.
pub mod presets {
    use mad_workload::{BomParams, GeoParams};

    /// B1/B3/B4/B7 sweep: geography sizes.
    pub fn geo_sweep() -> Vec<(&'static str, GeoParams)> {
        vec![
            (
                "small",
                GeoParams {
                    states: 50,
                    edges_per_state: 6,
                    rivers: 10,
                    edges_per_river: 10,
                    share: 0.5,
                    cities: 20,
                    seed: 1,
                },
            ),
            (
                "medium",
                GeoParams {
                    states: 200,
                    edges_per_state: 8,
                    rivers: 40,
                    edges_per_river: 12,
                    share: 0.5,
                    cities: 50,
                    seed: 2,
                },
            ),
            (
                "large",
                GeoParams {
                    states: 800,
                    edges_per_state: 8,
                    rivers: 160,
                    edges_per_river: 12,
                    share: 0.5,
                    cities: 100,
                    seed: 3,
                },
            ),
        ]
    }

    /// B1 sharing sweep at fixed size.
    pub fn share_sweep() -> Vec<(f64, GeoParams)> {
        [0.0, 0.5, 0.9]
            .into_iter()
            .map(|share| {
                (
                    share,
                    GeoParams {
                        states: 200,
                        edges_per_state: 8,
                        rivers: 80,
                        edges_per_river: 12,
                        share,
                        cities: 0,
                        seed: 7,
                    },
                )
            })
            .collect()
    }

    /// B2/B5 BOM sweep over sharing degree.
    pub fn bom_share_sweep() -> Vec<(f64, BomParams)> {
        [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
            .into_iter()
            .map(|share| {
                (
                    share,
                    BomParams {
                        depth: 4,
                        width: 60,
                        fanout: 3,
                        share,
                        seed: 11,
                    },
                )
            })
            .collect()
    }

    /// B5 depth sweep.
    pub fn bom_depth_sweep() -> Vec<(usize, BomParams)> {
        [2usize, 4, 6, 8]
            .into_iter()
            .map(|depth| {
                (
                    depth,
                    BomParams {
                        depth,
                        width: 40,
                        fanout: 3,
                        share: 0.3,
                        seed: 13,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("long-name"));
        // all data lines align the second column
        let col = lines[3].find('2').unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    fn measure_returns_positive() {
        let us = measure(3, || Ok::<_, ()>((0..1000).sum::<u64>())).unwrap();
        assert!(us >= 0.0);
    }

    #[test]
    fn measure_stops_at_the_first_error() {
        let mut calls = 0;
        let r = measure(3, || {
            calls += 1;
            if calls < 4 {
                Ok(())
            } else {
                Err(calls)
            }
        });
        assert_eq!(r, Err(4));
    }

    #[test]
    fn measure_batched_builds_one_input_per_call() {
        let mut built = 0;
        let mut consumed = 0;
        measure_batched(
            4,
            || {
                built += 1;
                built
            },
            |_| {
                consumed += 1;
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        // one warm-up call plus five batches of four
        assert_eq!((built, consumed), (21, 21));
    }

    #[test]
    fn filters_select_by_substring() {
        assert!(selected(&[], "commit_w4_disjoint"));
        let f = vec!["w4".to_owned(), "recovery".to_owned()];
        assert!(selected(&f, "commit_w4_disjoint"));
        assert!(selected(&f, "recovery/commits_100"));
        assert!(!selected(&f, "txn_commit"));
    }

    #[test]
    fn presets_are_consistent() {
        assert_eq!(presets::geo_sweep().len(), 3);
        assert_eq!(presets::share_sweep().len(), 3);
        assert_eq!(presets::bom_share_sweep().len(), 6);
        assert_eq!(presets::bom_depth_sweep().len(), 4);
    }
}
