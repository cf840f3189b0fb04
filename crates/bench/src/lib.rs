//! Shared helpers for the SGPRS benchmark binaries.
//!
//! The binaries regenerate the paper's figures:
//!
//! * `fig1_speedup` — Figure 1 (per-operation speedup vs SM count).
//! * `fig3_scenario1` — Figure 3 (total FPS and DMR, `np = 2`).
//! * `fig4_scenario2` — Figure 4 (total FPS and DMR, `np = 3`).
//! * `headline_numbers` — the §V prose numbers (pivot points, plateaus,
//!   FPS-drop percentages).
//! * `ablation` — design-choice ablations beyond the paper.
//!
//! The fleet-scale bins (`fleet`, `fleet_stream`, `fleet_events_perf`)
//! additionally emit machine-readable `BENCH_<bin>.json` perf sidecars
//! through the shared [`report`] module — see its docs for the schema
//! and the regression gate.

// `deny`, not `forbid`: the counting global allocator in [`report`]
// carries the one justified `#[allow(unsafe_code)]` in this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use sgprs_workload::sweep::SweepSeries;
use std::str::FromStr;

/// The task counts swept in Figures 3 and 4 (1..=30).
#[must_use]
pub fn paper_task_counts() -> Vec<usize> {
    (1..=30).collect()
}

/// Default simulated seconds per sweep point for binaries. Ten simulated
/// seconds ≈ 300 releases per task, enough for stable FPS/DMR estimates.
pub const DEFAULT_SIM_SECS: u64 = 10;

/// The parsed value following the last `name` flag in `args` that has
/// one; `None` when the flag is absent or its value does not parse, so
/// junk falls back to the caller's default. Unknown flags are ignored.
#[must_use]
pub fn arg_value<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    args.windows(2)
        .rev()
        .filter(|w| w[0] == name)
        .find_map(|w| w[1].parse().ok())
}

/// Whether the bare flag `name` appears in `args`.
#[must_use]
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses the `--sim-secs N` / `--csv` arguments shared by the figure
/// binaries. Returns `(sim_secs, csv)`.
#[must_use]
pub fn parse_args(args: &[String]) -> (u64, bool) {
    (
        arg_value(args, "--sim-secs").unwrap_or(DEFAULT_SIM_SECS),
        has_flag(args, "--csv"),
    )
}

/// Emits a sweep in the selected format on stdout, FPS table first, then
/// DMR (the `a` and `b` halves of the paper's figures).
pub fn print_sweep(series: &[SweepSeries], csv: bool, figure: &str) {
    use sgprs_workload::report;
    if csv {
        print!("{}", report::sweep_csv(series));
        return;
    }
    println!("== {figure}a: total FPS ==");
    println!("{}", report::sweep_table(series, report::SweepMetric::TotalFps));
    println!("== {figure}b: deadline miss rate ==");
    println!("{}", report::sweep_table(series, report::SweepMetric::Dmr));
    println!("== summary ==");
    print!("{}", report::headline_summary(series));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_cover_one_to_thirty() {
        let c = paper_task_counts();
        assert_eq!(c.first(), Some(&1));
        assert_eq!(c.last(), Some(&30));
        assert_eq!(c.len(), 30);
    }

    #[test]
    fn parse_args_defaults_and_overrides() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&[]), (DEFAULT_SIM_SECS, false));
        assert_eq!(parse_args(&argv(&["--sim-secs", "3", "--csv"])), (3, true));
        assert_eq!(
            parse_args(&argv(&["--sim-secs", "abc"])),
            (DEFAULT_SIM_SECS, false)
        );
        assert_eq!(
            parse_args(&argv(&["--sim-secs", "2", "--sim-secs", "5"])),
            (5, false)
        );
        // The perf bins' flags go through the same two helpers.
        let args = argv(&[
            "--nodes",
            "10000",
            "--raw",
            "--baseline",
            "bench/baseline_10k.json",
            "--tenants",
            "lots",
            "--unknown",
        ]);
        assert_eq!(arg_value::<usize>(&args, "--nodes"), Some(10_000));
        assert!(has_flag(&args, "--raw"));
        assert_eq!(
            arg_value::<String>(&args, "--baseline").as_deref(),
            Some("bench/baseline_10k.json")
        );
        assert_eq!(arg_value::<u64>(&args, "--tenants"), None, "junk value");
        assert_eq!(arg_value::<String>(&args, "--write-baseline"), None);
        assert_eq!(parse_args(&args), (DEFAULT_SIM_SECS, false));
    }
}
