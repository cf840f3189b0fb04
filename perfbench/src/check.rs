//! The output check behind `failed`: each operation's simulated output
//! against its expectation.
//!
//! At the default seed the expectation is committed under `expected/`:
//! the `sweep_csv` lines of the paper sweep (rendered by the repo's own
//! `fig3_scenario1 --csv` and `fig4_scenario2 --csv`) and the length and
//! FNV-1a digest of each fleet's `FleetMetrics::to_json`. At any other
//! seed the expectation is the first run's output, so later runs, the
//! traced run and the profiled runs must reproduce it byte for byte.

use crate::Workload;

/// The scenarios' built-in seed, at which the committed expectations
/// were recorded.
pub const DEFAULT_SEED: u64 = 0x5672_5053;

const PAPER_SWEEP_CSV: &str = include_str!("../expected/paper_sweep.csv");
const METRO_EVENT_10K: &str = include_str!("../expected/metro_event_10k.digest");
const METRO_EPOCH_512: &str = include_str!("../expected/metro_epoch_512.digest");

/// The committed output of one run of `workload` at [`DEFAULT_SEED`],
/// one entry per operation.
#[must_use]
pub fn committed(workload: Workload) -> Vec<String> {
    let text = match workload {
        Workload::PaperSweep => {
            return PAPER_SWEEP_CSV
                .lines()
                .skip(1)
                .map(str::to_string)
                .collect()
        }
        Workload::MetroEvent10k => METRO_EVENT_10K,
        Workload::MetroEpoch512 => METRO_EPOCH_512,
    };
    vec![text.trim().to_string()]
}

/// Operations whose output is missing (the operation panicked) or
/// differs from `expected`. A length mismatch counts every operation
/// without a counterpart as failed.
#[must_use]
pub fn failures(outputs: &[Option<String>], expected: &[String]) -> u64 {
    let mismatched = outputs
        .iter()
        .zip(expected)
        .filter(|(out, want)| out.as_deref() != Some(want.as_str()))
        .count();
    (mismatched + outputs.len().abs_diff(expected.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    #[test]
    fn committed_expectations_cover_every_operation() {
        assert_eq!(committed(Workload::PaperSweep).len(), 8 * sweep::MAX_TASKS);
        assert!(committed(Workload::MetroEvent10k)[0].contains("fnv1a64"));
        assert!(committed(Workload::MetroEpoch512)[0].contains("fnv1a64"));
    }

    /// A real point at the default seed matches its committed line; the
    /// same output against a perturbed expectation counts as a failure,
    /// as does a panicked operation.
    #[test]
    fn perturbed_expectation_is_a_failure() {
        let spec = &sweep::variants(DEFAULT_SEED)[0];
        let point = sweep::run_point(spec, 1, true);
        let outputs = vec![sweep::csv_line(spec, &point)];
        let expected = committed(Workload::PaperSweep)[..1].to_vec();
        assert_eq!(
            failures(&outputs, &expected),
            0,
            "{outputs:?} vs {expected:?}"
        );

        let mut perturbed = expected.clone();
        perturbed[0] = perturbed[0].replacen(",29.", ",28.", 1);
        assert_ne!(perturbed, expected, "the perturbation changed the line");
        assert_eq!(failures(&outputs, &perturbed), 1);

        assert_eq!(failures(&[None], &expected), 1);
        assert_eq!(failures(&outputs, &[]), 1);
    }
}
