//! Schedulability analysis used by fleet admission control.

use crate::TaskSet;

/// EDF feasibility on `m` unit-speed processors via the density bound:
/// a task set is schedulable by global EDF-like policies only if its total
/// density does not exceed `m` (necessary condition shown here).
#[must_use]
pub fn density_feasible(set: &TaskSet, processors: f64) -> bool {
    set.total_density() <= processors + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeriodicTaskSpec, SimDuration};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn simple_set(n: usize, period_ms: u64, wcet_ms: u64) -> TaskSet {
        (0..n)
            .map(|i| {
                PeriodicTaskSpec::builder(format!("t{i}"))
                    .period(ms(period_ms))
                    .wcet(ms(wcet_ms))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn density_feasibility_scales_with_processors() {
        let set = simple_set(6, 30, 10); // density 2.0
        assert!(!density_feasible(&set, 1.0));
        assert!(density_feasible(&set, 2.0));
        assert!(density_feasible(&set, 3.0));
    }
}
