//! Device specifications.


/// Static description of a simulated GPU device.
///
/// Only the properties the scheduler can observe matter here: the SM count
/// (the spatial-partitioning currency) and a per-kernel launch overhead.
///
/// # Example
///
/// ```
/// use sgprs_gpu_sim::GpuSpec;
///
/// let gpu = GpuSpec::rtx_2080_ti();
/// assert_eq!(gpu.total_sms, 68);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors available for partitioning.
    pub total_sms: u32,
    /// Fixed per-kernel launch overhead in nanoseconds (driver + dispatch).
    pub launch_overhead_ns: u64,
}

impl GpuSpec {
    /// The paper's testbed: NVIDIA RTX 2080 Ti with 68 SMs.
    #[must_use]
    pub fn rtx_2080_ti() -> Self {
        GpuSpec {
            name: "NVIDIA GeForce RTX 2080 Ti".to_owned(),
            total_sms: 68,
            launch_overhead_ns: 5_000,
        }
    }

    /// A synthetic device with an arbitrary SM count (tests, what-if runs).
    #[must_use]
    pub fn synthetic(total_sms: u32) -> Self {
        GpuSpec {
            name: format!("synthetic-{total_sms}sm"),
            total_sms,
            launch_overhead_ns: 5_000,
        }
    }

    /// Overrides the launch overhead.
    #[must_use]
    pub fn with_launch_overhead_ns(mut self, ns: u64) -> Self {
        self.launch_overhead_ns = ns;
        self
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::rtx_2080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_testbed() {
        let g = GpuSpec::rtx_2080_ti();
        assert_eq!(g.total_sms, 68);
        assert!(g.name.contains("2080 Ti"));
    }

    #[test]
    fn synthetic_and_overrides() {
        let g = GpuSpec::synthetic(16).with_launch_overhead_ns(123);
        assert_eq!(g.total_sms, 16);
        assert_eq!(g.launch_overhead_ns, 123);
    }

    #[test]
    fn default_is_the_paper_device() {
        assert_eq!(GpuSpec::default(), GpuSpec::rtx_2080_ti());
    }
}
