//! Kernels and work profiles: the unit of device work.
//!
//! A *kernel* in this simulator stands for everything a DNN stage submits
//! to the GPU in one go. Its [`WorkProfile`] records how much single-SM
//! execution time the stage spends in each operation class, so the engine
//! can derive the stage's running time at any SM allocation through the
//! per-class speedup curves.

use crate::{OpClass, SpeedupModel};
use sgprs_rt::SimDuration;

/// One homogeneous slice of a stage's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkSegment {
    /// Operation class this slice belongs to.
    pub op: OpClass,
    /// Execution time of the slice on a single SM, in nanoseconds.
    pub single_sm_ns: f64,
}

/// Most segments a profile holds: one per [`OpClass`].
const MAX_SEGMENTS: usize = OpClass::ALL.len();

/// Filler for the unused tail of a profile's inline segment array.
const UNUSED: WorkSegment = WorkSegment {
    op: OpClass::Convolution,
    single_sm_ns: 0.0,
};

/// The operation-class mix of a kernel.
///
/// At most one segment per operation class, stored inline in insertion
/// order (so every sum over the segments keeps its order), which makes
/// the profile `Copy` and free to pass around.
///
/// # Example
///
/// ```
/// use sgprs_gpu_sim::{OpClass, SpeedupModel, WorkProfile};
///
/// let mut profile = WorkProfile::new();
/// profile.add(OpClass::Convolution, 9_000_000.0);
/// profile.add(OpClass::Activation, 1_000_000.0);
/// let model = SpeedupModel::calibrated_rtx_2080_ti();
/// let t68 = profile.duration_at(&model, 68.0);
/// let t1 = profile.duration_at(&model, 1.0);
/// assert!(t68 < t1);
/// ```
#[derive(Clone, Copy)]
pub struct WorkProfile {
    segments: [WorkSegment; MAX_SEGMENTS],
    len: usize,
}

impl WorkProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Self {
        WorkProfile {
            segments: [UNUSED; MAX_SEGMENTS],
            len: 0,
        }
    }

    /// A profile consisting of a single operation class.
    #[must_use]
    pub fn single(op: OpClass, single_sm_ns: f64) -> Self {
        let mut p = WorkProfile::new();
        p.add(op, single_sm_ns);
        p
    }

    /// Adds `single_sm_ns` nanoseconds of single-SM work of class `op`,
    /// merging with an existing segment of the same class. Non-positive or
    /// non-finite amounts are ignored.
    pub fn add(&mut self, op: OpClass, single_sm_ns: f64) {
        if !single_sm_ns.is_finite() || single_sm_ns <= 0.0 {
            return;
        }
        if let Some(seg) = self.segments[..self.len].iter_mut().find(|s| s.op == op) {
            seg.single_sm_ns += single_sm_ns;
        } else {
            self.segments[self.len] = WorkSegment { op, single_sm_ns };
            self.len += 1;
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &WorkProfile) {
        for seg in other.segments() {
            self.add(seg.op, seg.single_sm_ns);
        }
    }

    /// The segments of this profile, in insertion order.
    #[must_use]
    pub fn segments(&self) -> &[WorkSegment] {
        &self.segments[..self.len]
    }

    /// Total single-SM execution time in nanoseconds.
    #[must_use]
    pub fn total_single_sm_ns(&self) -> f64 {
        self.segments().iter().map(|s| s.single_sm_ns).sum()
    }

    /// `true` when the profile carries no work.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.total_single_sm_ns() <= 0.0
    }

    /// Execution time of the whole profile at `m` SMs:
    /// `Σ_op work_op / s_op(m)` (each class scales by its own curve).
    #[must_use]
    pub fn duration_at(&self, model: &SpeedupModel, m: f64) -> SimDuration {
        let ns = self.duration_ns_at(model, m);
        if !ns.is_finite() {
            return SimDuration::MAX;
        }
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Like [`WorkProfile::duration_at`] but in raw (possibly infinite)
    /// nanoseconds, for rate computations inside the engine.
    #[must_use]
    pub fn duration_ns_at(&self, model: &SpeedupModel, m: f64) -> f64 {
        if m <= 0.0 {
            return f64::INFINITY;
        }
        self.segments()
            .iter()
            .map(|s| s.single_sm_ns / model.speedup(s.op, m))
            .sum()
    }

    /// The profile's *effective* speedup at `m` SMs: total single-SM time
    /// divided by the time at `m` SMs. This is what Figure 1 plots for the
    /// whole ResNet18 (≈ 23× at 68 SMs).
    #[must_use]
    pub fn effective_speedup(&self, model: &SpeedupModel, m: f64) -> f64 {
        self.speedup_over(self.duration_ns_at(model, m))
    }

    /// The effective speedup given the profile's duration `t_m` (ns) at
    /// some SM count, for callers that already hold that duration.
    pub(crate) fn speedup_over(&self, t_m: f64) -> f64 {
        if t_m <= 0.0 || !t_m.is_finite() {
            return 0.0;
        }
        self.total_single_sm_ns() / t_m
    }

    /// Share of the total single-SM work belonging to class `op` ∈ [0, 1].
    #[must_use]
    pub fn fraction_of(&self, op: OpClass) -> f64 {
        let total = self.total_single_sm_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.segments()
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.single_sm_ns)
            .sum::<f64>()
            / total
    }
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile::new()
    }
}

impl PartialEq for WorkProfile {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl core::fmt::Debug for WorkProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WorkProfile")
            .field("segments", &self.segments())
            .finish()
    }
}

impl FromIterator<WorkSegment> for WorkProfile {
    fn from_iter<I: IntoIterator<Item = WorkSegment>>(iter: I) -> Self {
        let mut p = WorkProfile::new();
        for seg in iter {
            p.add(seg.op, seg.single_sm_ns);
        }
        p
    }
}

/// Description of a kernel submitted to the device.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Label shown in traces (e.g. `"τ3#12/s4"`).
    pub label: String,
    /// The work the kernel performs.
    pub work: WorkProfile,
    /// Fixed serial overhead in nanoseconds added to the kernel's duration
    /// regardless of SM allocation (e.g. the naive baseline's partition
    /// reconfiguration cost — the cost SGPRS's *seamless* switching avoids).
    pub extra_ns: f64,
}

impl KernelDesc {
    /// Creates a kernel with the given trace label and work profile.
    #[must_use]
    pub fn new(label: impl Into<String>, work: WorkProfile) -> Self {
        KernelDesc {
            label: label.into(),
            work,
            extra_ns: 0.0,
        }
    }

    /// Adds a fixed serial overhead to the kernel (see [`KernelDesc::extra_ns`]).
    #[must_use]
    pub fn with_extra_ns(mut self, extra_ns: f64) -> Self {
        self.extra_ns = extra_ns.max(0.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SpeedupModel {
        SpeedupModel::calibrated_rtx_2080_ti()
    }

    #[test]
    fn add_merges_same_class() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 100.0);
        p.add(OpClass::Convolution, 50.0);
        assert_eq!(p.segments().len(), 1);
        assert!((p.total_single_sm_ns() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn add_ignores_garbage() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, -5.0);
        p.add(OpClass::Convolution, f64::NAN);
        p.add(OpClass::Convolution, 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn duration_shrinks_with_more_sms() {
        let p = WorkProfile::single(OpClass::Convolution, 1e6);
        let m = model();
        let mut prev = SimDuration::MAX;
        for sms in [1.0, 2.0, 4.0, 17.0, 34.0, 68.0] {
            let d = p.duration_at(&m, sms);
            assert!(d < prev, "duration must shrink at {sms} SMs");
            prev = d;
        }
    }

    #[test]
    fn mixed_profile_speedup_is_between_component_speedups() {
        let m = model();
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 9e6);
        p.add(OpClass::Softmax, 1e6);
        let s = p.effective_speedup(&m, 68.0);
        assert!(s < m.speedup(OpClass::Convolution, 68.0));
        assert!(s > m.speedup(OpClass::Softmax, 68.0));
    }

    #[test]
    fn pure_profile_matches_curve() {
        let m = model();
        let p = WorkProfile::single(OpClass::MaxPool, 1e6);
        let s = p.effective_speedup(&m, 68.0);
        assert!((s - 14.0).abs() < 1e-6);
    }

    #[test]
    fn zero_sms_means_infinite_duration() {
        let p = WorkProfile::single(OpClass::Convolution, 1e6);
        assert_eq!(p.duration_at(&model(), 0.0), SimDuration::MAX);
        assert!(p.duration_ns_at(&model(), 0.0).is_infinite());
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 3.0);
        p.add(OpClass::Linear, 1.0);
        let total: f64 = OpClass::ALL.iter().map(|&op| p.fraction_of(op)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((p.fraction_of(OpClass::Convolution) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_profiles() {
        let mut a = WorkProfile::single(OpClass::Convolution, 10.0);
        let b = WorkProfile::single(OpClass::Convolution, 5.0);
        a.merge(&b);
        assert!((a.total_single_sm_ns() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn every_class_fits_and_merging_keeps_one_segment_per_class() {
        let mut p = WorkProfile::new();
        for (i, &op) in OpClass::ALL.iter().enumerate() {
            p.add(op, (i + 1) as f64);
        }
        assert_eq!(p.segments().len(), OpClass::ALL.len());
        let copy = p;
        p.merge(&copy);
        assert_eq!(p.segments().len(), OpClass::ALL.len());
        for (i, &op) in OpClass::ALL.iter().enumerate() {
            assert_eq!(p.segments()[i].op, op);
            assert_eq!(p.segments()[i].single_sm_ns, 2.0 * (i + 1) as f64);
        }
    }

    #[test]
    fn segments_keep_insertion_order() {
        let mut p = WorkProfile::new();
        for op in [OpClass::Softmax, OpClass::Convolution, OpClass::BatchNorm] {
            p.add(op, 1.0);
        }
        p.add(OpClass::Convolution, 1.0);
        let ops: Vec<OpClass> = p.segments().iter().map(|s| s.op).collect();
        assert_eq!(
            ops,
            [OpClass::Softmax, OpClass::Convolution, OpClass::BatchNorm]
        );
    }

    #[test]
    fn equal_profiles_built_differently_compare_equal() {
        let mut added = WorkProfile::new();
        added.add(OpClass::Convolution, 3.0);
        added.add(OpClass::Linear, 1.0);
        let mut merged = WorkProfile::single(OpClass::Convolution, 1.0);
        merged.merge(&WorkProfile::single(OpClass::Convolution, 2.0));
        merged.merge(&WorkProfile::single(OpClass::Linear, 1.0));
        let collected: WorkProfile = added.segments().iter().copied().collect();
        assert_eq!(added, merged);
        assert_eq!(added, collected);
        assert_ne!(added, WorkProfile::single(OpClass::Convolution, 3.0));
    }

    #[test]
    fn extra_ns_is_clamped_non_negative() {
        let desc = KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, 1.0))
            .with_extra_ns(-5.0);
        assert_eq!(desc.extra_ns, 0.0);
        let desc = desc.with_extra_ns(123.0);
        assert_eq!(desc.extra_ns, 123.0);
    }

    #[test]
    fn from_iterator_collects() {
        let p: WorkProfile = [
            WorkSegment {
                op: OpClass::Convolution,
                single_sm_ns: 1.0,
            },
            WorkSegment {
                op: OpClass::Convolution,
                single_sm_ns: 2.0,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(p.segments().len(), 1);
        assert!((p.total_single_sm_ns() - 3.0).abs() < 1e-12);
    }
}
