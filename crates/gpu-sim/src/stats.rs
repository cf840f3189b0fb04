//! Device utilisation statistics.
//!
//! The engine exposes instantaneous state ([`crate::GpuEngine::snapshot`])
//! and cumulative busy fractions; this module adds a sampling recorder
//! that builds occupancy/residency profiles over a run — the data behind
//! "over-subscription harvests idle cycles" (§V of the paper).

use crate::{ContextId, GpuEngine};
use sgprs_rt::{SimDuration, SimTime};

/// One utilisation sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Sample instant.
    pub at: SimTime,
    /// Resident kernels across the whole device.
    pub resident: usize,
    /// Contexts with at least one resident kernel.
    pub busy_contexts: usize,
    /// Idle stream slots across the pool.
    pub idle_slots: usize,
}

/// Periodic sampler of device state.
///
/// Drive it from the simulation loop: call [`UtilizationRecorder::sample_if_due`]
/// whenever simulated time advances; it records at most one sample per
/// configured interval.
///
/// # Example
///
/// ```
/// use sgprs_gpu_sim::{GpuEngine, GpuSpec, ContextConfig, UtilizationRecorder};
/// use sgprs_rt::SimDuration;
///
/// let engine = GpuEngine::builder(GpuSpec::rtx_2080_ti())
///     .context(ContextConfig::new(34))
///     .build();
/// let mut rec = UtilizationRecorder::new(SimDuration::from_millis(1));
/// rec.sample_if_due(&engine);
/// assert_eq!(rec.samples().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationRecorder {
    interval: SimDuration,
    next_due: SimTime,
    samples: Vec<UtilizationSample>,
}

impl UtilizationRecorder {
    /// Creates a recorder sampling at most once per `interval`.
    #[must_use]
    pub fn new(interval: SimDuration) -> Self {
        UtilizationRecorder {
            interval,
            next_due: SimTime::ZERO,
            samples: Vec::new(),
        }
    }

    /// Samples the engine if the interval elapsed since the last sample.
    /// Returns `true` when a sample was taken.
    pub fn sample_if_due(&mut self, engine: &GpuEngine) -> bool {
        let now = engine.now();
        if now < self.next_due {
            return false;
        }
        self.next_due = now + self.interval;
        let mut resident = 0;
        let mut busy_contexts = 0;
        let mut idle_slots = 0;
        for c in 0..engine.context_count() {
            let snap = engine.snapshot(ContextId(c));
            resident += snap.resident;
            if !snap.is_idle() {
                busy_contexts += 1;
            }
            idle_slots += snap.idle_high + snap.idle_low;
        }
        self.samples.push(UtilizationSample {
            at: now,
            resident,
            busy_contexts,
            idle_slots,
        });
        true
    }

    /// The recorded samples in chronological order.
    #[must_use]
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Mean resident kernels over the recorded samples.
    #[must_use]
    pub fn mean_resident(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.resident as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Fraction of samples in which every context had work.
    #[must_use]
    pub fn all_busy_fraction(&self, context_count: usize) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let hits = self
            .samples
            .iter()
            .filter(|s| s.busy_contexts == context_count)
            .count();
        hits as f64 / self.samples.len() as f64
    }

    /// Histogram of resident-kernel counts: `hist[k]` = number of samples
    /// with exactly `k` resident kernels.
    #[must_use]
    pub fn residency_histogram(&self) -> Vec<usize> {
        let max = self.samples.iter().map(|s| s.resident).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for s in &self.samples {
            hist[s.resident] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContentionModel, ContextConfig, GpuSpec, KernelDesc, OpClass, StreamClass, WorkProfile};

    fn engine() -> GpuEngine {
        GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(0))
            .contention_model(ContentionModel::ideal())
            .context(ContextConfig::new(34))
            .context(ContextConfig::new(34))
            .build()
    }

    fn kernel() -> KernelDesc {
        KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, 1e6))
    }

    #[test]
    fn respects_the_sampling_interval() {
        let mut e = engine();
        let mut rec = UtilizationRecorder::new(SimDuration::from_millis(1));
        assert!(rec.sample_if_due(&e));
        assert!(!rec.sample_if_due(&e), "same instant: not due again");
        e.advance_to(
            SimTime::ZERO + SimDuration::from_micros(500),
            &mut Vec::new(),
        );
        assert!(!rec.sample_if_due(&e), "interval not elapsed");
        e.advance_to(SimTime::ZERO + SimDuration::from_millis(1), &mut Vec::new());
        assert!(rec.sample_if_due(&e));
        assert_eq!(rec.samples().len(), 2);
    }

    #[test]
    fn counts_resident_and_busy() {
        let mut e = engine();
        e.submit(ContextId(0), StreamClass::High, kernel()).unwrap();
        e.submit(ContextId(0), StreamClass::Low, kernel()).unwrap();
        let mut rec = UtilizationRecorder::new(SimDuration::from_millis(1));
        rec.sample_if_due(&e);
        let s = rec.samples()[0];
        assert_eq!(s.resident, 2);
        assert_eq!(s.busy_contexts, 1);
        assert_eq!(s.idle_slots, 8 - 2);
    }

    #[test]
    fn histogram_and_means_agree() {
        let mut e = engine();
        let mut rec = UtilizationRecorder::new(SimDuration::from_nanos(1));
        rec.sample_if_due(&e); // 0 resident
        e.submit(ContextId(0), StreamClass::High, kernel()).unwrap();
        e.advance_to(SimTime::ZERO + SimDuration::from_nanos(10), &mut Vec::new());
        rec.sample_if_due(&e); // 1 resident
        let hist = rec.residency_histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 1);
        assert!((rec.mean_resident() - 0.5).abs() < 1e-12);
        assert!((rec.all_busy_fraction(2) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder_is_benign() {
        let rec = UtilizationRecorder::new(SimDuration::from_millis(1));
        assert_eq!(rec.mean_resident(), 0.0);
        assert_eq!(rec.all_busy_fraction(2), 0.0);
        assert_eq!(rec.residency_histogram(), vec![0usize; 1]);
        assert!(rec.samples().is_empty());
    }
}
