//! The layer cost model: FLOPs/bytes → single-SM execution time.
//!
//! The GPU simulator needs, for every layer, the time the layer would take
//! on a *single* SM; the speedup curves then scale that to any allocation.
//! We model each layer as a compute term plus a memory term:
//!
//! ```text
//! t₁(layer) = flops · ns_per_flop(class) + bytes · ns_per_byte
//! ```
//!
//! Compute-bound convolutions are dominated by the FLOPs term while the
//! cheap elementwise/normalisation layers are dominated by memory traffic
//! — which is exactly why their speedup saturates early in Figure 1 and
//! why the full ResNet18 only reaches ≈ 23× even though convolution alone
//! reaches 32×.
//!
//! The calibrated constants were chosen so that, together with the
//! calibrated speedup model, (a) ResNet18's overall speedup at 68 SMs
//! lands at ≈ 23× and (b) ResNet18 inference times are in the
//! low-millisecond range the paper's 30-fps evaluation implies.

use crate::Layer;
use sgprs_gpu_sim::OpClass;

/// Maps layer FLOP/byte counts to single-SM nanoseconds.
///
/// # Example
///
/// ```
/// use sgprs_dnn::{models, CostModel};
///
/// let net = models::resnet18(1, 224);
/// let cost = CostModel::calibrated();
/// let profile = net.work_profile(&cost);
/// // Convolution dominates single-SM time (Amdahl's serial remainder
/// // comes from the other layers).
/// assert!(profile.fraction_of(sgprs_gpu_sim::OpClass::Convolution) > 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// ns per FLOP for compute-bound classes (convolution, linear).
    pub compute_ns_per_flop: f64,
    /// ns per FLOP for the remaining (memory-bound) classes; small because
    /// their cost is carried by the byte term.
    pub light_ns_per_flop: f64,
    /// ns per byte of device-memory traffic on one SM's share of
    /// bandwidth.
    pub ns_per_byte: f64,
}

impl CostModel {
    /// The calibrated model used by every experiment (see module docs).
    #[must_use]
    pub fn calibrated() -> Self {
        CostModel {
            compute_ns_per_flop: 0.0211,
            light_ns_per_flop: 0.00458,
            ns_per_byte: 0.1134,
        }
    }

    /// ns per FLOP for the given class.
    #[must_use]
    pub(crate) fn ns_per_flop(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Convolution | OpClass::Linear => self.compute_ns_per_flop,
            _ => self.light_ns_per_flop,
        }
    }

    /// Single-SM execution time of a layer in nanoseconds.
    #[must_use]
    pub(crate) fn single_sm_ns(&self, layer: &Layer) -> f64 {
        layer.flops as f64 * self.ns_per_flop(layer.op_class())
            + layer.bytes as f64 * self.ns_per_byte
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use sgprs_gpu_sim::SpeedupModel;

    #[test]
    fn resnet18_overall_speedup_matches_figure_1() {
        let net = models::resnet18(1, 224);
        let cost = CostModel::calibrated();
        let profile = net.work_profile(&cost);
        let speedup = profile.effective_speedup(&SpeedupModel::calibrated_rtx_2080_ti(), 68.0);
        assert!(
            (21.0..=25.0).contains(&speedup),
            "paper reports 23x for the whole ResNet18, model gives {speedup:.1}x"
        );
    }

    #[test]
    fn resnet18_is_convolution_dominated_at_one_sm() {
        let net = models::resnet18(1, 224);
        let cost = CostModel::calibrated();
        let profile = net.work_profile(&cost);
        let conv = profile.fraction_of(OpClass::Convolution);
        assert!(
            (0.80..=0.95).contains(&conv),
            "conv share should dominate but not monopolise: {conv:.3}"
        );
    }

    #[test]
    fn resnet18_full_gpu_latency_is_low_milliseconds() {
        let net = models::resnet18(1, 224);
        let cost = CostModel::calibrated();
        let profile = net.work_profile(&cost);
        let t68 = profile
            .duration_at(&SpeedupModel::calibrated_rtx_2080_ti(), 68.0)
            .as_secs_f64()
            * 1e3;
        assert!(
            (1.0..=8.0).contains(&t68),
            "full-GPU ResNet18 inference should take a few ms, got {t68:.2} ms"
        );
    }

    #[test]
    fn conv_layers_are_compute_bound_elementwise_memory_bound() {
        let net = models::resnet18(1, 224);
        let cost = CostModel::calibrated();
        for layer in net.layers() {
            let compute = layer.flops as f64 * cost.ns_per_flop(layer.op_class());
            let memory = layer.bytes as f64 * cost.ns_per_byte;
            match layer.op_class() {
                OpClass::Convolution => {
                    assert!(compute > memory, "conv `{}` must be compute-bound", layer.name);
                }
                OpClass::Activation | OpClass::BatchNorm | OpClass::ElementwiseAdd => {
                    assert!(memory > compute, "`{}` must be memory-bound", layer.name);
                }
                _ => {}
            }
        }
    }
}
