//! Figure 1: speedup gain for different operations in isolation.
//!
//! The paper measures ResNet18's constituent operations on an RTX 2080 Ti
//! while varying the number of SMs: convolution peaks at 32×, max pooling
//! at 14×, everything else stays below 7×, and the full network reaches
//! only 23×. This module regenerates those curves from the calibrated
//! speedup model and the ResNet18 work profile.

use sgprs_dnn::{models, CostModel};
use sgprs_gpu_sim::{OpClass, SpeedupModel};

/// The SM counts sampled along the x-axis.
pub const SM_POINTS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 48, 68];

/// One curve of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupCurvePoints {
    /// Curve label (operation name, or `"resnet18 (end-to-end)"`).
    pub label: String,
    /// `(sm_count, speedup)` samples.
    pub points: Vec<(u32, f64)>,
}

impl SpeedupCurvePoints {
    /// The speedup at the full 68-SM device (the figure's right edge).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, s)| s)
    }
}

/// Regenerates every curve of Figure 1: one per operation class plus the
/// end-to-end ResNet18 curve.
#[must_use]
pub fn generate() -> Vec<SpeedupCurvePoints> {
    let model = SpeedupModel::calibrated_rtx_2080_ti();
    let mut curves: Vec<SpeedupCurvePoints> = OpClass::ALL
        .iter()
        .map(|&op| SpeedupCurvePoints {
            label: op.label().to_owned(),
            points: SM_POINTS
                .iter()
                .map(|&m| (m, model.speedup(op, f64::from(m))))
                .collect(),
        })
        .collect();
    let net = models::resnet18(1, 224);
    let profile = net.work_profile(&CostModel::calibrated());
    curves.push(SpeedupCurvePoints {
        label: "resnet18 (end-to-end)".to_owned(),
        points: SM_POINTS
            .iter()
            .map(|&m| (m, profile.effective_speedup(&model, f64::from(m))))
            .collect(),
    });
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve<'a>(curves: &'a [SpeedupCurvePoints], label: &str) -> &'a SpeedupCurvePoints {
        curves.iter().find(|c| c.label == label).expect("curve exists")
    }

    #[test]
    fn figure_1_endpoints_match_the_paper() {
        let curves = generate();
        assert!((curve(&curves, "convolution").peak() - 32.0).abs() < 0.5);
        assert!((curve(&curves, "max_pool").peak() - 14.0).abs() < 0.5);
        let resnet = curve(&curves, "resnet18 (end-to-end)").peak();
        assert!(
            (21.0..=25.0).contains(&resnet),
            "end-to-end ResNet18 should be ~23x, got {resnet:.1}"
        );
    }

    #[test]
    fn non_conv_non_pool_ops_stay_below_seven_x() {
        let curves = generate();
        for c in &curves {
            if c.label == "convolution"
                || c.label == "max_pool"
                || c.label.starts_with("resnet18")
            {
                continue;
            }
            assert!(
                c.peak() <= 7.0 + 1e-9,
                "{} exceeds the paper's 7x ceiling: {:.2}",
                c.label,
                c.peak()
            );
        }
    }

    #[test]
    fn all_curves_are_monotone_in_sms() {
        for c in generate() {
            for w in c.points.windows(2) {
                assert!(
                    w[1].1 >= w[0].1,
                    "{} speedup must not decrease with SMs",
                    c.label
                );
            }
        }
    }

    #[test]
    fn curves_start_at_one() {
        for c in generate() {
            let (m, s) = c.points[0];
            assert_eq!(m, 1);
            assert!((s - 1.0).abs() < 1e-9, "{}: s(1)={s}", c.label);
        }
    }

    #[test]
    fn convolution_dominates_every_other_curve() {
        let curves = generate();
        let conv = curve(&curves, "convolution");
        for c in &curves {
            if c.label == "convolution" {
                continue;
            }
            assert!(conv.peak() >= c.peak(), "conv must lead: {} at {:.1}", c.label, c.peak());
        }
    }
}
