//! Global contention model for over-subscribed context pools.
//!
//! The paper's key experimental knob is *over-subscription*: the sum of SM
//! allocations across contexts may exceed the physical SM count (`os` =
//! 1.0, 1.5, 2.0). Why does that ever help? Because an SM allocation is a
//! *cap*, not a demand: a kernel whose speedup saturates at, say, 13× on a
//! 34-SM partition keeps roughly 13 SM-equivalents busy and leaves the
//! rest of its partition idle. Overlapping allocations let other contexts
//! soak up those idle cycles — that is exactly the utilisation SGPRS's
//! over-subscribed pools harvest (§V).
//!
//! The model therefore works in *occupancy* units: a resident kernel
//! running at speedup `s(m_eff)` occupies `s(m_eff)` SM-equivalents. Let
//! `A` be the total occupancy of all resident kernels and `M` the physical
//! SM count. While `A ≤ M` the device can deliver the demanded
//! throughput and nobody slows down. Past that point the hardware
//! time-multiplexes, which both scales everyone by `M/A` and wastes a
//! fraction of the machine on switching and cache pollution; execution
//! times also become noisier — the paper's "higher over-subscription
//! leads to poor predictability and increased resource contention".


/// Parameters of the global contention model.
///
/// With `A` = total occupancy (SM-equivalents) of resident kernels and
/// `M` = physical SMs, the *overcommit ratio* is `x = A/M` and every
/// resident kernel's progress rate is multiplied by
///
/// ```text
/// factor(A) = (M / A) · 1 / (1 + efficiency_loss · (x − 1))      if A > M
/// factor(A) = 1                                                  otherwise
/// ```
///
/// Execution-time jitter (sampled per kernel at submit time) has half-width
/// `base_jitter + contention_jitter · (x − 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Multiplexing efficiency loss per unit of overcommit (β).
    pub efficiency_loss: f64,
    /// Relative execution-time jitter half-width with no overcommit.
    pub base_jitter: f64,
    /// Additional jitter half-width per unit of overcommit.
    pub contention_jitter: f64,
}

impl ContentionModel {
    /// The calibrated default used by all experiments.
    #[must_use]
    pub fn calibrated() -> Self {
        ContentionModel {
            efficiency_loss: 0.04,
            base_jitter: 0.01,
            contention_jitter: 0.06,
        }
    }

    /// A contention-free model (ideal multiplexing, no jitter) for unit
    /// tests and what-if analysis.
    #[must_use]
    pub fn ideal() -> Self {
        ContentionModel {
            efficiency_loss: 0.0,
            base_jitter: 0.0,
            contention_jitter: 0.0,
        }
    }

    /// The rate multiplier applied to every resident kernel when the
    /// resident set demands `occupancy` SM-equivalents of `total_sms`
    /// physical SMs.
    #[must_use]
    pub(crate) fn rate_factor(&self, occupancy: f64, total_sms: f64) -> f64 {
        if occupancy <= total_sms || occupancy <= 0.0 || total_sms <= 0.0 {
            return 1.0;
        }
        let x = occupancy / total_sms;
        (total_sms / occupancy) / (1.0 + self.efficiency_loss * (x - 1.0))
    }

    /// Jitter half-width at the given overcommit state.
    #[must_use]
    pub(crate) fn jitter_halfwidth(&self, occupancy: f64, total_sms: f64) -> f64 {
        let x = if total_sms > 0.0 && occupancy > total_sms {
            occupancy / total_sms
        } else {
            1.0
        };
        (self.base_jitter + self.contention_jitter * (x - 1.0)).max(0.0)
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_means_no_slowdown() {
        let m = ContentionModel::calibrated();
        assert_eq!(m.rate_factor(68.0, 68.0), 1.0);
        assert_eq!(m.rate_factor(34.0, 68.0), 1.0);
        assert_eq!(m.rate_factor(0.0, 68.0), 1.0);
    }

    #[test]
    fn overcommit_scales_below_fair_share() {
        let m = ContentionModel::calibrated();
        let fair = 68.0 / 136.0;
        let got = m.rate_factor(136.0, 68.0);
        assert!(got < fair, "efficiency loss must bite: {got} >= {fair}");
        assert!(got > 0.0);
    }

    #[test]
    fn ideal_model_gives_exact_fair_share() {
        let m = ContentionModel::ideal();
        let got = m.rate_factor(136.0, 68.0);
        assert!((got - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_factor_monotone_in_overcommit() {
        let m = ContentionModel::calibrated();
        let mut prev = 1.0;
        for a in [68.0, 80.0, 102.0, 136.0, 204.0] {
            let f = m.rate_factor(a, 68.0);
            assert!(f <= prev + 1e-12, "factor must not increase: {a}");
            prev = f;
        }
    }

    #[test]
    fn aggregate_throughput_saturates_but_never_exceeds_device() {
        // occupancy · factor(occupancy) is the delivered SM-equivalents:
        // it must approach M from below and keep shrinking past it.
        let m = ContentionModel::calibrated();
        let delivered = |a: f64| a * m.rate_factor(a, 68.0);
        assert!(delivered(60.0) <= 68.0);
        assert!(delivered(80.0) < 68.0);
        assert!(delivered(136.0) < delivered(80.0));
    }

    #[test]
    fn jitter_grows_with_overcommit() {
        let m = ContentionModel::calibrated();
        let none = m.jitter_halfwidth(68.0, 68.0);
        let some = m.jitter_halfwidth(102.0, 68.0);
        let more = m.jitter_halfwidth(136.0, 68.0);
        assert!(none < some && some < more);
        assert!((none - m.base_jitter).abs() < 1e-12);
    }

    #[test]
    fn jitter_never_negative() {
        let m = ContentionModel {
            efficiency_loss: 0.0,
            base_jitter: 0.0,
            contention_jitter: -1.0,
        };
        assert_eq!(m.jitter_halfwidth(136.0, 68.0), 0.0);
    }
}
