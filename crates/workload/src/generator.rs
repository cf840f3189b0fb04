//! Synthetic task-set generators for extension experiments.
//!
//! The paper evaluates identical tasks only. [`mixed_model_tasks`]
//! produces the harder input a real deployment sees: a round-robin mix of
//! the reference networks at a common frame rate.

use sgprs_core::{offline, CompiledTask, ContextPoolSpec};
use sgprs_dnn::{models, CostModel, Network};
use sgprs_rt::SimDuration;

/// Compiles a task from any network at the given frame rate.
#[must_use]
pub(crate) fn compile_model_task(
    name: &str,
    net: &Network,
    fps: f64,
    stages: usize,
    pool: &ContextPoolSpec,
) -> CompiledTask {
    let period = SimDuration::from_secs_f64(1.0 / fps);
    offline::compile_network_task(name, net, &CostModel::calibrated(), stages, period, pool)
        .expect("reference networks split into small stage counts")
}

/// A heterogeneous task set cycling through ResNet18, MobileNet, and
/// AlexNet at a common frame rate.
#[must_use]
pub fn mixed_model_tasks(n: usize, fps: f64, stages: usize, pool: &ContextPoolSpec) -> Vec<CompiledTask> {
    let nets = [
        models::resnet18(1, 224),
        models::mobilenet(1, 224),
        models::alexnet(1, 224),
    ];
    (0..n)
        .map(|i| {
            let net = &nets[i % nets.len()];
            compile_model_task(&format!("{}-{i}", net.name), net, fps, stages, pool)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_models_cycle_architectures() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = mixed_model_tasks(6, 30.0, 4, &pool);
        assert_eq!(tasks.len(), 6);
        assert!(tasks[0].spec.name.starts_with("resnet18"));
        assert!(tasks[1].spec.name.starts_with("mobilenet"));
        assert!(tasks[2].spec.name.starts_with("alexnet"));
        assert!(tasks.iter().all(|t| t.stage_count() == 4));
    }

    #[test]
    fn heterogeneous_tasks_have_distinct_wcets() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = mixed_model_tasks(3, 30.0, 4, &pool);
        let wcets: Vec<_> = tasks.iter().map(|t| t.spec.total_stage_wcet()).collect();
        assert_ne!(wcets[0], wcets[1]);
        assert_ne!(wcets[1], wcets[2]);
    }
}
