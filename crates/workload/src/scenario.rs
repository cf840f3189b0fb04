//! Scenario definitions mirroring §V of the paper.
//!
//! The evaluation uses identical periodic tasks: ResNet18 with a 224×224
//! input at 30 fps and an explicit deadline equal to the period, each task
//! divided into six stages. Scenario 1 uses a pool of two contexts,
//! Scenario 2 three contexts; SGPRS variants differ in the
//! over-subscription level `os ∈ {1.0, 1.5, 2.0}` (written `SGPRS os`).

use sgprs_core::{
    offline, CompiledTask, ContextPoolSpec, NaiveConfig, NaiveScheduler, RunMetrics,
    SgprsConfig, SgprsScheduler,
};
use sgprs_dnn::{models, CostModel};
use sgprs_rt::{SimDuration, SimTime};

/// The paper's task rate: 30 frames per second.
pub const PAPER_FPS: f64 = 30.0;

/// The paper's stage count: each task is divided into six stages.
pub const PAPER_STAGES: usize = 6;

/// Which scheduler a scenario curve uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// The naive spatial-partitioning baseline.
    Naive,
    /// SGPRS with the given over-subscription factor.
    Sgprs {
        /// The `os` level (1.0, 1.5, 2.0 in the paper).
        oversubscription: f64,
    },
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SchedulerKind::Naive => f.write_str("naive"),
            SchedulerKind::Sgprs { oversubscription } => {
                write!(f, "SGPRS {oversubscription:.1}")
            }
        }
    }
}

/// One curve of Figures 3/4: a scheduler variant over a context pool,
/// evaluated at varying task counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Curve label (e.g. `"SGPRS 1.5 (np=3)"`).
    pub label: String,
    /// Number of contexts `np`.
    pub contexts: usize,
    /// Scheduler variant.
    pub scheduler: SchedulerKind,
    /// Stages per task.
    pub stages: usize,
    /// Task release rate in frames per second.
    pub fps: f64,
    /// Simulated wall-clock length of each run.
    pub sim: SimDuration,
    /// Jitter seed (deterministic runs).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a scenario with the paper's task parameters.
    #[must_use]
    pub fn new(contexts: usize, scheduler: SchedulerKind, sim_secs: u64) -> Self {
        let label = format!("{scheduler} (np={contexts})");
        ScenarioSpec {
            label,
            contexts,
            scheduler,
            stages: PAPER_STAGES,
            fps: PAPER_FPS,
            sim: SimDuration::from_secs(sim_secs),
            seed: 0x5672_5053,
        }
    }

    /// The task period implied by the frame rate.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps)
    }

    /// The context pool this scenario partitions the GPU into (SGPRS
    /// variants only; the naive baseline always uses an exact partition).
    #[must_use]
    pub fn pool(&self) -> ContextPoolSpec {
        let os = match self.scheduler {
            SchedulerKind::Naive => 1.0,
            SchedulerKind::Sgprs { oversubscription } => oversubscription,
        };
        ContextPoolSpec::new(self.contexts, os)
    }

    /// Compiles `n` identical ResNet18 tasks for this scenario.
    #[must_use]
    pub fn compile_tasks(&self, n: usize) -> Vec<CompiledTask> {
        let net = models::resnet18(1, 224);
        let cost = CostModel::calibrated();
        let pool = self.pool();
        let task = offline::compile_network_task(
            "resnet18",
            &net,
            &cost,
            self.stages,
            self.period(),
            &pool,
        )
        .expect("resnet18 always splits into the paper's stage counts");
        (0..n)
            .map(|i| {
                let mut t = task.clone();
                t.spec.name = format!("resnet18-{i}");
                t
            })
            .collect()
    }

    /// Runs the scenario with `n` tasks and returns the metrics.
    #[must_use]
    pub fn run(&self, n: usize) -> RunMetrics {
        let tasks = self.compile_tasks(n);
        let end = SimTime::ZERO + self.sim;
        match self.scheduler {
            SchedulerKind::Naive => {
                let cfg = NaiveConfig::new(self.contexts).with_seed(self.seed);
                NaiveScheduler::new(cfg, tasks).run(end)
            }
            SchedulerKind::Sgprs { .. } => {
                let cfg = SgprsConfig::new(self.pool()).with_seed(self.seed);
                SgprsScheduler::new(cfg, tasks).run(end)
            }
        }
    }
}

/// The four curves of Figure 3 (Scenario 1, `np = 2`): naive plus SGPRS at
/// `os ∈ {1.0, 1.5, 2.0}`.
#[must_use]
pub fn scenario1_variants(sim_secs: u64) -> Vec<ScenarioSpec> {
    variants_for(2, sim_secs)
}

/// The four curves of Figure 4 (Scenario 2, `np = 3`).
#[must_use]
pub fn scenario2_variants(sim_secs: u64) -> Vec<ScenarioSpec> {
    variants_for(3, sim_secs)
}

fn variants_for(contexts: usize, sim_secs: u64) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(contexts, SchedulerKind::Naive, sim_secs),
        ScenarioSpec::new(
            contexts,
            SchedulerKind::Sgprs {
                oversubscription: 1.0,
            },
            sim_secs,
        ),
        ScenarioSpec::new(
            contexts,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
            sim_secs,
        ),
        ScenarioSpec::new(
            contexts,
            SchedulerKind::Sgprs {
                oversubscription: 2.0,
            },
            sim_secs,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_period_is_33_milliseconds() {
        let s = ScenarioSpec::new(2, SchedulerKind::Naive, 1);
        let p = s.period();
        assert_eq!(p.as_millis(), 33);
    }

    #[test]
    fn variants_cover_naive_and_three_os_levels() {
        let v = scenario1_variants(1);
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].scheduler, SchedulerKind::Naive);
        for (i, os) in [1.0, 1.5, 2.0].into_iter().enumerate() {
            assert_eq!(
                v[i + 1].scheduler,
                SchedulerKind::Sgprs {
                    oversubscription: os
                }
            );
        }
        assert!(scenario2_variants(1).iter().all(|s| s.contexts == 3));
    }

    #[test]
    fn compile_tasks_gives_unique_names() {
        let s = ScenarioSpec::new(2, SchedulerKind::Naive, 1);
        let tasks = s.compile_tasks(3);
        assert_eq!(tasks.len(), 3);
        assert_ne!(tasks[0].spec.name, tasks[1].spec.name);
        assert!(tasks.iter().all(|t| t.stage_count() == PAPER_STAGES));
    }

    #[test]
    fn naive_and_sgprs_scenarios_run() {
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        ] {
            let s = ScenarioSpec::new(2, kind, 1);
            let m = s.run(2);
            assert!(m.total_fps > 0.0, "{kind}: {m:?}");
        }
    }

    #[test]
    fn labels_are_descriptive() {
        let s = ScenarioSpec::new(
            3,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
            1,
        );
        assert_eq!(s.label, "SGPRS 1.5 (np=3)");
    }
}
