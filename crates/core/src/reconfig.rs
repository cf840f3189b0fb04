//! A third comparison point: the *reconfiguring* spatial partitioner.
//!
//! The paper's headline is the **zero-configuration partition switch**:
//! SGPRS pre-creates an over-subscribed context pool once, so moving a
//! stage to another partition costs nothing. The natural alternative —
//! what MPS-based systems without a pool do — is to *resize* partitions as
//! the tenant population changes: whenever the number of active tasks
//! changes, tear the partitions down and rebuild them to match, stalling
//! the whole device for the reconfiguration window.
//!
//! This scheduler makes that cost explicit. It is otherwise *stronger*
//! than the naive baseline (it right-sizes partitions: one partition per
//! active task, up to a cap), so any loss against SGPRS is attributable
//! to the reconfiguration stalls alone — direct evidence for the value of
//! seamless switching.

use crate::{Admission, CompiledTask, MetricsCollector, NaiveConfig, RunMetrics};
use sgprs_gpu_sim::{
    ContextConfig, ContextId, DeviceEvent, GpuEngine, KernelDesc, KernelHandle, StreamClass,
};
use sgprs_rt::{ReleaseGenerator, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Configuration of the reconfiguring partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigConfig {
    /// Baseline knobs shared with the naive scheduler (device, admission,
    /// warm-up, seed).
    pub base: NaiveConfig,
    /// Device-wide stall charged for every repartitioning, in nanoseconds
    /// (MPS server restart / context re-creation; tens of milliseconds on
    /// real systems).
    pub repartition_stall_ns: u64,
    /// Maximum number of partitions the device may be split into.
    pub max_partitions: usize,
}

impl ReconfigConfig {
    /// Defaults: 100 ms stall per repartition (MPS server restart plus
    /// context re-creation and model re-initialisation), at most 8
    /// partitions.
    #[must_use]
    pub fn new() -> Self {
        ReconfigConfig {
            base: NaiveConfig::new(1),
            repartition_stall_ns: 100_000_000,
            max_partitions: 8,
        }
    }
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig::new()
    }
}

/// The reconfiguring spatial partitioner. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct ReconfigScheduler {
    config: ReconfigConfig,
    engine: GpuEngine,
    tasks: Vec<CompiledTask>,
    gens: Vec<ReleaseGenerator>,
    outstanding: Vec<u64>,
    buffered: Vec<Option<SimTime>>,
    /// Whole-network jobs waiting for a partition, FIFO across the device.
    queue: VecDeque<QueuedJob>,
    running: HashMap<KernelHandle, QueuedJob>,
    collector: MetricsCollector,
    /// Number of partitions the engine is currently built for.
    current_partitions: usize,
    /// The device is stalled (repartitioning) until this instant.
    stalled_until: SimTime,
    /// Distinct tasks that had work in the recent window (drives sizing).
    admit_seq: Vec<u64>,
    /// Tasks that have released at least one job (the tenant population
    /// the layout is sized for).
    seen: Vec<bool>,
    repartitions: u64,
    /// Completion buffer reused across [`GpuEngine::advance_to`] calls.
    events: Vec<DeviceEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedJob {
    task: usize,
    release_index: u64,
    release: SimTime,
    deadline: SimTime,
}

impl ReconfigScheduler {
    /// Creates the scheduler; the initial layout has one partition.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `max_partitions` is zero.
    #[must_use]
    pub fn new(config: ReconfigConfig, tasks: Vec<CompiledTask>) -> Self {
        assert!(!tasks.is_empty(), "need at least one task");
        assert!(config.max_partitions > 0, "need at least one partition");
        let engine = Self::build_engine(&config, 1);
        let gens = tasks
            .iter()
            .map(|t| ReleaseGenerator::new(SimTime::ZERO + t.spec.phase, t.spec.period))
            .collect();
        let names = tasks.iter().map(|t| t.spec.name.clone()).collect();
        let collector = MetricsCollector::new(names, SimTime::ZERO + config.base.warmup);
        let n_tasks = tasks.len();
        ReconfigScheduler {
            config,
            engine,
            tasks,
            gens,
            outstanding: vec![0; n_tasks],
            buffered: vec![None; n_tasks],
            queue: VecDeque::new(),
            running: HashMap::new(),
            collector,
            current_partitions: 1,
            stalled_until: SimTime::ZERO,
            admit_seq: vec![0; n_tasks],
            seen: vec![false; n_tasks],
            repartitions: 0,
            events: Vec::new(),
        }
    }

    fn build_engine(config: &ReconfigConfig, partitions: usize) -> GpuEngine {
        let total = config.base.gpu.total_sms;
        let base = total / partitions as u32;
        let remainder = (total % partitions as u32) as usize;
        let mut builder = GpuEngine::builder(config.base.gpu.clone())
            .contention_model(config.base.contention)
            .seed(config.base.seed);
        for i in 0..partitions {
            let sm = base + u32::from(i < remainder);
            builder = builder.context(ContextConfig::new(sm.max(1)).with_streams(1, 0));
        }
        builder.build()
    }

    /// Number of repartitioning stalls incurred so far.
    #[must_use]
    pub fn repartition_count(&self) -> u64 {
        self.repartitions
    }

    /// Runs until `end`, returning the metrics over `warmup..end`.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        loop {
            let next_release = self
                .gens
                .iter()
                .map(ReleaseGenerator::next_release)
                .min()
                .expect("at least one task");
            let next_device = self.engine.next_event_time();
            let mut next = match next_device {
                Some(d) if d < next_release => d,
                _ => next_release,
            };
            if self.stalled_until > self.engine.now() && self.stalled_until < next {
                next = self.stalled_until;
            }
            if next > end {
                break;
            }
            self.engine.advance_to(next, &mut self.events);
            self.handle_events();
            if next_release <= next {
                self.do_releases(next);
            }
            self.maybe_repartition(next);
            self.dispatch();
        }
        self.engine.advance_to(end, &mut self.events);
        self.handle_events();
        let names = self.tasks.iter().map(|t| t.spec.name.clone()).collect();
        let fresh = MetricsCollector::new(names, SimTime::ZERO + self.config.base.warmup);
        std::mem::replace(&mut self.collector, fresh).finish(end)
    }

    /// The partition count the current tenant population wants: one
    /// partition per tenant that has ever released work, capped.
    fn desired_partitions(&self) -> usize {
        let tenants = self.seen.iter().filter(|&&s| s).count().max(1);
        tenants.min(self.config.max_partitions)
    }

    /// Rebuilds the context layout when the desired partition count
    /// changed, charging the device-wide stall. Only possible when the
    /// device is idle (in-flight kernels cannot survive a repartition);
    /// otherwise the repartition is deferred to the next idle instant.
    fn maybe_repartition(&mut self, now: SimTime) {
        let desired = self.desired_partitions();
        if desired == self.current_partitions {
            return;
        }
        if !self.running.is_empty() {
            return; // defer until the device drains
        }
        self.engine = Self::build_engine(&self.config, desired);
        // The fresh engine starts at t=0; bring it to `now` plus the stall.
        let stall = SimDuration::from_nanos(self.config.repartition_stall_ns);
        self.stalled_until = now + stall;
        self.engine.advance_to(self.stalled_until, &mut self.events);
        self.current_partitions = desired;
        self.repartitions += 1;
    }

    fn do_releases(&mut self, now: SimTime) {
        for task_idx in 0..self.tasks.len() {
            while self.gens[task_idx].next_release() <= now {
                let release = self.gens[task_idx].next_release();
                self.gens[task_idx].advance();
                self.seen[task_idx] = true;
                self.collector.record_release(task_idx, release);
                let busy = self.outstanding[task_idx] > 0;
                if busy {
                    match self.config.base.admission {
                        Admission::SkipIfBusy => {
                            self.collector.record_skip(task_idx, release);
                            continue;
                        }
                        Admission::FrameBuffer => {
                            if let Some(stale) = self.buffered[task_idx].replace(release)
                            {
                                self.collector.record_skip(task_idx, stale);
                            }
                            continue;
                        }
                        Admission::QueueAll => {}
                    }
                }
                self.admit(task_idx, release);
            }
        }
    }

    fn admit(&mut self, task_idx: usize, release: SimTime) {
        let index = self.admit_seq[task_idx];
        self.admit_seq[task_idx] += 1;
        self.outstanding[task_idx] += 1;
        self.queue.push_back(QueuedJob {
            task: task_idx,
            release_index: index,
            release,
            deadline: release + self.tasks[task_idx].spec.deadline,
        });
    }

    fn handle_events(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        for ev in events.drain(..) {
            let Some(job) = self.running.remove(&ev.kernel) else {
                continue;
            };
            self.collector.record_completion(
                job.task,
                job.release,
                ev.finished_at,
                job.deadline,
            );
            self.outstanding[job.task] = self.outstanding[job.task].saturating_sub(1);
            if self.config.base.admission == Admission::FrameBuffer {
                if let Some(_boundary) = self.buffered[job.task].take() {
                    self.admit(job.task, ev.finished_at);
                }
            }
        }
        self.events = events;
    }

    fn dispatch(&mut self) {
        if self.engine.now() < self.stalled_until {
            return; // repartition in progress
        }
        for ctx in 0..self.engine.context_count() {
            if self.engine.snapshot(ContextId(ctx)).resident > 0 {
                continue;
            }
            let Some(job) = self.queue.pop_front() else {
                return;
            };
            // This engine records no trace, the label's only reader.
            let desc = KernelDesc::new(String::new(), self.tasks[job.task].whole_profile);
            let handle = self
                .engine
                .submit(ContextId(ctx), StreamClass::High, desc)
                .expect("partition was idle");
            self.running.insert(handle, job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{offline, ContextPoolSpec};
    use sgprs_dnn::{models, CostModel};

    fn compile(n: usize) -> Vec<CompiledTask> {
        let net = models::resnet18(1, 224);
        let task = offline::compile_network_task(
            "cam",
            &net,
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &ContextPoolSpec::new(2, 1.0),
        )
        .unwrap();
        (0..n)
            .map(|i| {
                let mut t = task.clone();
                t.spec.name = format!("cam-{i}");
                t
            })
            .collect()
    }

    #[test]
    fn single_task_schedules_after_initial_repartition() {
        let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(1));
        let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(m.total_fps > 25.0, "{m:?}");
    }

    #[test]
    fn growing_tenant_population_forces_repartitions() {
        let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(6));
        let _ = s.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(
            s.repartition_count() >= 1,
            "six tenants cannot fit the initial single partition"
        );
    }

    #[test]
    fn repartition_stalls_cost_against_sgprs_under_churn() {
        // Tenants arriving over time: each arrival changes the desired
        // partition count, so the reconfiguring partitioner stalls the
        // whole device per arrival while SGPRS's pre-created pool absorbs
        // the churn with zero-configuration switches.
        let mut tasks = compile(10);
        for (i, t) in tasks.iter_mut().enumerate() {
            t.spec.phase = SimDuration::from_millis(600 + 150 * i as u64);
        }
        let end = SimTime::ZERO + SimDuration::from_secs(3);
        let mut rec = ReconfigScheduler::new(ReconfigConfig::new(), tasks.clone());
        let rec_m = rec.run(end);
        assert!(
            rec.repartition_count() >= 4,
            "churn must force repeated repartitions, got {}",
            rec.repartition_count()
        );
        let pool = ContextPoolSpec::new(2, 1.5);
        let mut sg = crate::SgprsScheduler::new(crate::SgprsConfig::new(pool), tasks);
        let sg_m = sg.run(end);
        let sg_misses = sg_m.late + sg_m.skipped + sg_m.dropped;
        let rec_misses = rec_m.late + rec_m.skipped + rec_m.dropped;
        assert!(
            sg_misses < rec_misses,
            "seamless switching must miss fewer deadlines: sgprs {sg_misses} vs reconfig {rec_misses}"
        );
    }

    #[test]
    fn max_partitions_caps_the_layout() {
        let mut cfg = ReconfigConfig::new();
        cfg.max_partitions = 2;
        let mut s = ReconfigScheduler::new(cfg, compile(10));
        let _ = s.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(s.current_partitions <= 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(5));
            s.run(SimTime::ZERO + SimDuration::from_secs(1))
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.late, b.late);
    }
}
