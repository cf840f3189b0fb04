//! The naive baseline: pure spatial partitioning (§V).
//!
//! The paper's comparison point is "a simple spatial partitioning
//! scheduler that lacks the context switch and temporal partitioning
//! features":
//!
//! * the GPU is split into `np` equal partitions (never over-subscribed);
//! * each task is statically assigned to one partition (round robin);
//! * each partition executes whole networks sequentially, FIFO — no
//!   stages, no priorities, no concurrency;
//! * switching a partition to a different tenant costs a reconfiguration
//!   delay (weight upload, context state) that grows with the number of
//!   tenants sharing the partition — exactly the cost SGPRS's seamless,
//!   zero-configuration switching removes.
//!
//! Past the pivot point this switch tax plus head-of-line blocking produce
//! the paper's observed behaviour: total FPS *degrades* to a plateau well
//! below SGPRS while the deadline-miss rate explodes (the domino effect of
//! §V).

use crate::{Admission, CompiledTask, MetricsCollector, NaiveConfig, RunMetrics};
use sgprs_gpu_sim::{
    ContextConfig, ContextId, DeviceEvent, GpuEngine, KernelDesc, KernelHandle, StreamClass,
};
use sgprs_rt::{ReleaseGenerator, SimTime};
use std::collections::{HashMap, VecDeque};

/// One whole-network job waiting in a partition's FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobRef {
    task: usize,
    release_index: u64,
    release: SimTime,
    deadline: SimTime,
}

/// The naive spatial-partitioning scheduler. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct NaiveScheduler {
    config: NaiveConfig,
    engine: GpuEngine,
    tasks: Vec<CompiledTask>,
    gens: Vec<ReleaseGenerator>,
    outstanding: Vec<u64>,
    /// Frame buffer per task ([`Admission::FrameBuffer`]).
    buffered: Vec<Option<SimTime>>,
    /// Per-task monotone admission counter.
    admit_seq: Vec<u64>,
    /// Static task → partition assignment (round robin).
    ctx_of_task: Vec<usize>,
    /// Tenants (distinct tasks) per partition, fixed at construction.
    tenants: Vec<usize>,
    fifo: Vec<VecDeque<JobRef>>,
    running: HashMap<KernelHandle, JobRef>,
    last_tenant: Vec<Option<usize>>,
    collector: MetricsCollector,
    /// Completion buffer reused across [`GpuEngine::advance_to`] calls.
    events: Vec<DeviceEvent>,
}

impl NaiveScheduler {
    /// Creates the baseline for `tasks` over `config.contexts` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    #[must_use]
    pub fn new(config: NaiveConfig, tasks: Vec<CompiledTask>) -> Self {
        assert!(!tasks.is_empty(), "need at least one task");
        let sm_allocs = config.sm_allocations();
        let mut builder = GpuEngine::builder(config.gpu.clone())
            .contention_model(config.contention)
            .seed(config.seed)
            .tracing(config.tracing);
        for &sm in &sm_allocs {
            // One stream, sequential execution: no temporal partitioning.
            builder = builder.context(ContextConfig::new(sm).with_streams(1, 0));
        }
        let engine = builder.build();
        let n_ctx = sm_allocs.len();
        let ctx_of_task: Vec<usize> = (0..tasks.len()).map(|i| i % n_ctx).collect();
        let mut tenants = vec![0usize; n_ctx];
        for &c in &ctx_of_task {
            tenants[c] += 1;
        }
        let gens = tasks
            .iter()
            .map(|t| ReleaseGenerator::new(SimTime::ZERO + t.spec.phase, t.spec.period))
            .collect();
        let names = tasks.iter().map(|t| t.spec.name.clone()).collect();
        let collector = MetricsCollector::new(names, SimTime::ZERO + config.warmup);
        let n_tasks = tasks.len();
        NaiveScheduler {
            config,
            engine,
            tasks,
            gens,
            outstanding: vec![0; n_tasks],
            buffered: vec![None; n_tasks],
            admit_seq: vec![0; n_tasks],
            ctx_of_task,
            tenants,
            fifo: (0..n_ctx).map(|_| VecDeque::new()).collect(),
            running: HashMap::new(),
            last_tenant: vec![None; n_ctx],
            collector,
            events: Vec::new(),
        }
    }

    /// The underlying device engine (for traces and occupancy stats).
    #[must_use]
    pub fn engine(&self) -> &GpuEngine {
        &self.engine
    }

    /// Runs the simulation until `end`, returning metrics over
    /// `warmup..end`.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        loop {
            let next_release = self
                .gens
                .iter()
                .map(ReleaseGenerator::next_release)
                .min()
                .expect("at least one task");
            let next_device = self.engine.next_event_time();
            let next = match next_device {
                Some(d) if d < next_release => d,
                _ => next_release,
            };
            if next > end {
                break;
            }
            self.engine.advance_to(next, &mut self.events);
            self.handle_events();
            if next_release == next {
                self.do_releases(next);
            }
            self.dispatch();
        }
        self.engine.advance_to(end, &mut self.events);
        self.handle_events();
        let names = self.tasks.iter().map(|t| t.spec.name.clone()).collect();
        let fresh = MetricsCollector::new(names, SimTime::ZERO + self.config.warmup);
        std::mem::replace(&mut self.collector, fresh).finish(end)
    }

    fn admit(&mut self, task_idx: usize, release: SimTime) {
        let index = self.admit_seq[task_idx];
        self.admit_seq[task_idx] += 1;
        self.outstanding[task_idx] += 1;
        let job = JobRef {
            task: task_idx,
            release_index: index,
            release,
            deadline: release + self.tasks[task_idx].spec.deadline,
        };
        self.fifo[self.ctx_of_task[task_idx]].push_back(job);
    }

    fn do_releases(&mut self, now: SimTime) {
        for task_idx in 0..self.tasks.len() {
            while self.gens[task_idx].next_release() <= now {
                let release = self.gens[task_idx].next_release();
                self.gens[task_idx].advance();
                self.collector.record_release(task_idx, release);
                let busy = self.outstanding[task_idx] > 0;
                if busy {
                    match self.config.admission {
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
            if self.config.admission == Admission::FrameBuffer {
                if let Some(_boundary) = self.buffered[job.task].take() {
                    self.admit(job.task, ev.finished_at);
                }
            }
        }
        self.events = events;
    }

    fn dispatch(&mut self) {
        for ctx in 0..self.fifo.len() {
            // Sequential: dispatch only when the partition is idle.
            if self.engine.snapshot(ContextId(ctx)).resident > 0 {
                continue;
            }
            let Some(job) = self.fifo[ctx].pop_front() else {
                continue;
            };
            // The partition reconfiguration tax SGPRS avoids: charged when
            // the tenant changes.
            let switch_ns = if self.last_tenant[ctx] == Some(job.task) {
                0.0
            } else {
                self.config.switch_cost_ns(self.tenants[ctx])
            };
            self.last_tenant[ctx] = Some(job.task);
            // Only the device trace reads the label.
            let label = if self.config.tracing {
                format!("τ{}#{}", job.task, job.release_index)
            } else {
                String::new()
            };
            let desc =
                KernelDesc::new(label, self.tasks[job.task].whole_profile).with_extra_ns(switch_ns);
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
    use sgprs_rt::SimDuration;

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
        vec![task; n]
    }

    fn run_naive(contexts: usize, n: usize, secs: u64) -> RunMetrics {
        let mut s = NaiveScheduler::new(NaiveConfig::new(contexts), compile(n));
        s.run(SimTime::ZERO + SimDuration::from_secs(secs))
    }

    #[test]
    fn single_task_is_schedulable() {
        let m = run_naive(2, 1, 2);
        assert!(m.is_miss_free(), "{m:?}");
        assert!((m.total_fps - 30.0).abs() < 1.5);
    }

    #[test]
    fn light_load_meets_deadlines() {
        let m = run_naive(2, 4, 2);
        assert!(m.is_miss_free(), "{m:?}");
        assert!((m.total_fps - 120.0).abs() < 4.0);
    }

    #[test]
    fn overload_degrades_hard() {
        let m = run_naive(2, 30, 3);
        assert!(m.dmr > 0.3, "naive must collapse under 30 tasks, dmr {:.2}", m.dmr);
        assert!(m.total_fps > 100.0, "but it still serves: {:.0}", m.total_fps);
    }

    #[test]
    fn pivot_is_earlier_than_sgprs() {
        // At 16 tasks the naive scheduler already misses deadlines while
        // SGPRS (np=2, os=1.5) still sails through.
        let naive = run_naive(2, 16, 2);
        assert!(!naive.is_miss_free(), "naive at 16 tasks: {naive:?}");
        let pool = ContextPoolSpec::new(2, 1.5);
        let net = models::resnet18(1, 224);
        let task = offline::compile_network_task(
            "cam",
            &net,
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &pool,
        )
        .unwrap();
        let mut s = crate::SgprsScheduler::new(
            crate::SgprsConfig::new(pool),
            vec![task; 16],
        );
        let sgprs = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(
            sgprs.is_miss_free(),
            "sgprs at 16 tasks should be clean: late={} skipped={}",
            sgprs.late,
            sgprs.skipped
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_naive(3, 12, 2);
        let b = run_naive(3, 12, 2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.late, b.late);
    }

    #[test]
    fn switch_tax_reduces_throughput_with_many_tenants() {
        // Same offered load, fewer tenants per context: 2 tenants on 2
        // contexts vs 8 tenants on 2 contexts at the saturation point.
        let few = run_naive(2, 2, 2);
        let many = run_naive(2, 30, 3);
        // Per-completion cost must be higher with many tenants; a crude
        // proxy: many-tenant FPS is below the zero-switch capacity bound.
        assert!(many.total_fps < 30.0 * 30.0);
        assert!(few.is_miss_free());
    }
}
