//! Run-time job instances of periodic tasks.
//!
//! Every period, a task releases a [`Job`]; the job carries one
//! [`StageInstance`] per stage of the task's DAG. The online phase of SGPRS
//! assigns each released stage an absolute deadline derived from the
//! offline virtual relative deadlines (§IV-B1).

use crate::{PeriodicTaskSpec, PriorityLevel, SimDuration, SimTime, StageId, TaskId};

/// Globally unique job identifier: the releasing task plus the release
/// index (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId {
    /// The releasing task.
    pub task: TaskId,
    /// 0-based release index of the task.
    pub release_index: u64,
}

impl core::fmt::Display for JobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}#{}", self.task, self.release_index)
    }
}

/// Lifecycle of a stage instance inside the online scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageState {
    /// Waiting for one or more predecessor stages to complete.
    Blocked,
    /// All predecessors done; sitting in a context queue.
    Ready,
    /// Currently occupying a stream slot on the device.
    Running,
    /// Finished execution.
    Completed,
    /// Abandoned (job aborted or dropped).
    Aborted,
}

/// One stage `τi^j` of a released job.
#[derive(Debug, Clone, PartialEq)]
pub struct StageInstance {
    /// Which stage of the task this instance embodies.
    pub stage: StageId,
    /// Current lifecycle state.
    pub state: StageState,
    /// Absolute deadline `di^j` assigned at release (§IV-B1).
    pub absolute_deadline: SimTime,
    /// Effective priority (offline level, possibly promoted at run time).
    pub priority: PriorityLevel,
    /// Instant the stage became ready (predecessors all complete).
    pub ready_at: Option<SimTime>,
    /// Instant the stage started running on the device.
    pub started_at: Option<SimTime>,
    /// Instant the stage completed.
    pub completed_at: Option<SimTime>,
}

impl StageInstance {
    /// Creates a blocked instance with the given absolute deadline and
    /// offline priority.
    #[must_use]
    pub(crate) fn new(stage: StageId, absolute_deadline: SimTime, priority: PriorityLevel) -> Self {
        StageInstance {
            stage,
            state: StageState::Blocked,
            absolute_deadline,
            priority,
            ready_at: None,
            started_at: None,
            completed_at: None,
        }
    }

    /// `true` once the stage has completed.
    #[must_use]
    pub(crate) fn is_completed(&self) -> bool {
        matches!(self.state, StageState::Completed)
    }
}

/// A released instance of a periodic task.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id (task, release index).
    pub id: JobId,
    /// Release instant.
    pub release: SimTime,
    /// Absolute whole-job deadline `release + Di`.
    pub absolute_deadline: SimTime,
    /// Per-stage run-time state, indexed like the task's stage list.
    pub stages: Vec<StageInstance>,
    /// Completion instant of the final stage, once known.
    pub completed_at: Option<SimTime>,
}

impl Job {
    /// Releases a job of `task` at `release`, computing every stage's
    /// absolute deadline from the offline virtual relative deadlines:
    /// stage `j`'s deadline is `release + Σ_{k ≤ j along its chain} D^k`.
    ///
    /// For general DAGs, the cumulative offset of a stage is the maximum
    /// over its predecessors' offsets plus its own virtual deadline, which
    /// reduces to the paper's prefix sums for chain tasks.
    #[must_use]
    pub fn release(task_id: TaskId, release_index: u64, task: &PeriodicTaskSpec, release: SimTime) -> Job {
        let order = if task.stages.is_empty() {
            Vec::new()
        } else {
            task.topological_order()
        };
        let mut offsets: Vec<SimDuration> = vec![SimDuration::ZERO; task.stages.len()];
        for &i in &order {
            let pred_max = task.stages[i]
                .predecessors
                .iter()
                .map(|&p| offsets[p])
                .max()
                .unwrap_or(SimDuration::ZERO);
            offsets[i] = pred_max + task.stages[i].virtual_deadline;
        }
        let stages = task
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut inst =
                    StageInstance::new(StageId(i), release + offsets[i], s.priority);
                if s.predecessors.is_empty() {
                    inst.state = StageState::Ready;
                    inst.ready_at = Some(release);
                }
                inst
            })
            .collect();
        Job {
            id: JobId {
                task: task_id,
                release_index,
            },
            release,
            absolute_deadline: release + task.deadline,
            stages,
            completed_at: None,
        }
    }

    /// The job's outcome relative to its whole-job deadline, if finished.
    #[must_use]
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.completed_at.map(|t| {
            if t <= self.absolute_deadline {
                JobOutcome::MetDeadline {
                    response: t.duration_since(self.release),
                }
            } else {
                JobOutcome::MissedDeadline {
                    response: t.duration_since(self.release),
                    tardiness: t.duration_since(self.absolute_deadline),
                }
            }
        })
    }

    /// Marks stage `index` complete at `now` and unblocks any successors
    /// whose predecessors are now all complete, returning the indices of
    /// newly ready stages.
    pub fn complete_stage(
        &mut self,
        index: usize,
        now: SimTime,
        task: &PeriodicTaskSpec,
    ) -> Vec<usize> {
        self.stages[index].state = StageState::Completed;
        self.stages[index].completed_at = Some(now);
        let mut newly_ready = Vec::new();
        for (i, spec) in task.stages.iter().enumerate() {
            if self.stages[i].state == StageState::Blocked
                && spec.predecessors.contains(&index)
                && spec
                    .predecessors
                    .iter()
                    .all(|&p| self.stages[p].is_completed())
            {
                self.stages[i].state = StageState::Ready;
                self.stages[i].ready_at = Some(now);
                newly_ready.push(i);
            }
        }
        if self.stages.iter().all(StageInstance::is_completed) {
            self.completed_at = Some(now);
        }
        newly_ready
    }
}

/// Terminal result of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed at or before the absolute deadline.
    MetDeadline {
        /// Response time (completion − release).
        response: SimDuration,
    },
    /// Completed after the absolute deadline.
    MissedDeadline {
        /// Response time (completion − release).
        response: SimDuration,
        /// Lateness beyond the deadline.
        tardiness: SimDuration,
    },
}

impl JobOutcome {
    /// `true` when the deadline was met.
    #[must_use]
    pub fn met(&self) -> bool {
        matches!(self, JobOutcome::MetDeadline { .. })
    }
}

/// Iterator-style generator of periodic release instants for one task.
///
/// # Example
///
/// ```
/// use sgprs_rt::{ReleaseGenerator, SimDuration, SimTime};
///
/// let mut gen = ReleaseGenerator::new(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(gen.next_release(), SimTime::ZERO);
/// gen.advance();
/// assert_eq!(gen.next_release(), SimTime::from_nanos(10_000_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseGenerator {
    next: SimTime,
    period: SimDuration,
}

impl ReleaseGenerator {
    /// Creates a generator whose first release is at `phase`.
    #[must_use]
    pub fn new(phase: SimTime, period: SimDuration) -> Self {
        ReleaseGenerator {
            next: phase,
            period,
        }
    }

    /// The upcoming release instant.
    #[must_use]
    pub fn next_release(&self) -> SimTime {
        self.next
    }

    /// Consumes the upcoming release, moving to the one after.
    pub fn advance(&mut self) {
        self.next += self.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PriorityAssignment, StageSpec};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn chain_task() -> PeriodicTaskSpec {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(ms(30))
            .equal_stage_chain(3, ms(9))
            .build()
            .unwrap();
        // Give every stage a 10 ms virtual deadline so offsets are 10/20/30.
        for s in &mut t.stages {
            s.virtual_deadline = ms(10);
        }
        PriorityAssignment::assign(&mut t);
        t
    }

    #[test]
    fn release_assigns_cumulative_absolute_deadlines() {
        let t = chain_task();
        let job = Job::release(TaskId(0), 0, &t, SimTime::from_nanos(0));
        assert_eq!(job.stages[0].absolute_deadline, SimTime::ZERO + ms(10));
        assert_eq!(job.stages[1].absolute_deadline, SimTime::ZERO + ms(20));
        assert_eq!(job.stages[2].absolute_deadline, SimTime::ZERO + ms(30));
        assert_eq!(job.absolute_deadline, SimTime::ZERO + ms(30));
    }

    #[test]
    fn only_sources_start_ready() {
        let t = chain_task();
        let job = Job::release(TaskId(0), 0, &t, SimTime::ZERO);
        assert_eq!(job.stages[0].state, StageState::Ready);
        assert_eq!(job.stages[1].state, StageState::Blocked);
        assert_eq!(job.stages[2].state, StageState::Blocked);
    }

    #[test]
    fn completing_stages_unblocks_successors_and_finishes_job() {
        let t = chain_task();
        let mut job = Job::release(TaskId(0), 0, &t, SimTime::ZERO);
        let ready = job.complete_stage(0, SimTime::ZERO + ms(5), &t);
        assert_eq!(ready, vec![1]);
        let ready = job.complete_stage(1, SimTime::ZERO + ms(12), &t);
        assert_eq!(ready, vec![2]);
        assert!(job.completed_at.is_none());
        let ready = job.complete_stage(2, SimTime::ZERO + ms(20), &t);
        assert!(ready.is_empty());
        assert!(job.completed_at.is_some());
        assert!(job.outcome().unwrap().met());
    }

    #[test]
    fn diamond_stage_waits_for_all_predecessors() {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(ms(40))
            .stage(StageSpec::new("src", ms(1)))
            .stage(StageSpec::new("l", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("r", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("sink", ms(1)).with_predecessors(vec![1, 2]))
            .build()
            .unwrap();
        for s in &mut t.stages {
            s.virtual_deadline = ms(10);
        }
        let mut job = Job::release(TaskId(0), 0, &t, SimTime::ZERO);
        let r = job.complete_stage(0, SimTime::ZERO + ms(1), &t);
        assert_eq!(r, vec![1, 2]);
        let r = job.complete_stage(1, SimTime::ZERO + ms(2), &t);
        assert!(r.is_empty(), "sink still blocked on the right branch");
        let r = job.complete_stage(2, SimTime::ZERO + ms(3), &t);
        assert_eq!(r, vec![3]);
        // Diamond deadline: max(pred offsets) + own virtual deadline = 30 ms.
        assert_eq!(job.stages[3].absolute_deadline, SimTime::ZERO + ms(30));
    }

    #[test]
    fn missed_outcome_reports_tardiness() {
        let t = chain_task();
        let mut job = Job::release(TaskId(0), 0, &t, SimTime::ZERO);
        job.complete_stage(0, SimTime::ZERO + ms(10), &t);
        job.complete_stage(1, SimTime::ZERO + ms(20), &t);
        job.complete_stage(2, SimTime::ZERO + ms(35), &t);
        match job.outcome().unwrap() {
            JobOutcome::MissedDeadline { tardiness, .. } => assert_eq!(tardiness, ms(5)),
            other => panic!("expected a miss, got {other:?}"),
        }
    }

    #[test]
    fn release_generator_steps_and_skips() {
        let mut g = ReleaseGenerator::new(SimTime::ZERO, ms(10));
        g.advance();
        g.advance();
        assert_eq!(g.next_release(), SimTime::ZERO + ms(20));
    }
}
