//! The discrete-event GPU engine.
//!
//! The engine is a *processor-sharing* simulator: every kernel resident on
//! the device progresses simultaneously at a rate determined by
//!
//! 1. its context's SM allocation (spatial partitioning),
//! 2. how many kernels currently share that context (stream concurrency,
//!    weighted by stream priority),
//! 3. the global contention factor when the context pool over-subscribes
//!    the physical SMs, and
//! 4. the kernel's own operation mix through the speedup curves.
//!
//! Whenever the resident set changes, rates are recomputed and completion
//! times re-derived — the classic event-driven fluid model. The engine is
//! passive: schedulers drive it by submitting kernels and asking it to
//! advance to the next completion or to a chosen instant (e.g. the next
//! job release).
//!
//! # Incremental reflow
//!
//! A reflow (after every submit and every batch of retirements) is
//! incremental and allocation-free. Each resident kernel caches its
//! effective SM share `m_eff`, its work duration at that share
//! (`duration_ns_at(m_eff)`, the expensive sum over the speedup curves)
//! and its occupancy (total single-SM work over that duration). A
//! reflow re-sums each context's weight in place and recomputes every
//! kernel's `m_eff` (one division). The cached duration and occupancy
//! are invalidated only when the bits of `m_eff` change, which can only
//! happen when the kernel's own context gained or lost a kernel. The
//! device occupancy is then re-summed from the cached values in resident
//! order and kept for the next submit's jitter draw, and every rate is
//! recomputed from the cached duration. Every float operation sees the
//! same inputs in the same order as a from-scratch recomputation, so the
//! cache changes no output bit.
//!
//! Completions are appended to a caller-owned buffer
//! ([`GpuEngine::advance_to`]), and retirements go through a reused
//! scratch list, so steady-state simulation allocates nothing.

use crate::{ContentionModel, GpuSimError, KernelDesc, SpeedupModel, TraceRecorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgprs_rt::SimTime;
use std::collections::VecDeque;

/// Identifier of a context in the engine's context pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub usize);

impl core::fmt::Display for ContextId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cp{}", self.0)
    }
}

/// Identifier of a stream within a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId {
    /// Owning context.
    pub context: ContextId,
    /// Stream index within the context (0-based, high streams first).
    pub index: usize,
}

/// CUDA stream priority class. SGPRS provisions two streams of each class
/// per context (§IV-B3), so at most four stages run concurrently per
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamClass {
    /// Low-priority hardware stream.
    Low,
    /// High-priority hardware stream.
    High,
}

impl core::fmt::Display for StreamClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            StreamClass::High => "high",
            StreamClass::Low => "low",
        })
    }
}

/// Static configuration of one context (spatial partition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextConfig {
    /// SMs allocated to the context (the MPS-style partition size).
    pub sm_alloc: u32,
    /// Number of high-priority streams (paper: 2).
    pub high_streams: usize,
    /// Number of low-priority streams (paper: 2).
    pub low_streams: usize,
}

impl ContextConfig {
    /// A context with `sm_alloc` SMs and the paper's 2+2 stream layout.
    #[must_use]
    pub fn new(sm_alloc: u32) -> Self {
        ContextConfig {
            sm_alloc,
            high_streams: 2,
            low_streams: 2,
        }
    }

    /// Overrides the stream counts.
    #[must_use]
    pub fn with_streams(mut self, high: usize, low: usize) -> Self {
        self.high_streams = high;
        self.low_streams = low;
        self
    }

    /// Total stream slots (max concurrent kernels) in this context.
    #[must_use]
    pub fn total_streams(&self) -> usize {
        self.high_streams + self.low_streams
    }
}

/// Unique handle of a submitted kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelHandle(pub u64);

/// A kernel-completion event produced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEvent {
    /// The completed kernel.
    pub kernel: KernelHandle,
    /// Context it ran in.
    pub context: ContextId,
    /// Stream it occupied.
    pub stream: StreamId,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Completion instant.
    pub finished_at: SimTime,
}

/// Point-in-time view of a context, for scheduler heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextSnapshot {
    /// The context's SM allocation.
    pub sm_alloc: u32,
    /// Kernels currently resident (running) in the context.
    pub resident: usize,
    /// Idle high-priority streams.
    pub idle_high: usize,
    /// Idle low-priority streams.
    pub idle_low: usize,
}

impl ContextSnapshot {
    /// `true` when no kernel is resident.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.resident == 0
    }
}

#[derive(Debug, Clone)]
struct RunningKernel {
    handle: KernelHandle,
    context: ContextId,
    stream: StreamId,
    /// Processor-sharing weight of the kernel's stream class. Cached at
    /// submit so the reflow reads it without a per-kernel branch.
    weight: f64,
    desc: KernelDesc,
    /// Multiplicative execution-time jitter sampled at submit.
    jitter: f64,
    /// Fraction of the kernel still to execute, in [0, 1].
    remaining: f64,
    /// Current progress rate in fraction per nanosecond.
    rate: f64,
    submitted_at: SimTime,
    /// Effective SM share at the last reflow (NaN before the first).
    m_eff: f64,
    /// `desc.work.duration_ns_at(m_eff)`, cached with `m_eff`.
    work_ns: f64,
    /// SM-equivalents the kernel keeps busy at `m_eff`: its effective
    /// speedup, cached with `m_eff`.
    occupancy: f64,
}

#[derive(Debug, Clone)]
struct ContextState {
    config: ContextConfig,
    /// One slot per stream: the handle of the kernel occupying it.
    slots: Vec<Option<KernelHandle>>,
    /// Processor-sharing weight of the resident kernels, re-summed in
    /// resident order on every reflow.
    weight_sum: f64,
}

/// Processor-sharing weight of a kernel on a high stream.
const HIGH_WEIGHT: f64 = 2.0;
/// Processor-sharing weight of a kernel on a low stream.
const LOW_WEIGHT: f64 = 1.0;

impl ContextState {
    fn weight(&self, class: StreamClass) -> f64 {
        match class {
            StreamClass::High => HIGH_WEIGHT,
            StreamClass::Low => LOW_WEIGHT,
        }
    }

    fn idle_slot(&self, class: StreamClass) -> Option<usize> {
        let range = match class {
            StreamClass::High => 0..self.config.high_streams,
            StreamClass::Low => {
                self.config.high_streams..self.config.high_streams + self.config.low_streams
            }
        };
        range.into_iter().find(|&i| self.slots[i].is_none())
    }

    fn idle_count(&self, class: StreamClass) -> usize {
        let range = match class {
            StreamClass::High => 0..self.config.high_streams,
            StreamClass::Low => {
                self.config.high_streams..self.config.high_streams + self.config.low_streams
            }
        };
        range.into_iter().filter(|&i| self.slots[i].is_none()).count()
    }

    fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// The discrete-event GPU device simulator. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct GpuEngine {
    spec: crate::GpuSpec,
    speedup: SpeedupModel,
    contention: ContentionModel,
    contexts: Vec<ContextState>,
    running: Vec<RunningKernel>,
    now: SimTime,
    last_reflow_ns: f64,
    next_handle: u64,
    rng: SmallRng,
    trace: Option<TraceRecorder>,
    /// Cumulative busy nanoseconds per context (≥1 resident kernel).
    busy_ns: Vec<f64>,
    completed_count: u64,
    /// Total occupancy (SM-equivalents) of the resident set at the last
    /// reflow — what the next submit's jitter draw sees. A kernel at
    /// speedup `s` keeps `s` SMs' worth of throughput busy; the rest of
    /// its allocation idles and is up for grabs, which is what makes
    /// over-subscription profitable (see [`ContentionModel`]).
    occupancy: f64,
    /// Events already produced but not yet returned (simultaneous
    /// completions split by [`GpuEngine::run_next`]).
    pending: VecDeque<DeviceEvent>,
    /// Scratch list of the kernels retiring at one instant.
    retired: Vec<RunningKernel>,
}

/// Builder for [`GpuEngine`] (see `C-BUILDER`).
#[derive(Debug)]
pub struct GpuEngineBuilder {
    spec: crate::GpuSpec,
    contention: ContentionModel,
    contexts: Vec<ContextConfig>,
    seed: u64,
    trace: bool,
}

impl GpuEngineBuilder {
    /// Adds a context (spatial partition) to the pool.
    #[must_use]
    pub fn context(mut self, config: ContextConfig) -> Self {
        self.contexts.push(config);
        self
    }

    /// Adds `n` identical contexts.
    #[must_use]
    pub fn contexts(mut self, n: usize, config: ContextConfig) -> Self {
        for _ in 0..n {
            self.contexts.push(config);
        }
        self
    }

    /// Replaces the calibrated contention model.
    #[must_use]
    pub fn contention_model(mut self, model: ContentionModel) -> Self {
        self.contention = model;
        self
    }

    /// Seeds the deterministic jitter RNG (default 0x5672_5053, "SGPRS").
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables timeline tracing.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(self) -> GpuEngine {
        let contexts: Vec<ContextState> = self
            .contexts
            .into_iter()
            .map(|config| ContextState {
                slots: vec![None; config.total_streams()],
                config,
                weight_sum: 0.0,
            })
            .collect();
        let busy_ns = vec![0.0; contexts.len()];
        GpuEngine {
            spec: self.spec,
            speedup: SpeedupModel::calibrated_rtx_2080_ti(),
            contention: self.contention,
            contexts,
            running: Vec::new(),
            now: SimTime::ZERO,
            last_reflow_ns: 0.0,
            next_handle: 0,
            rng: SmallRng::seed_from_u64(self.seed),
            trace: if self.trace {
                Some(TraceRecorder::new())
            } else {
                None
            },
            busy_ns,
            completed_count: 0,
            occupancy: 0.0,
            pending: VecDeque::new(),
            retired: Vec::new(),
        }
    }
}

impl GpuEngine {
    /// Starts building an engine for the given device.
    #[must_use]
    pub fn builder(spec: crate::GpuSpec) -> GpuEngineBuilder {
        GpuEngineBuilder {
            spec,
            contention: ContentionModel::calibrated(),
            contexts: Vec::new(),
            seed: 0x5672_5053,
            trace: false,
        }
    }

    /// The speedup model in use.
    #[must_use]
    pub fn speedup_model(&self) -> &SpeedupModel {
        &self.speedup
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of contexts in the pool.
    #[must_use]
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Number of kernels completed so far.
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// A snapshot of one context's occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[must_use]
    pub fn snapshot(&self, ctx: ContextId) -> ContextSnapshot {
        let c = &self.contexts[ctx.0];
        ContextSnapshot {
            sm_alloc: c.config.sm_alloc,
            resident: c.resident(),
            idle_high: c.idle_count(StreamClass::High),
            idle_low: c.idle_count(StreamClass::Low),
        }
    }

    /// Estimated isolated duration of `desc` in context `ctx`: the time the
    /// kernel would take if it were the only resident kernel device-wide.
    /// The reference the engine tests compare simulated durations against.
    #[cfg(test)]
    #[must_use]
    fn estimate_isolated(&self, ctx: ContextId, desc: &KernelDesc) -> sgprs_rt::SimDuration {
        let sm = f64::from(self.contexts[ctx.0].config.sm_alloc);
        let ns = self.spec.launch_overhead_ns as f64
            + desc.extra_ns
            + desc.work.duration_ns_at(&self.speedup, sm);
        sgprs_rt::SimDuration::from_nanos(ns.round() as u64)
    }

    /// Submits a kernel to an idle stream of `class` in context `ctx`.
    ///
    /// # Errors
    ///
    /// * [`GpuSimError::UnknownContext`] if `ctx` is out of range.
    /// * [`GpuSimError::NoIdleStream`] if every stream of that class is
    ///   busy — schedulers must check [`GpuEngine::snapshot`] first.
    pub fn submit(
        &mut self,
        ctx: ContextId,
        class: StreamClass,
        desc: KernelDesc,
    ) -> Result<KernelHandle, GpuSimError> {
        let state = self
            .contexts
            .get(ctx.0)
            .ok_or(GpuSimError::UnknownContext { context: ctx.0 })?;
        let slot = state
            .idle_slot(class)
            .ok_or(GpuSimError::NoIdleStream {
                context: ctx.0,
                class,
            })?;
        let weight = state.weight(class);

        // Progress everyone to `now` under the old rates before the
        // resident set changes.
        self.progress_to(self.now);

        let handle = KernelHandle(self.next_handle);
        self.next_handle += 1;

        // Jitter depends on the overcommit level at submit time.
        let half = self
            .contention
            .jitter_halfwidth(self.occupancy, f64::from(self.spec.total_sms));
        let jitter = if half > 0.0 {
            (1.0 + self.rng.random_range(-1.0..1.0) * half).max(0.5)
        } else {
            1.0
        };

        self.contexts[ctx.0].slots[slot] = Some(handle);
        let stream = StreamId {
            context: ctx,
            index: slot,
        };
        if let Some(trace) = &mut self.trace {
            trace.begin(handle, &desc.label, ctx, stream, self.now);
        }
        self.running.push(RunningKernel {
            handle,
            context: ctx,
            stream,
            weight,
            desc,
            jitter,
            remaining: 1.0,
            rate: 0.0,
            submitted_at: self.now,
            // What a NaN share yields, so the first reflow's cache check
            // needs no special case.
            m_eff: f64::NAN,
            work_ns: f64::NAN,
            occupancy: 0.0,
        });
        self.recompute_rates();
        Ok(handle)
    }

    /// The instant of the next kernel completion, if any kernel is running.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        let ns = self
            .running
            .iter()
            .map(|k| self.completion_time_of(k))
            .fold(f64::INFINITY, f64::min);
        if ns.is_finite() {
            Some(SimTime::from_nanos(ns.min(u64::MAX as f64).ceil() as u64))
        } else {
            None
        }
    }

    /// Runs until the next completion and returns it, or `None` if the
    /// device is idle. Simultaneous completions are returned one call at
    /// a time, in handle order.
    pub fn run_next(&mut self) -> Option<DeviceEvent> {
        if self.pending.is_empty() {
            let t = self.next_event_time()?;
            // Both conversions reuse the deque's buffer.
            let mut events = Vec::from(std::mem::take(&mut self.pending));
            self.advance_to(t, &mut events);
            debug_assert!(!events.is_empty(), "a completion was due at {t}");
            self.pending = VecDeque::from(events);
        }
        self.pending.pop_front()
    }

    /// Advances simulated time to `t`, appending every completion event to
    /// `events` in chronological order (simultaneous completions in handle
    /// order), after any events [`GpuEngine::run_next`] still holds. `t`
    /// earlier than [`GpuEngine::now`] only appends those held events.
    /// The caller owns `events`, so a reused buffer keeps the engine
    /// allocation-free.
    pub fn advance_to(&mut self, t: SimTime, events: &mut Vec<DeviceEvent>) {
        events.extend(self.pending.drain(..));
        if t <= self.now {
            return;
        }
        loop {
            let next = self
                .running
                .iter()
                .map(|k| self.completion_time_of(k))
                .fold(f64::INFINITY, f64::min);
            let target_ns = t.as_nanos() as f64;
            if next.is_finite() && next <= target_ns {
                let next_t = SimTime::from_nanos(next.ceil() as u64).max(self.now);
                self.progress_to(next_t);
                // Retire every kernel whose remaining work reached zero.
                let mut retired = std::mem::take(&mut self.retired);
                let mut i = 0;
                while i < self.running.len() {
                    if self.running[i].remaining <= Self::EPSILON {
                        retired.push(self.running.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                // Deterministic ordering for simultaneous completions
                // (handles are unique, so an unstable sort is exact).
                retired.sort_unstable_by_key(|k| k.handle);
                for k in retired.drain(..) {
                    self.contexts[k.context.0].slots[k.stream.index] = None;
                    self.completed_count += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.end(k.handle, self.now);
                    }
                    events.push(DeviceEvent {
                        kernel: k.handle,
                        context: k.context,
                        stream: k.stream,
                        submitted_at: k.submitted_at,
                        finished_at: self.now,
                    });
                }
                self.retired = retired;
                self.recompute_rates();
            } else {
                self.progress_to(t);
                break;
            }
        }
    }

    /// Runs the device until it is completely idle, returning every event
    /// [`GpuEngine::run_next`] still held followed by all remaining
    /// completions. A convenience for tests and one-shot runs; simulation
    /// loops call [`GpuEngine::advance_to`] with a reused buffer instead.
    pub fn drain(&mut self) -> Vec<DeviceEvent> {
        let mut events = Vec::from(std::mem::take(&mut self.pending));
        while let Some(t) = self.next_event_time() {
            self.advance_to(t, &mut events);
        }
        events
    }

    /// Fraction of time context `ctx` had at least one resident kernel,
    /// measured since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[must_use]
    pub fn busy_fraction(&self, ctx: ContextId) -> f64 {
        let elapsed = self.now.as_nanos() as f64;
        if elapsed <= 0.0 {
            return 0.0;
        }
        (self.busy_ns[ctx.0] / elapsed).clamp(0.0, 1.0)
    }

    /// The trace recorder, if tracing was enabled at build time.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    const EPSILON: f64 = 1e-9;

    /// Moves all running kernels' progress forward to instant `t` under the
    /// currently set rates and updates busy-time accounting.
    fn progress_to(&mut self, t: SimTime) {
        let t_ns = t.as_nanos() as f64;
        let dt = t_ns - self.last_reflow_ns;
        if dt > 0.0 {
            for k in &mut self.running {
                k.remaining = (k.remaining - k.rate * dt).max(0.0);
            }
            for (i, c) in self.contexts.iter().enumerate() {
                if c.resident() > 0 {
                    self.busy_ns[i] += dt;
                }
            }
        }
        self.last_reflow_ns = t_ns;
        if t > self.now {
            self.now = t;
        }
    }

    /// Recomputes every running kernel's rate from the current resident
    /// set. Must be called after any submit/retire. See the module
    /// documentation for what is cached and when it is invalidated.
    fn recompute_rates(&mut self) {
        for c in &mut self.contexts {
            c.weight_sum = 0.0;
        }
        for k in &self.running {
            let c = &mut self.contexts[k.context.0];
            c.weight_sum += k.weight;
        }
        // The effective SM share of each kernel: its context's allocation
        // split among resident kernels by stream-priority weight.
        let contexts = &self.contexts;
        let speedup = &self.speedup;
        for k in &mut self.running {
            let c = &contexts[k.context.0];
            let share = if c.weight_sum > 0.0 {
                k.weight / c.weight_sum
            } else {
                1.0
            };
            let m_eff = f64::from(c.config.sm_alloc) * share;
            if m_eff.to_bits() != k.m_eff.to_bits() {
                k.m_eff = m_eff;
                k.work_ns = k.desc.work.duration_ns_at(speedup, m_eff);
                k.occupancy = k.desc.work.speedup_over(k.work_ns);
            }
        }
        self.occupancy = self.running.iter().map(|k| k.occupancy).sum();
        let factor = self
            .contention
            .rate_factor(self.occupancy, f64::from(self.spec.total_sms));
        let launch_ns = self.spec.launch_overhead_ns as f64;
        for k in &mut self.running {
            let duration_ns = launch_ns + k.desc.extra_ns + k.work_ns * k.jitter;
            k.rate = if duration_ns > 0.0 {
                factor / duration_ns
            } else {
                f64::INFINITY
            };
        }
    }

    /// Absolute completion instant (ns) of a running kernel at its current
    /// rate.
    fn completion_time_of(&self, k: &RunningKernel) -> f64 {
        if k.rate <= 0.0 {
            return f64::INFINITY;
        }
        self.last_reflow_ns + k.remaining / k.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, OpClass, WorkProfile};

    fn quiet_spec() -> GpuSpec {
        GpuSpec::rtx_2080_ti().with_launch_overhead_ns(0)
    }

    fn conv_kernel(ns: f64) -> KernelDesc {
        KernelDesc::new("conv", WorkProfile::single(OpClass::Convolution, ns))
    }

    fn ideal_engine(contexts: &[u32]) -> GpuEngine {
        let mut b = GpuEngine::builder(quiet_spec())
            .contention_model(ContentionModel::ideal());
        for &sm in contexts {
            b = b.context(ContextConfig::new(sm));
        }
        b.build()
    }

    #[test]
    fn single_kernel_runs_for_its_isolated_duration() {
        let mut e = ideal_engine(&[68]);
        let desc = conv_kernel(1e6);
        let expected = e.estimate_isolated(ContextId(0), &desc);
        e.submit(ContextId(0), StreamClass::High, desc).unwrap();
        let ev = e.run_next().unwrap();
        let got = ev.finished_at.duration_since(ev.submitted_at);
        let diff = got.as_nanos().abs_diff(expected.as_nanos());
        assert!(diff <= 2, "expected {expected}, got {got}");
    }

    #[test]
    fn more_sms_finish_faster() {
        let run = |sms: u32| {
            let mut e = ideal_engine(&[sms]);
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.run_next().unwrap().finished_at
        };
        assert!(run(68) < run(34));
        assert!(run(34) < run(17));
    }

    #[test]
    fn two_kernels_in_one_context_share_sms() {
        let mut e = ideal_engine(&[68]);
        // Two identical kernels on equal-weight streams should each see
        // half the SMs and finish together, later than one alone would.
        let mut solo = ideal_engine(&[68]);
        solo.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let solo_t = solo.run_next().unwrap().finished_at;

        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].finished_at > solo_t);
        assert_eq!(evs[0].finished_at, evs[1].finished_at);
    }

    #[test]
    fn high_priority_stream_gets_larger_share() {
        let mut e = ideal_engine(&[68]);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        e.submit(ContextId(0), StreamClass::Low, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        let high = evs.iter().find(|e| e.stream.index < 2).unwrap();
        let low = evs.iter().find(|e| e.stream.index >= 2).unwrap();
        assert!(
            high.finished_at < low.finished_at,
            "high stream must finish first"
        );
    }

    #[test]
    fn no_idle_stream_is_reported() {
        let mut e = ideal_engine(&[68]);
        for _ in 0..2 {
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
                .unwrap();
        }
        let err = e
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap_err();
        assert!(matches!(err, GpuSimError::NoIdleStream { .. }));
        // Low class still has slots.
        assert!(e
            .submit(ContextId(0), StreamClass::Low, conv_kernel(1e6))
            .is_ok());
    }

    #[test]
    fn unknown_context_is_an_error() {
        let mut e = ideal_engine(&[68]);
        let err = e
            .submit(ContextId(5), StreamClass::High, conv_kernel(1e6))
            .unwrap_err();
        assert!(matches!(err, GpuSimError::UnknownContext { context: 5 }));
    }

    #[test]
    fn oversubscription_is_free_while_occupancy_fits() {
        // Two 68-SM contexts on a 68-SM device, one conv kernel each.
        // Each kernel occupies only s(68) = 32 SM-equivalents, so the
        // device can serve both at full speed: over-subscription harvests
        // the idle cycles a hard spatial split would waste (§V).
        let mut over = ideal_engine(&[68, 68]);
        over.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        over.submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let over_done = over.drain().last().unwrap().finished_at;

        // Same work on two half-GPU contexts: no overcommit, but each
        // kernel is capped at s(34) < s(68).
        let mut split = ideal_engine(&[34, 34]);
        split
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        split
            .submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let split_done = split.drain().last().unwrap().finished_at;
        assert!(
            over_done < split_done,
            "over-subscription should win while occupancy fits: {over_done} vs {split_done}"
        );
    }

    #[test]
    fn occupancy_overflow_triggers_contention() {
        // Saturate two 68-SM contexts with four conv kernels each:
        // occupancy = 8·s(17) ≈ 106 SM-equivalents > 68, so everyone is
        // throttled. The same saturated workload under a model with no
        // efficiency loss must finish strictly earlier than under the
        // lossy calibrated model — the loss is the price of overcommit.
        let run = |model: ContentionModel| {
            let mut e = GpuEngine::builder(quiet_spec())
                .contention_model(model)
                .context(ContextConfig::new(68))
                .context(ContextConfig::new(68))
                .build();
            for ctx in 0..2 {
                for class in [StreamClass::High, StreamClass::High, StreamClass::Low, StreamClass::Low] {
                    e.submit(ContextId(ctx), class, conv_kernel(1e7)).unwrap();
                }
            }
            e.drain().last().unwrap().finished_at
        };
        let ideal = run(ContentionModel::ideal());
        let lossy = run(ContentionModel {
            efficiency_loss: 0.5,
            base_jitter: 0.0,
            contention_jitter: 0.0,
        });
        assert!(lossy > ideal, "efficiency loss must slow the saturated pool");
    }

    #[test]
    fn oversubscription_wins_when_the_peer_context_is_idle() {
        // With 2× over-subscription, a context whose peer is idle enjoys
        // the whole GPU — this is where SGPRS's FPS gains come from.
        let mut over = ideal_engine(&[68, 68]);
        over.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let over_done = over.drain().last().unwrap().finished_at;

        let mut split = ideal_engine(&[34, 34]);
        split
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let split_done = split.drain().last().unwrap().finished_at;
        assert!(over_done < split_done);
    }

    #[test]
    fn advance_to_without_completions_just_moves_time() {
        let mut e = ideal_engine(&[68]);
        let mut evs = Vec::new();
        e.advance_to(SimTime::from_nanos(1_000), &mut evs);
        assert!(evs.is_empty());
        assert_eq!(e.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn advance_to_past_is_a_no_op() {
        let mut e = ideal_engine(&[68]);
        let mut evs = Vec::new();
        e.advance_to(SimTime::from_nanos(1_000), &mut evs);
        e.advance_to(SimTime::from_nanos(500), &mut evs);
        assert!(evs.is_empty());
        assert_eq!(e.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn rate_change_mid_flight_is_accounted() {
        // Kernel A runs alone for a while, then B joins; A must finish
        // later than isolated but earlier than if B had been there all
        // along.
        let mut e = ideal_engine(&[68]);
        let a = e
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let iso = e.estimate_isolated(ContextId(0), &conv_kernel(1e7));
        let half = SimTime::from_nanos(iso.as_nanos() / 2);
        e.advance_to(half, &mut Vec::new());
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        let a_done = evs.iter().find(|ev| ev.kernel == a).unwrap().finished_at;
        assert!(a_done > SimTime::ZERO + iso);
        assert!(a_done < SimTime::ZERO + iso * 2);
    }

    #[test]
    fn busy_fraction_tracks_idle_time() {
        let mut e = ideal_engine(&[68]);
        e.advance_to(SimTime::from_nanos(1_000_000), &mut Vec::new());
        assert_eq!(e.busy_fraction(ContextId(0)), 0.0);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        e.drain();
        assert!(e.busy_fraction(ContextId(0)) > 0.0);
        assert!(e.busy_fraction(ContextId(0)) < 1.0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut e = GpuEngine::builder(quiet_spec())
                .seed(seed)
                .context(ContextConfig::new(68))
                .context(ContextConfig::new(68))
                .build();
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.drain().last().unwrap().finished_at
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn snapshot_reflects_occupancy() {
        let mut e = ideal_engine(&[68]);
        let s = e.snapshot(ContextId(0));
        assert!(s.is_idle());
        assert_eq!(s.idle_high, 2);
        assert_eq!(s.idle_low, 2);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        let s = e.snapshot(ContextId(0));
        assert_eq!(s.resident, 1);
        assert_eq!(s.idle_high, 1);
        assert_eq!(s.idle_low, 2);
    }

    #[test]
    fn extra_ns_lengthens_the_kernel() {
        let mut plain = ideal_engine(&[68]);
        plain
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        let plain_done = plain.run_next().unwrap().finished_at;

        let mut taxed = ideal_engine(&[68]);
        taxed
            .submit(
                ContextId(0),
                StreamClass::High,
                conv_kernel(1e6).with_extra_ns(500_000.0),
            )
            .unwrap();
        let taxed_done = taxed.run_next().unwrap().finished_at;
        let diff = taxed_done.duration_since(plain_done);
        let err = diff.as_nanos().abs_diff(500_000);
        assert!(err <= 2, "extra 0.5ms expected, got {diff}");
    }

    #[test]
    fn completed_count_accumulates() {
        let mut e = ideal_engine(&[68]);
        for _ in 0..3 {
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e5))
                .unwrap();
            e.run_next().unwrap();
        }
        assert_eq!(e.completed_count(), 3);
    }
}
