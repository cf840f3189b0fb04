//! Fleet observability: windowed time-series, mergeable quantile
//! sketches, and a deterministic decision trace.
//!
//! [`crate::FleetMetrics`] answers *what happened over the whole run*;
//! this module answers *what happened when, where, and why* — without
//! giving up the fleet's determinism contract or more than O(1) memory
//! per node. Three pillars:
//!
//! * **Windowed time-series** (`window`) — simulated time is cut into
//!   fixed [`TelemetryConfig::window`] intervals, each accumulating the
//!   dispatch activity that fell inside it (admissions, rejections,
//!   deferrals, re-pricing steps, migrations), the peak wait-queue
//!   depth, and the mean sampled fleet utilisation.
//! * **Quantile sketches** (`sketch`) — fixed-size, integer-centroid,
//!   deterministic [`QuantileSketch`]es for the queue-wait and
//!   job-latency distributions, exporting p50/p90/p99 per window and
//!   run-wide. Per-node latency sketches are merged in ascending node
//!   index, and per-window wait sketches in window order, so the export
//!   is byte-identical across worker counts.
//! * **Decision trace** (`trace`) — an opt-in ring buffer of
//!   [`TraceEvent`]s (dispatch verdict with cause and shard-probe
//!   count, queue admission/expiry, re-pricing ladder steps, migration
//!   victim/destination/stall, departures) plus hot-path profiling
//!   counters. Deterministic counters land in the JSON profile block;
//!   wall-clock histograms stay out of the export and are read through
//!   [`crate::Fleet::span_profile`].
//! * **Span profiler** (`prof`) — an independently armed
//!   ([`crate::FleetConfig::with_profiling`]) wall-clock profiler over
//!   the simulator's *own* hot paths ([`Span`]): per-span call counts
//!   and log2 latency histograms, zero-cost when off, exported only via
//!   the `BENCH_*.json` perf sidecars.
//!
//! Everything records on the single-threaded orchestration path of both
//! engines (the epoch path's accounting helpers and fold loop, the
//! event engine's handlers), never inside the parallel per-node fan-out
//! — which is what makes the output a deterministic function of
//! `(config, trace, horizon)`.
//!
//! Telemetry is **off by default** ([`TelemetryConfig::disabled`]) and
//! the off path is zero-cost on the export: a run without telemetry
//! renders byte-identical JSON to the pre-telemetry schema (see
//! [`crate::METRICS_SCHEMA_VERSION`]).

mod prof;
mod sketch;
mod trace;
mod window;

pub use prof::{Span, SpanProfile, SpanStats, PLAN_LATENCY_BINS, SPAN_COUNT};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY, RANK_ERROR_NUMERATOR};
pub use trace::{ArrivalVerdict, TraceEvent};

use crate::DispatchOutcome;
use prof::SpanProfiler;
use sgprs_rt::{SimDuration, SimTime};
use trace::{ProfileCounters, TraceRing};
use window::{WindowSeries, WindowStats};

/// Telemetry knobs on [`crate::FleetConfig`]. Disabled by default; see
/// the module docs for what enabling buys.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch. Off ([`TelemetryConfig::disabled`], the default)
    /// means no telemetry state is allocated, no hook records anything,
    /// and the JSON export is byte-identical to the pre-telemetry
    /// schema.
    pub enabled: bool,
    /// Time-series window length (250 ms by default).
    pub window: SimDuration,
    /// Decision-trace ring capacity; 0 (the default) keeps the trace
    /// off even when telemetry is enabled.
    pub trace_capacity: usize,
    /// Arms the span-scoped hot-path profiler ([`SpanProfile`]) for the
    /// run. Independent of `enabled` — profiling works with the
    /// simulated-fleet telemetry fully off — and off by default: the
    /// profiler is never even constructed unless this is set.
    pub profiling: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

impl TelemetryConfig {
    /// The default: telemetry fully off.
    #[must_use]
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            window: SimDuration::from_millis(250),
            trace_capacity: 0,
            profiling: false,
        }
    }

    /// Telemetry on, with time-series windows of the given length and no
    /// decision trace.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn windowed(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "telemetry window must be positive");
        TelemetryConfig {
            enabled: true,
            window,
            ..TelemetryConfig::disabled()
        }
    }

    /// Enables the decision trace with the given ring capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Arms the span-scoped hot-path profiler (see [`SpanProfile`]).
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }
}

/// Quantile summary of one sketch, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSummary {
    /// Samples observed.
    pub count: u64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observed sample, milliseconds.
    pub max_ms: f64,
}

impl SketchSummary {
    fn from_sketch(s: &QuantileSketch) -> Self {
        let ms = |ns: u64| ns as f64 / 1e6;
        SketchSummary {
            count: s.count(),
            p50_ms: ms(s.quantile(0.50)),
            p90_ms: ms(s.quantile(0.90)),
            p99_ms: ms(s.quantile(0.99)),
            max_ms: ms(s.max()),
        }
    }

    fn render_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
            self.count, self.p50_ms, self.p90_ms, self.p99_ms, self.max_ms
        )
    }
}

/// One time-series window of the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window start, seconds from the run origin.
    pub start_secs: f64,
    /// Arrivals dispatched inside the window.
    pub arrivals: u64,
    /// Arrivals admitted immediately (full rate or degraded).
    pub admitted: u64,
    /// Re-pricing ladder admissions (at arrival or out of the queue).
    pub degraded: u64,
    /// Arrivals deferred to the wait queue.
    pub deferred: u64,
    /// Arrivals dropped as latency-infeasible.
    pub infeasible: u64,
    /// Arrivals rejected as duplicate names.
    pub duplicates: u64,
    /// This run's deferrals admitted out of the queue.
    pub admitted_after_wait: u64,
    /// Waiters expired (patience and demand-aware together).
    pub expired: u64,
    /// Re-pricing ladder steps back up.
    pub upgrades: u64,
    /// Successful migrations.
    pub migrations: u64,
    /// Departures applied.
    pub departures: u64,
    /// Peak wait-queue depth observed after any queue mutation.
    pub queue_depth_peak: u64,
    /// Mean of the utilisation samples that landed in the window.
    pub utilization_mean: f64,
    /// Queue waits of deferrals admitted inside the window.
    pub wait: SketchSummary,
}

/// Deterministic hot-path profile counters of the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Placement plans evaluated (arrival dispatch + queue drains).
    pub plans: u64,
    /// Placement-scan probes spent across all plans: one per probed
    /// shard, one per flat whole-fleet scan.
    pub shard_probes: u64,
    /// Drain passes that actually scanned the queue.
    pub drain_scans: u64,
    /// Event-queue pushes + pops (0 on the epoch path).
    pub event_queue_ops: u64,
    /// Decision-trace events recorded.
    pub trace_recorded: u64,
    /// Decision-trace events dropped by the ring (oldest-first).
    pub trace_dropped: u64,
}

/// The finished telemetry of one run, carried on
/// [`crate::FleetMetrics::telemetry`] and rendered into the schema-v3
/// JSON export.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Time-series window length, seconds.
    pub window_secs: f64,
    /// The time-series windows, in order from the run origin. Trailing
    /// fully idle windows are not materialised.
    pub windows: Vec<WindowReport>,
    /// Run-wide queue-wait distribution: the per-window sketches merged
    /// in window order.
    pub queue_wait: SketchSummary,
    /// Run-wide job-latency (response-time) distribution: the per-node
    /// sketches merged in ascending node index.
    pub job_latency: SketchSummary,
    /// Deterministic hot-path profile counters.
    pub profile: ProfileReport,
    /// Whether the decision trace was enabled (capacity > 0); gates the
    /// `trace` block in the JSON export.
    pub trace_enabled: bool,
    /// Rendered decision-trace lines, oldest first (empty when the trace
    /// is off).
    pub trace: Vec<String>,
}

impl TelemetryReport {
    /// The peak wait-queue depth across all windows.
    #[must_use]
    pub fn peak_queue_depth(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.queue_depth_peak)
            .max()
            .unwrap_or(0)
    }

    /// Renders the report as the `"telemetry"` member of the metrics
    /// JSON export (hand-rolled like the rest of
    /// [`crate::FleetMetrics::to_json`]), including the trailing comma.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1_024);
        out.push_str("  \"telemetry\": {\n");
        out.push_str(&format!("    \"window_secs\": {:.3},\n", self.window_secs));
        out.push_str(&format!(
            "    \"queue_wait_ms\": {},\n",
            self.queue_wait.render_json()
        ));
        out.push_str(&format!(
            "    \"job_latency_ms\": {},\n",
            self.job_latency.render_json()
        ));
        out.push_str(&format!(
            "    \"profile\": {{\"plans\": {}, \"shard_probes\": {}, \"drain_scans\": {}, \"event_queue_ops\": {}, \"trace_recorded\": {}, \"trace_dropped\": {}}},\n",
            self.profile.plans,
            self.profile.shard_probes,
            self.profile.drain_scans,
            self.profile.event_queue_ops,
            self.profile.trace_recorded,
            self.profile.trace_dropped
        ));
        out.push_str("    \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"start_secs\": {:.3}, \"arrivals\": {}, \"admitted\": {}, \"degraded\": {}, \"deferred\": {}, \"infeasible\": {}, \"duplicates\": {}, \"admitted_after_wait\": {}, \"expired\": {}, \"upgrades\": {}, \"migrations\": {}, \"departures\": {}, \"queue_depth_peak\": {}, \"utilization_mean\": {:.4}, \"wait_ms\": {}}}",
                w.start_secs,
                w.arrivals,
                w.admitted,
                w.degraded,
                w.deferred,
                w.infeasible,
                w.duplicates,
                w.admitted_after_wait,
                w.expired,
                w.upgrades,
                w.migrations,
                w.departures,
                w.queue_depth_peak,
                w.utilization_mean,
                w.wait.render_json()
            ));
            if i + 1 < self.windows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ]");
        if self.trace_enabled {
            out.push_str(",\n    \"trace\": [\n");
            for (i, line) in self.trace.iter().enumerate() {
                out.push_str(&format!("      \"{}\"", crate::metrics::json_escape(line)));
                if i + 1 < self.trace.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("    ]");
        }
        out.push_str("\n  },\n");
        out
    }
}

/// The live telemetry recorder owned by [`crate::Fleet`]: every hook is
/// a no-op until a run begins with telemetry enabled, which is what
/// keeps the disabled path zero-cost.
#[derive(Debug)]
pub(crate) struct Telemetry {
    cfg: TelemetryConfig,
    state: Option<State>,
    /// The span profiler of the *current* run; `Some` only between
    /// `begin_run`/`begin_profile` and `finish_profile` of a
    /// profiling-armed run — never constructed otherwise.
    prof: Option<SpanProfiler>,
    /// The finished profile of the last profiling-armed run (kept
    /// outside the report: real time is not deterministic).
    last_profile: Option<SpanProfile>,
}

#[derive(Debug)]
struct State {
    series: WindowSeries,
    node_latency: Vec<QuantileSketch>,
    trace: TraceRing,
    profile: ProfileCounters,
}

impl Telemetry {
    pub(crate) fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            state: None,
            prof: None,
            last_profile: None,
        }
    }

    /// Whether telemetry is configured on (hooks may still no-op before
    /// `begin_run`).
    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Arms the recorder for a run over `n_nodes` nodes until `horizon`.
    /// A no-op (and a disarm) when telemetry is off.
    pub(crate) fn begin_run(&mut self, n_nodes: usize, horizon: SimDuration) {
        self.begin_profile();
        if !self.cfg.enabled {
            self.state = None;
            return;
        }
        self.state = Some(State {
            series: WindowSeries::new(self.cfg.window, horizon),
            node_latency: (0..n_nodes)
                .map(|_| QuantileSketch::new(DEFAULT_SKETCH_CAPACITY))
                .collect(),
            trace: TraceRing::new(self.cfg.trace_capacity),
            profile: ProfileCounters::default(),
        });
    }

    /// Arms the span profiler alone (the non-`run` surfaces —
    /// `replay_dispatch` — call this instead of `begin_run`). The
    /// profiler is constructed *only* here and *only* when configured
    /// on; the zero-cost-off contract hangs on that.
    pub(crate) fn begin_profile(&mut self) {
        self.prof = self.cfg.profiling.then(SpanProfiler::new);
    }

    /// A wall clock for timing one span: `Some` iff the profiler is
    /// armed, so the disabled path never reads the clock.
    pub(crate) fn prof_clock(&self) -> Option<std::time::Instant> {
        self.prof.as_ref().map(|_| SpanProfiler::clock())
    }

    /// Ends one span measurement started at `clock` (a no-op whenever
    /// either side is disarmed).
    pub(crate) fn prof_record(&mut self, span: Span, clock: Option<std::time::Instant>) {
        if let (Some(prof), Some(started)) = (self.prof.as_mut(), clock) {
            prof.record(span, started);
        }
    }

    /// Snapshots the current run's profile into [`Self::span_profile`].
    /// `finish_report` calls it; `replay_dispatch` calls it directly.
    pub(crate) fn finish_profile(&mut self) {
        if let Some(prof) = self.prof.take() {
            self.last_profile = Some(prof.into_profile());
        }
    }

    /// Accounts one `plan_repriced` invocation: the shard probes it
    /// spent (telemetry) and, when `clock` was armed, its wall-clock
    /// latency (the [`Span::Plan`] span).
    pub(crate) fn note_plan(&mut self, probes: u64, clock: Option<std::time::Instant>) {
        if let Some(state) = self.state.as_mut() {
            state.profile.plans += 1;
            state.profile.shard_probes += probes;
        }
        self.prof_record(Span::Plan, clock);
    }

    /// Accounts one drain pass that actually scanned the queue.
    pub(crate) fn note_drain_scan(&mut self) {
        if let Some(state) = self.state.as_mut() {
            state.profile.drain_scans += 1;
        }
    }

    /// Accounts the event queue's push+pop total (event engine only).
    pub(crate) fn note_event_ops(&mut self, ops: u64) {
        if let Some(state) = self.state.as_mut() {
            state.profile.event_queue_ops += ops;
        }
    }

    /// Records a dispatched arrival: verdict counters, queue depth, and
    /// (when tracing) the decision with its cause and probe count.
    pub(crate) fn record_arrival(
        &mut self,
        at: SimTime,
        name: &str,
        outcome: &DispatchOutcome,
        probes: u64,
        queue_depth: usize,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let w = state.series.at(at);
        w.arrivals += 1;
        match outcome {
            DispatchOutcome::Placed(_) => w.admitted += 1,
            DispatchOutcome::PlacedDegraded { .. } => {
                w.admitted += 1;
                w.degraded += 1;
            }
            DispatchOutcome::Queued => w.deferred += 1,
            DispatchOutcome::Infeasible => w.infeasible += 1,
            DispatchOutcome::Duplicate => w.duplicates += 1,
        }
        w.note_queue_depth(queue_depth as u64);
        if state.trace.enabled() {
            let verdict = match outcome {
                DispatchOutcome::Placed(node) => ArrivalVerdict::Placed { node: *node },
                DispatchOutcome::PlacedDegraded { node, fps } => {
                    ArrivalVerdict::PlacedDegraded {
                        node: *node,
                        fps: *fps,
                    }
                }
                DispatchOutcome::Queued => ArrivalVerdict::Queued,
                DispatchOutcome::Infeasible => ArrivalVerdict::Infeasible,
                DispatchOutcome::Duplicate => ArrivalVerdict::Duplicate,
            };
            state.trace.push(TraceEvent::Arrival {
                at,
                tenant: name.to_string(),
                verdict,
                probes,
            });
        }
    }

    /// Records one admission out of the wait queue. `counted` mirrors the
    /// builder's contract: only this run's deferrals feed the wait
    /// statistics (pre-run carry-overs are traced but not counted).
    pub(crate) fn record_queue_admit(
        &mut self,
        at: SimTime,
        name: &str,
        degraded: bool,
        waited: SimDuration,
        counted: bool,
        queue_depth: usize,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let w = state.series.at(at);
        if degraded {
            w.degraded += 1;
        }
        if counted {
            w.admitted_after_wait += 1;
            w.wait.add(waited.as_nanos());
        }
        w.note_queue_depth(queue_depth as u64);
        if state.trace.enabled() {
            state.trace.push(TraceEvent::QueueAdmit {
                at,
                tenant: name.to_string(),
                degraded,
                waited,
            });
        }
    }

    /// Records one waiter expiry (patience or demand-aware hopeless).
    pub(crate) fn record_expired(
        &mut self,
        at: SimTime,
        name: &str,
        hopeless: bool,
        queue_depth: usize,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let w = state.series.at(at);
        w.expired += 1;
        w.note_queue_depth(queue_depth as u64);
        if state.trace.enabled() {
            state.trace.push(TraceEvent::QueueExpire {
                at,
                tenant: name.to_string(),
                hopeless,
            });
        }
    }

    /// Records one re-pricing upgrade step.
    pub(crate) fn record_upgrade(&mut self, at: SimTime, name: &str, fps: f64) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        state.series.at(at).upgrades += 1;
        if state.trace.enabled() {
            state.trace.push(TraceEvent::Upgrade {
                at,
                tenant: name.to_string(),
                fps,
            });
        }
    }

    /// Records one migration attempt (successful when `to` is set).
    pub(crate) fn record_migration(
        &mut self,
        at: SimTime,
        name: &str,
        from: usize,
        to: Option<usize>,
        stall: SimDuration,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        if to.is_some() {
            state.series.at(at).migrations += 1;
        }
        if state.trace.enabled() {
            state.trace.push(TraceEvent::Migration {
                at,
                tenant: name.to_string(),
                from,
                to,
                stall,
            });
        }
    }

    /// Records one departure.
    pub(crate) fn record_departure(
        &mut self,
        at: SimTime,
        name: &str,
        resident: bool,
        queue_depth: usize,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let w = state.series.at(at);
        w.departures += 1;
        w.note_queue_depth(queue_depth as u64);
        if state.trace.enabled() {
            state.trace.push(TraceEvent::Departure {
                at,
                tenant: name.to_string(),
                resident,
            });
        }
    }

    /// Folds one fleet-utilisation sample (recorded per node in
    /// ascending index order by both engines).
    pub(crate) fn record_utilization(&mut self, at: SimTime, utilization: f64) {
        if let Some(state) = self.state.as_mut() {
            state.series.at(at).record_utilization(utilization);
        }
    }

    /// Feeds job-latency samples of node `node` (the epoch fold's
    /// response samples, already in ascending-node-index order).
    pub(crate) fn record_latency_samples(&mut self, node: usize, samples_ns: &[u64]) {
        if let Some(state) = self.state.as_mut() {
            for &ns in samples_ns {
                state.node_latency[node].add(ns);
            }
        }
    }

    /// Feeds one job-latency sample of node `node` (event path).
    pub(crate) fn record_latency(&mut self, node: usize, latency_ns: u64) {
        if let Some(state) = self.state.as_mut() {
            state.node_latency[node].add(latency_ns);
        }
    }

    /// The span profile of the last finished run (`None` when profiling
    /// was off — the profiler is never constructed on that path).
    pub(crate) fn span_profile(&self) -> Option<&SpanProfile> {
        self.last_profile.as_ref()
    }

    /// Finalises the run: folds the telemetry into a [`TelemetryReport`]
    /// (or `None` when telemetry was off) and snapshots the span
    /// profile.
    pub(crate) fn finish_report(&mut self) -> Option<TelemetryReport> {
        let report = self.fold_report();
        self.finish_profile();
        report
    }

    /// The report fold proper, timed as the [`Span::TelemetryFold`]
    /// span: merges the per-window wait sketches in window order and the
    /// per-node latency sketches in ascending node index — the
    /// deterministic fold.
    fn fold_report(&mut self) -> Option<TelemetryReport> {
        let state = self.state.take()?;
        let fold_clock = self.prof_clock();
        let window = state.series.window();
        let mut queue_wait = QuantileSketch::new(DEFAULT_SKETCH_CAPACITY);
        // Window order — the deterministic fold.
        for w in state.series.windows() {
            queue_wait.merge(&w.wait);
        }
        let mut job_latency = QuantileSketch::new(DEFAULT_SKETCH_CAPACITY);
        // Ascending node-index order — the deterministic fold.
        for s in &state.node_latency {
            job_latency.merge(s);
        }
        let windows = state
            .series
            .windows()
            .iter()
            .enumerate()
            .map(|(i, w)| window_report(i, window, w))
            .collect();
        let report = TelemetryReport {
            window_secs: window.as_secs_f64(),
            windows,
            queue_wait: SketchSummary::from_sketch(&queue_wait),
            job_latency: SketchSummary::from_sketch(&job_latency),
            profile: ProfileReport {
                plans: state.profile.plans,
                shard_probes: state.profile.shard_probes,
                drain_scans: state.profile.drain_scans,
                event_queue_ops: state.profile.event_queue_ops,
                trace_recorded: state.trace.recorded(),
                trace_dropped: state.trace.dropped(),
            },
            trace_enabled: self.cfg.trace_capacity > 0,
            trace: state.trace.events().map(TraceEvent::render).collect(),
        };
        self.prof_record(Span::TelemetryFold, fold_clock);
        Some(report)
    }
}

fn window_report(index: usize, window: SimDuration, w: &WindowStats) -> WindowReport {
    WindowReport {
        start_secs: window.as_secs_f64() * index as f64,
        arrivals: w.arrivals,
        admitted: w.admitted,
        degraded: w.degraded,
        deferred: w.deferred,
        infeasible: w.infeasible,
        duplicates: w.duplicates,
        admitted_after_wait: w.admitted_after_wait,
        expired: w.expired,
        upgrades: w.upgrades,
        migrations: w.migrations,
        departures: w.departures,
        queue_depth_peak: w.queue_depth_peak,
        utilization_mean: w.utilization_mean(),
        wait: SketchSummary::from_sketch(&w.wait),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disabled_telemetry_records_and_reports_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.begin_run(4, SimDuration::from_secs(1));
        t.record_arrival(at(10), "a", &DispatchOutcome::Placed(0), 0, 0);
        t.record_utilization(at(100), 0.5);
        assert!(t.finish_report().is_none());
    }

    #[test]
    fn report_folds_windows_and_sketches() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(250)).with_trace(8);
        let mut t = Telemetry::new(cfg);
        t.begin_run(2, SimDuration::from_secs(1));
        t.record_arrival(at(10), "a", &DispatchOutcome::Placed(0), 2, 0);
        t.record_arrival(at(300), "b", &DispatchOutcome::Queued, 1, 1);
        t.record_queue_admit(
            at(600),
            "b",
            false,
            SimDuration::from_millis(300),
            true,
            0,
        );
        t.record_latency(0, 5_000_000);
        t.record_latency(1, 9_000_000);
        t.record_utilization(at(999), 0.75);
        let r = t.finish_report().expect("enabled run reports");
        assert_eq!(r.windows.len(), 4, "activity reached the 0.75s window");
        assert_eq!(r.windows[0].arrivals, 1);
        assert_eq!(r.windows[1].deferred, 1);
        assert_eq!(r.windows[1].queue_depth_peak, 1);
        assert_eq!(r.windows[2].admitted_after_wait, 1);
        assert_eq!(r.queue_wait.count, 1);
        assert!((r.queue_wait.p50_ms - 300.0).abs() < 1e-9);
        assert_eq!(r.job_latency.count, 2, "both nodes' sketches merged");
        assert!(r.job_latency.max_ms > 8.9);
        assert_eq!(r.profile.shard_probes, 0, "probes are planner-fed, not arrival-fed");
        assert_eq!(r.profile.trace_recorded, 3);
        assert_eq!(r.peak_queue_depth(), 1);
        assert_eq!(r.trace.len(), 3);
        assert!(r.trace_enabled);
    }

    #[test]
    fn report_json_is_balanced_and_versionable() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(500)).with_trace(4);
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        t.record_arrival(at(1), "a\"quote", &DispatchOutcome::Infeasible, 0, 0);
        let r = t.finish_report().expect("report");
        let json = r.render_json();
        assert!(json.starts_with("  \"telemetry\": {"));
        assert!(json.ends_with("},\n"), "trailing comma chains into the next field");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"window_secs\": 0.500"));
        assert!(json.contains("\"infeasible\": 1"));
        assert!(json.contains("\\\"quote"), "trace lines are escaped");
    }

    #[test]
    fn traceless_report_omits_the_trace_block() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(500));
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        t.record_arrival(at(1), "a", &DispatchOutcome::Placed(0), 0, 0);
        let r = t.finish_report().expect("report");
        assert!(!r.trace_enabled);
        assert!(!r.render_json().contains("\"trace\""));
    }

    #[test]
    fn note_plan_accumulates_probes_and_wall_time() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(250)).with_profiling();
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        let clock = t.prof_clock();
        assert!(clock.is_some());
        t.note_plan(3, clock);
        t.note_plan(2, None);
        let r = t.finish_report().expect("report");
        assert_eq!(r.profile.plans, 2);
        assert_eq!(r.profile.shard_probes, 5);
        let profile = t.span_profile().expect("profiling was armed");
        assert_eq!(profile.calls(Span::Plan), 1, "only the clocked plan spans");
        assert_eq!(
            profile.wall_hist(Span::Plan).iter().sum::<u64>(),
            1,
            "one timed plan landed"
        );
        assert_eq!(
            profile.calls(Span::TelemetryFold),
            1,
            "the report fold timed itself"
        );
    }

    #[test]
    fn profiler_arms_without_telemetry_and_never_constructs_when_off() {
        // Profiling alone: no telemetry state, no report — but spans land.
        let mut t = Telemetry::new(TelemetryConfig::disabled().with_profiling());
        t.begin_run(1, SimDuration::from_secs(1));
        let clock = t.prof_clock();
        assert!(clock.is_some(), "profiler armed without telemetry");
        t.prof_record(Span::EventPop, clock);
        t.note_plan(7, t.prof_clock());
        assert!(t.finish_report().is_none(), "telemetry stays off");
        let profile = t.span_profile().expect("profile survives a report-less run");
        assert_eq!(profile.calls(Span::EventPop), 1);
        assert_eq!(profile.calls(Span::Plan), 1);
        assert_eq!(profile.calls(Span::TelemetryFold), 0, "no fold ran");

        // Fully off: the profiler is never constructed and no clock is read.
        let mut off = Telemetry::new(TelemetryConfig::windowed(SimDuration::from_millis(250)));
        off.begin_run(1, SimDuration::from_secs(1));
        assert!(off.prof_clock().is_none(), "no clock without profiling");
        assert!(off.finish_report().is_some());
        assert!(off.span_profile().is_none(), "profiler never constructed");
    }
}
