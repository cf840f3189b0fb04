//! The machine-readable bench report: schema, allocation accounting,
//! and the regression gate.
//!
//! Every fleet-scale bench bin (`fleet`, `fleet_stream`,
//! `fleet_events_perf`) finishes by writing a `BENCH_<bin>.json`
//! sidecar rendered from a [`BenchReport`]: scenario identity, engine,
//! wall-clock throughput, the per-span profiler histograms
//! ([`sgprs_cluster::SpanProfile`]), and allocation stats from the
//! [`CountingAlloc`] global allocator — allocs/event is the headline
//! number ROADMAP item 2 optimises against.
//!
//! The report is a *sidecar*: the deterministic simulation output stays
//! byte-identical run to run, while this file carries the fields that
//! legitimately vary (wall time) next to the fields that must not
//! (span call counts, events simulated, allocation counts on the
//! single-threaded event path). [`gate_against_baseline`] is the CI
//! regression gate built on that split — deterministic counters compare
//! exactly and fail hard, wall-clock fields compare within a generous
//! factor and only warn.

use sgprs_cluster::{Span, SpanProfile, PLAN_LATENCY_BINS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamped into every report as `schema_version`; bump on any
/// field change so downstream tooling can reject reports it does not
/// understand. v2: the `wheel_cascade` span row joined `spans` when the
/// event queue became a timing wheel.
pub const BENCH_REPORT_SCHEMA_VERSION: u32 = 2;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Bench bins install
/// it as their `#[global_allocator]`; [`AllocStats::snapshot`] then
/// reads the counters (and stays all-zero in processes that never
/// installed it). Counting uses relaxed atomics — the bins measure on
/// one thread, and approximate interleaving would only ever smear
/// counts across concurrent phases, never lose them.
pub struct CountingAlloc;

// The one justified `unsafe` in this crate: `GlobalAlloc` is an unsafe
// trait by contract. The impl adds no invariants of its own — it counts
// and delegates every call verbatim to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the [`CountingAlloc`] counters. Monotone: every field
/// only grows over a process's lifetime, so deltas via
/// [`AllocStats::since`] are always well-defined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations performed.
    pub allocs: u64,
    /// Heap deallocations performed.
    pub deallocs: u64,
    /// Reallocations (growth/shrink in place or by move).
    pub reallocs: u64,
    /// Bytes requested across allocations and growth reallocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Reads the live counters (all zero unless [`CountingAlloc`] is the
    /// process's global allocator).
    #[must_use]
    pub fn snapshot() -> Self {
        AllocStats {
            allocs: ALLOCS.load(Ordering::Relaxed),
            deallocs: DEALLOCS.load(Ordering::Relaxed),
            reallocs: REALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// The delta from an `earlier` snapshot to this one.
    #[must_use]
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            reallocs: self.reallocs.saturating_sub(earlier.reallocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// One span's row in the report: its stable name, the (deterministic)
/// call count, and the (wall-clock) log2 latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// The span's stable lower-snake name ([`Span::name`]).
    pub span: &'static str,
    /// Times the span executed — deterministic, gated exactly.
    pub calls: u64,
    /// Wall-clock latency histogram, log2 ns buckets — never gated.
    pub wall_hist: [u64; PLAN_LATENCY_BINS],
}

/// The versioned, machine-readable result of one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Emitting binary (`fleet`, `fleet_stream`, `fleet_events_perf`).
    pub bin: String,
    /// Scenario label, e.g. `metro-scale x256 churn+bursts [p2c/8]`.
    pub scenario: String,
    /// Execution mode: `event`, `epoch`, or `dispatch-replay`.
    pub engine: String,
    /// Fleet size in nodes.
    pub nodes: u64,
    /// Tenant arrivals offered by the scenario (deterministic).
    pub tenants: u64,
    /// Events processed: heap pops plus stream pulls on the event path,
    /// stream pulls alone on the replay path (deterministic).
    pub events: u64,
    /// Measured wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// `tenants / wall seconds`.
    pub arrivals_per_sec: f64,
    /// Allocation delta across the measured run ([`AllocStats::since`]).
    pub alloc: AllocStats,
    /// Per-span profiler rows, in [`Span::ALL`] order.
    pub spans: Vec<SpanReport>,
}

impl BenchReport {
    /// Builds a report from a run's measurements. `wall_ms` feeds the
    /// derived throughput fields; `profile` (from
    /// [`sgprs_cluster::Fleet::span_profile`]) fills the span rows.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bin: &str,
        scenario: &str,
        engine: &str,
        nodes: u64,
        tenants: u64,
        events: u64,
        wall_ms: f64,
        profile: &SpanProfile,
        alloc: AllocStats,
    ) -> Self {
        let wall_secs = (wall_ms / 1e3).max(1e-9);
        BenchReport {
            bin: bin.to_string(),
            scenario: scenario.to_string(),
            engine: engine.to_string(),
            nodes,
            tenants,
            events,
            wall_ms,
            events_per_sec: events as f64 / wall_secs,
            arrivals_per_sec: tenants as f64 / wall_secs,
            alloc,
            spans: Span::ALL
                .iter()
                .map(|&s| SpanReport {
                    span: s.name(),
                    calls: profile.calls(s),
                    wall_hist: *profile.wall_hist(s),
                })
                .collect(),
        }
    }

    /// Allocations per processed event — the headline number the event
    /// hot-path work (ROADMAP item 2) drives down. Deterministic on the
    /// single-threaded event path.
    #[must_use]
    pub fn allocs_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.alloc.allocs as f64 / self.events as f64
        }
    }

    /// Renders the report as pretty-printed JSON (hand-rolled, like the
    /// deterministic fleet export).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2_048);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {BENCH_REPORT_SCHEMA_VERSION},\n"
        ));
        out.push_str(&format!("  \"bin\": \"{}\",\n", escape(&self.bin)));
        out.push_str(&format!("  \"scenario\": \"{}\",\n", escape(&self.scenario)));
        out.push_str(&format!("  \"engine\": \"{}\",\n", escape(&self.engine)));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        out.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        out.push_str(&format!("  \"events\": {},\n", self.events));
        out.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        out.push_str(&format!("  \"events_per_sec\": {:.1},\n", self.events_per_sec));
        out.push_str(&format!(
            "  \"arrivals_per_sec\": {:.1},\n",
            self.arrivals_per_sec
        ));
        out.push_str(&format!(
            "  \"alloc\": {{\"allocs\": {}, \"deallocs\": {}, \"reallocs\": {}, \"bytes\": {}, \"allocs_per_event\": {:.4}}},\n",
            self.alloc.allocs,
            self.alloc.deallocs,
            self.alloc.reallocs,
            self.alloc.bytes,
            self.allocs_per_event()
        ));
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let hist: Vec<String> = s.wall_hist.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    {{\"span\": \"{}\", \"calls\": {}, \"wall_hist\": [{}]}}{}\n",
                s.span,
                s.calls,
                hist.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `BENCH_<bin>.json` in the current directory
    /// and returns the file name.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_sidecar(&self) -> std::io::Result<String> {
        let name = format!("BENCH_{}.json", self.bin);
        std::fs::write(&name, self.to_json())?;
        Ok(name)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extracts the first `"key": <unsigned integer>` field from a rendered
/// report. Schema-coupled by design — a targeted reader for the gate,
/// not a JSON parser.
#[must_use]
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let tail = field_tail(json, key)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts the first `"key": <number>` field as a float.
#[must_use]
pub fn json_f64(json: &str, key: &str) -> Option<f64> {
    let tail = field_tail(json, key)?;
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Extracts the first `"key": "<string>"` field (unescaped values only —
/// report identity fields never need escapes).
#[must_use]
pub fn json_str(json: &str, key: &str) -> Option<String> {
    let tail = field_tail(json, key)?;
    let tail = tail.strip_prefix('"')?;
    Some(tail[..tail.find('"')?].to_string())
}

/// Extracts the `calls` count of the span row named `span`.
#[must_use]
pub fn json_span_calls(json: &str, span: &str) -> Option<u64> {
    let row_start = json.find(&format!("\"span\": \"{span}\""))?;
    json_u64(&json[row_start..], "calls")
}

fn field_tail<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let marker = format!("\"{key}\":");
    let at = json.find(&marker)? + marker.len();
    Some(json[at..].trim_start())
}

/// The result of gating a fresh report against a committed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateOutcome {
    /// Deterministic-counter mismatches: these fail CI.
    pub failures: Vec<String>,
    /// Wall-clock drifts beyond the threshold: these only warn.
    pub warnings: Vec<String>,
}

impl GateOutcome {
    /// Whether the deterministic counters all matched.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates `current` against a committed baseline report (its rendered
/// JSON). Deterministic fields — scenario identity, nodes, tenants,
/// events, per-span call counts, and allocation counts — must match
/// **exactly** (they are pure functions of the configuration on the
/// single-threaded paths the gate runs). Wall-clock fields (`wall_ms`,
/// `events_per_sec`) only warn when they drift beyond `wall_factor`×
/// in either direction, so machine speed never fails CI.
#[must_use]
pub fn gate_against_baseline(
    current: &BenchReport,
    baseline_json: &str,
    wall_factor: f64,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    match json_u64(baseline_json, "schema_version") {
        Some(v) if v == u64::from(BENCH_REPORT_SCHEMA_VERSION) => {}
        got => out.failures.push(format!(
            "schema_version: baseline has {got:?}, this binary writes {BENCH_REPORT_SCHEMA_VERSION} \
             — regenerate the baseline with --write-baseline"
        )),
    }
    for (key, want) in [("scenario", &current.scenario), ("engine", &current.engine)] {
        match json_str(baseline_json, key) {
            Some(have) if have == *want => {}
            have => out.failures.push(format!(
                "{key}: baseline has {have:?}, current run is {want:?} — not comparable"
            )),
        }
    }
    for (key, want) in [
        ("nodes", current.nodes),
        ("tenants", current.tenants),
        ("events", current.events),
        ("allocs", current.alloc.allocs),
    ] {
        match json_u64(baseline_json, key) {
            Some(have) if have == want => {}
            have => out.failures.push(format!(
                "{key}: baseline {have:?} != current {want} (deterministic counter)"
            )),
        }
    }
    for span in &current.spans {
        match json_span_calls(baseline_json, span.span) {
            Some(have) if have == span.calls => {}
            have => out.failures.push(format!(
                "span {} calls: baseline {have:?} != current {} (deterministic counter)",
                span.span, span.calls
            )),
        }
    }
    for (key, want) in [
        ("wall_ms", current.wall_ms),
        ("events_per_sec", current.events_per_sec),
    ] {
        if let Some(have) = json_f64(baseline_json, key) {
            if have > 0.0 && (want > have * wall_factor || want < have / wall_factor) {
                out.warnings.push(format!(
                    "{key}: {want:.1} vs baseline {have:.1} drifts beyond {wall_factor}x \
                     (wall-clock: warning only)"
                ));
            }
        }
    }
    out
}
