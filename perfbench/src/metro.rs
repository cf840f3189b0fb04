//! The two fleet workloads over `FleetScenario::metro_scale`: 10k nodes
//! on the event engine (no telemetry, no profiling) and 512 nodes on
//! the epoch engine with 250 ms telemetry windows.

use crate::stats::fnv1a64;
use sgprs_bench::report::AllocStats;
use sgprs_cluster::{ArrivalStream, Fleet, SpanProfile};
use sgprs_rt::SimDuration;
use sgprs_workload::FleetScenario;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulated seconds per fleet run: the committed 10k-node perf
/// baseline's horizon, so one burst wave lands inside it.
pub const SIM_SECS: u64 = 4;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `metro_event_10k`.
    Event,
    /// `metro_epoch_512`.
    Epoch,
}

/// The workload's scenario at `seed`.
#[must_use]
pub fn scenario(engine: Engine, seed: u64) -> FleetScenario {
    match engine {
        Engine::Event => FleetScenario::metro_scale(10_000, SIM_SECS).with_event_driven(),
        Engine::Epoch => {
            FleetScenario::metro_scale(512, SIM_SECS).with_telemetry(SimDuration::from_millis(250))
        }
    }
    .with_seed(seed)
}

/// A fleet ready to run, with the host time each set-up step took.
pub struct Setup {
    /// `FleetScenario::config`.
    pub config_s: f64,
    /// `FleetScenario::arrivals`.
    pub arrivals_s: f64,
    /// `Fleet::new`.
    pub new_s: f64,
    fleet: Fleet,
    arrivals: ArrivalStream,
    horizon: SimDuration,
}

impl Setup {
    /// Total set-up time.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.config_s + self.arrivals_s + self.new_s
    }
}

/// Builds the fleet and its arrival stream; `profiling` arms the
/// fleet's span profiler.
#[must_use]
pub fn setup(sc: &FleetScenario, profiling: bool) -> Setup {
    let started = Instant::now();
    let cfg = sc.config();
    let config_s = started.elapsed().as_secs_f64();
    // One worker: on a shared 2-vCPU host a second one made the epoch
    // run's time follow the neighbours' load on both cores (IQR 44% of
    // the median over five seeds). Output is identical for any count.
    let cfg = cfg.with_workers(1);
    let cfg = if profiling { cfg.with_profiling() } else { cfg };
    let started = Instant::now();
    let arrivals = sc.arrivals();
    let arrivals_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let fleet = Fleet::new(cfg);
    let new_s = started.elapsed().as_secs_f64();
    Setup {
        config_s,
        arrivals_s,
        new_s,
        fleet,
        arrivals,
        horizon: sc.sim,
    }
}

/// One measured fleet run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Host time of `Fleet::run_configured`.
    pub wall_s: f64,
    /// Simulated jobs released, summed over nodes.
    pub released: u64,
    /// Events the event engine handled (0 on the epoch engine).
    pub events: u64,
    /// Allocations during the run (zero unless the counting allocator
    /// is installed).
    pub allocs: u64,
    /// Length and digest of `FleetMetrics::to_json`; `None` when the
    /// run panicked.
    pub output: Option<String>,
    /// The span profile, when the run was profiled.
    pub profile: Option<SpanProfile>,
}

/// Runs a set-up fleet to its horizon.
#[must_use]
pub fn run(setup: Setup) -> Run {
    let Setup {
        mut fleet,
        arrivals,
        horizon,
        ..
    } = setup;
    let allocs = AllocStats::snapshot();
    let started = Instant::now();
    let metrics = catch_unwind(AssertUnwindSafe(|| fleet.run_configured(arrivals, horizon)));
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = AllocStats::snapshot().since(&allocs).allocs;
    let Ok(metrics) = metrics else {
        return Run {
            wall_s,
            ..Run::default()
        };
    };
    let json = metrics.to_json();
    Run {
        wall_s,
        released: metrics.nodes.iter().map(|n| n.released).sum(),
        events: fleet.events_processed(),
        allocs,
        output: Some(digest(&json)),
        profile: fleet.span_profile(),
    }
}

/// The compact form of a fleet's JSON output the check compares.
#[must_use]
pub fn digest(json: &str) -> String {
    format!(
        "{} bytes, fnv1a64 {:016x}",
        json.len(),
        fnv1a64(json.as_bytes())
    )
}
