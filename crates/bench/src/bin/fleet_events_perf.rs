//! **Event-engine perf gate**: runs the metro-scale scenario on the
//! event-driven engine with the span profiler armed, emits the
//! machine-readable `BENCH_fleet_events_perf.json` sidecar, and — when
//! `--baseline` points at a committed report — gates the deterministic
//! counters (events simulated, allocs/event, per-span call counts)
//! against it. Counters must match **exactly**; wall-clock fields only
//! warn, so machine speed never fails CI.
//!
//! `--raw` runs the same scenario with **no profiling and no
//! telemetry**: the hot loop does zero clock reads, the event count
//! comes from the engine's unconditional processed counter
//! ([`Fleet::events_processed`]), and the report carries an all-zero
//! span profile. This is the honest configuration for wall-clock
//! claims (at 10k nodes the profiler's four `Instant` reads per event
//! cost more than the event itself) — the fleet-scale gate runs
//! `--nodes 10000 --raw` against `bench/baseline_10k.json`.
//!
//! Usage:
//!   `cargo run --release -p sgprs-bench --bin fleet_events_perf -- \
//!       [--nodes N] [--sim-secs S] [--raw] [--baseline PATH] [--write-baseline PATH]`

use sgprs_bench::report::{gate_against_baseline, AllocStats, BenchReport, CountingAlloc};
use sgprs_bench::{arg_value, has_flag};
use sgprs_cluster::{Fleet, Span, SpanProfile};
use sgprs_rt::SimDuration;
use sgprs_workload::FleetScenario;

/// Count heap traffic so the report can gate allocs/event.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Defaults sized so the CI smoke finishes in seconds while still
/// pushing six-figure event counts through the engine.
const DEFAULT_NODES: usize = 256;
/// Default simulated horizon in seconds.
const DEFAULT_SIM_SECS: u64 = 4;
/// Telemetry window — armed so the TelemetryFold span is exercised.
const TELEMETRY_WINDOW: SimDuration = SimDuration::from_millis(250);
/// Wall-clock drift tolerated before a (non-fatal) warning.
const WALL_FACTOR: f64 = 10.0;

struct Args {
    nodes: usize,
    sim_secs: u64,
    raw: bool,
    baseline: Option<String>,
    write_baseline: Option<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args {
        nodes: arg_value(&argv, "--nodes").unwrap_or(DEFAULT_NODES).max(1),
        sim_secs: arg_value(&argv, "--sim-secs")
            .unwrap_or(DEFAULT_SIM_SECS)
            .max(1),
        raw: has_flag(&argv, "--raw"),
        baseline: arg_value(&argv, "--baseline"),
        write_baseline: arg_value(&argv, "--write-baseline"),
    };

    // The gated workload: metro-scale heterogeneous fleet (p2c shard
    // routing, earliest-deadline queues, repricing) on the event
    // engine — with windowed telemetry so every profiled span fires,
    // unless `--raw` strips all instrumentation for an honest
    // wall-clock measurement.
    let mut scenario = FleetScenario::metro_scale(args.nodes, args.sim_secs).with_event_driven();
    if !args.raw {
        scenario = scenario.with_telemetry(TELEMETRY_WINDOW);
    }

    let cfg = scenario.config();
    let cfg = if args.raw { cfg } else { cfg.with_profiling() };
    let mut fleet = Fleet::new(cfg);
    let alloc_before = AllocStats::snapshot();
    let started = std::time::Instant::now();
    let metrics = fleet.run_configured(scenario.arrivals(), scenario.sim);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let alloc = AllocStats::snapshot().since(&alloc_before);

    // Raw mode never constructed a profiler; its report carries the
    // engine's unconditional event counter and all-zero spans (which a
    // raw-generated baseline then pins as all-zero, consistently).
    let (profile, events) = if args.raw {
        (SpanProfile::default(), fleet.events_processed())
    } else {
        let profile = fleet
            .span_profile()
            .expect("the gated run ran with profiling armed");
        let events = profile.calls(Span::EventPop) + profile.calls(Span::ArrivalPull);
        (profile, events)
    };
    let bin = if args.raw {
        "fleet_events_perf_raw"
    } else {
        "fleet_events_perf"
    };
    let report = BenchReport::new(
        bin,
        &scenario.label,
        "event",
        args.nodes as u64,
        metrics.arrivals,
        events,
        wall_ms,
        &profile,
        alloc,
    );

    println!(
        "fleet_events_perf: {} nodes, {} sim-secs — {} arrivals, {} events, \
         {:.0} ms wall, {:.2} allocs/event, {:.0}k events/sec",
        args.nodes,
        args.sim_secs,
        report.tenants,
        report.events,
        report.wall_ms,
        report.allocs_per_event(),
        report.events_per_sec / 1e3
    );

    match report.write_sidecar() {
        Ok(name) => println!("wrote perf sidecar {name}"),
        Err(e) => eprintln!("perf sidecar write failed: {e}"),
    }

    if let Some(path) = &args.write_baseline {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("wrote baseline {path}"),
            Err(e) => {
                eprintln!("baseline write failed for {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.baseline {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let outcome = gate_against_baseline(&report, &baseline, WALL_FACTOR);
        for w in &outcome.warnings {
            println!("WARN  {w}");
        }
        for f in &outcome.failures {
            println!("FAIL  {f}");
        }
        if outcome.passed() {
            println!(
                "gate PASSED against {path}: all deterministic counters match \
                 ({} warnings)",
                outcome.warnings.len()
            );
        } else {
            println!(
                "gate FAILED against {path}: {} deterministic counter mismatch(es) — \
                 if intentional, regenerate with --write-baseline {path}",
                outcome.failures.len()
            );
            std::process::exit(1);
        }
    }
}
