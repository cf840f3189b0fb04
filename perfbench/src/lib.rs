//! End-to-end and per-layer benchmark of the SGPRS simulator and the
//! fleet. See `README.md` for the workloads, the metrics and how they
//! relate.
//!
//! Two binaries share this library:
//!
//! * `perfbench` measures the end-to-end metrics of one workload with
//!   the system allocator and no tracing ([`e2e_main`]).
//! * `perfbench_traced` installs `sgprs_bench::report::CountingAlloc`,
//!   reruns every workload with per-layer timers around the calls into
//!   each layer, runs the layer probes, and compares its outputs with an
//!   untraced run of the chosen workload ([`traced_main`]).

// `deny`, not `forbid`: `affinity` makes the one foreign call.
#![deny(unsafe_code)]

pub mod affinity;
pub mod check;
pub mod metro;
pub mod probe;
pub mod stats;
pub mod sweep;

use check::{committed, failures, DEFAULT_SEED};
use sgprs_cluster::Span;
use stats::{log2_hist_quantile, median, peak_rss_mb, quantile, result_line, Metrics};
use std::process::{Command, ExitCode};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3 + Fig. 4: 8 curves × 30 task counts on one GPU.
    PaperSweep,
    /// `metro_scale(10_000)` on the event engine.
    MetroEvent10k,
    /// `metro_scale(512)` on the epoch engine with telemetry.
    MetroEpoch512,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::MetroEvent10k,
        Workload::MetroEpoch512,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::MetroEvent10k => "metro_event_10k",
            Workload::MetroEpoch512 => "metro_epoch_512",
        }
    }

    fn engine(self) -> Option<metro::Engine> {
        match self {
            Workload::PaperSweep => None,
            Workload::MetroEvent10k => Some(metro::Engine::Event),
            Workload::MetroEpoch512 => Some(metro::Engine::Epoch),
        }
    }
}

/// Command-line arguments of both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to measure.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of one invocation (required by `perfbench`'s
    /// measuring mode, which derives its repetition count from it).
    pub seconds: Option<f64>,
    /// Run the untraced reference the traced binary compares with.
    pub reference: bool,
}

/// Parses `--workload <name> [--seed <n>] [--seconds <s>] [--reference]`.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value,
/// or an unknown workload.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut reference = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && f64::is_finite(s)) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--reference" => reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        reference,
    })
}

/// One repetition of a workload.
struct Rep {
    /// Host time of each operation (sweep point or fleet run), set-up
    /// excluded.
    op_s: Vec<f64>,
    /// Simulated jobs released.
    released: u64,
    /// Each operation's output (`None`: it panicked).
    ops: Vec<Option<String>>,
    /// The sweep's points (paper_sweep only).
    points: Vec<sweep::PointRun>,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }
}

fn rep(workload: Workload, seed: u64) -> Rep {
    match workload.engine() {
        None => {
            let points = sweep::pass(seed, true);
            Rep {
                op_s: points.iter().map(|p| p.run_s).collect(),
                released: points
                    .iter()
                    .filter_map(|p| p.point.as_ref())
                    .map(|p| p.released)
                    .sum(),
                ops: sweep::csv_lines(seed, &points),
                points,
            }
        }
        Some(engine) => {
            let run = metro::run(metro::setup(&metro::scenario(engine, seed), false));
            Rep {
                op_s: vec![run.wall_s],
                released: run.released,
                ops: vec![run.output],
                points: Vec::new(),
            }
        }
    }
}

/// Set-up time of one repetition: `compile_tasks` + scheduler `new`
/// over every sweep point, or `config` + `arrivals` + `Fleet::new`.
fn setup_once(workload: Workload, seed: u64) -> f64 {
    match workload.engine() {
        None => sweep::pass(seed, false)
            .iter()
            .map(|p| p.compile_s + p.new_s)
            .sum(),
        Some(engine) => metro::setup(&metro::scenario(engine, seed), false).total_s(),
    }
}

/// Repetitions per invocation at the least, so that every operation
/// has a best of two.
const MIN_REPS: usize = 2;

impl Workload {
    /// Host time of one repetition on the reference box (README.md,
    /// "Sample counts"). Only the repetition count is derived from it,
    /// so that every commit's figure is a best of the same N.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::PaperSweep => 6.0,
            Workload::MetroEvent10k => 0.15,
            Workload::MetroEpoch512 => 0.3,
        }
    }

    /// Measured repetitions in an invocation of `seconds`.
    fn reps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_s()).round() as usize).max(MIN_REPS)
    }

    /// Set-up passes per invocation, at the least (rounded up to a
    /// multiple of the repetitions): set-up takes milliseconds, so its
    /// median needs many (about half a second's worth on the reference
    /// box).
    fn setup_passes(self) -> usize {
        match self {
            Workload::PaperSweep => 60,
            Workload::MetroEvent10k => 250,
            Workload::MetroEpoch512 => 1000,
        }
    }
}

/// Task count of the paper-sweep canary points.
const CANARY_TASKS: usize = 24;

/// Checks a few operations at [`DEFAULT_SEED`] against the committed
/// expectation, so that an invocation at any seed still compares the
/// program's output with a known-good one. Returns `(attempted, failed)`.
fn canary(workload: Workload) -> (u64, u64) {
    let expected = committed(workload);
    let (outputs, wanted): (Vec<_>, Vec<_>) = match workload.engine() {
        None => sweep::variants(DEFAULT_SEED)
            .iter()
            .enumerate()
            .map(|(v, spec)| {
                let point = sweep::run_point(spec, CANARY_TASKS, true);
                let line = expected[v * sweep::MAX_TASKS + CANARY_TASKS - 1].clone();
                (sweep::csv_line(spec, &point), line)
            })
            .unzip(),
        Some(_) => (rep(workload, DEFAULT_SEED).ops, expected),
    };
    (outputs.len() as u64, failures(&outputs, &wanted))
}

/// The expectation of a run at `seed`: committed at the default seed,
/// otherwise the first run's own output.
fn expectation(workload: Workload, seed: u64, first: &[Option<String>]) -> Vec<String> {
    if seed == DEFAULT_SEED {
        committed(workload)
    } else {
        first
            .iter()
            .map(|o| o.clone().unwrap_or_default())
            .collect()
    }
}

fn print_paper_error(points: &[sweep::PointRun], seed: u64) {
    match sweep::paper_error(seed, points) {
        Some((pivot, fps)) => {
            println!(
                "paper fidelity: paper_pivot_err_tasks = {pivot}, paper_fps_err_pct = {fps:.2}"
            );
        }
        None => println!("paper fidelity: not computed, a sweep point panicked"),
    }
}

/// `perfbench`: the end-to-end metrics of one workload, tracing off.
#[must_use]
pub fn e2e_main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        reference(&args);
        return ExitCode::SUCCESS;
    }
    let (w, seed) = (args.workload, args.seed);
    let Some(seconds) = args.seconds else {
        eprintln!("perfbench: --seconds is required");
        return ExitCode::from(2);
    };

    let (mut attempted, mut failed) = if seed == DEFAULT_SEED {
        (0, 0)
    } else {
        canary(w)
    };

    // Repetitions take turns on the allowed CPUs. Each is preceded by
    // an equal share of the set-up passes, so that set-up is sampled
    // across the whole run, not in one burst at a single host speed.
    let cpus = affinity::allowed();
    let lanes = cpus.len().max(1);
    let reps_n = w.reps(seconds);
    let passes_per_rep = w.setup_passes().div_ceil(reps_n);
    let mut setups = vec![Vec::new(); lanes];
    let mut reps = Vec::with_capacity(reps_n);
    for i in 0..reps_n {
        if !cpus.is_empty() {
            affinity::pin(&[cpus[i % lanes]]);
        }
        for _ in 0..passes_per_rep {
            setups[i % lanes].push(setup_once(w, seed));
        }
        reps.push(rep(w, seed));
    }
    affinity::pin(&cpus);
    let expected = expectation(w, seed, &reps[0].ops);
    for r in &reps {
        attempted += r.ops.len() as u64;
        failed += failures(&r.ops, &expected);
    }

    // Each operation's fastest repetition, summed: on a shared host
    // interference only ever adds time, and the median of a run's
    // repetitions follows the neighbours' load (README.md, "Steadiness").
    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    let best: f64 = (0..reps[0].op_s.len())
        .map(|j| reps.iter().map(|r| r.op_s[j]).fold(f64::INFINITY, f64::min))
        .sum();
    // Each CPU's median set-up time; the fastest CPU's is reported.
    let setup_s = setups
        .iter()
        .filter(|lane| !lane.is_empty())
        .map(|lane| median(lane))
        .fold(f64::INFINITY, f64::min);
    let released = reps[0].released;
    let rss = peak_rss_mb();
    println!(
        "{} seed={seed}: {} runs, wall median {:.4} s, best {best:.4} s; {} set-ups, \
         {setup_s:.6} s; failed {failed}/{attempted} (failed_frac {})",
        w.name(),
        reps.len(),
        median(&walls),
        passes_per_rep * reps_n,
        failed as f64 / attempted.max(1) as f64
    );
    if w == Workload::PaperSweep {
        print_paper_error(&reps[0].points, seed);
    }
    let mut m = Metrics::default();
    m.push("sim_jobs_per_s", released as f64 / best, "jobs/s");
    m.push("wall_s", best, "s");
    m.push("setup_s", setup_s, "s");
    if let Err(e) = &rss {
        eprintln!("perfbench: {e}");
    }
    m.push("peak_rss_mb", rss.clone().unwrap_or(f64::NAN), "MB");
    println!(
        "{}",
        result_line(rss.is_ok() && failed == 0, attempted, failed, &m)
    );
    ExitCode::SUCCESS
}

/// Runs of the untraced reference (the paper sweep is long enough that
/// one is a stable figure).
fn reference_reps(workload: Workload) -> usize {
    if workload == Workload::PaperSweep {
        1
    } else {
        5
    }
}

/// `perfbench --reference`: untraced runs whose output and median wall
/// time the traced binary compares with. Prints `op\t<output>` per
/// operation of the first run (`-` for a panic) and `wall_s\t<median>`.
fn reference(args: &Args) {
    let reps: Vec<Rep> = (0..reference_reps(args.workload))
        .map(|_| rep(args.workload, args.seed))
        .collect();
    for op in &reps[0].ops {
        println!("op\t{}", op.as_deref().unwrap_or("-"));
    }
    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    println!("wall_s\t{}", median(&walls));
}

/// Runs `perfbench --reference` beside this executable; returns its
/// median wall time and its operations' outputs.
fn spawn_reference(args: &Args) -> Result<(f64, Vec<Option<String>>), String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let out = Command::new(&exe)
        .args(["--workload", args.workload.name(), "--reference"])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("reference run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut wall = None;
    let mut ops = Vec::new();
    for line in stdout.lines() {
        match line.split_once('\t') {
            Some(("op", "-")) => ops.push(None),
            Some(("op", v)) => ops.push(Some(v.to_string())),
            Some(("wall_s", v)) => wall = v.parse().ok(),
            _ => {}
        }
    }
    Ok((wall.ok_or("the reference printed no wall time")?, ops))
}

/// Tallies compared operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn compare(&mut self, outputs: &[Option<String>], expected: &[String]) {
        self.attempted += outputs.len().max(expected.len()) as u64;
        self.failed += failures(outputs, expected);
    }
}

/// Traced fleet runs: unprofiled (counting allocator and timers only)
/// and with the fleet's span profiler armed.
const TRACED_FLEET_REPS: usize = 5;
const PROFILED_FLEET_REPS: usize = 3;
/// Spans each engine exercises, reported as `cluster.<engine>.span.*`,
/// with whether their latency quantiles are reported too. The
/// profiler's histogram ends in an open bucket at 32.8 µs; the spans
/// marked `false` take longer than that, so only their calls are
/// measured.
const EVENT_SPANS: [(Span, bool); 6] = [
    (Span::Plan, true),
    (Span::DrainScan, true),
    (Span::EventPop, true),
    (Span::EventExec, true),
    (Span::ArrivalPull, true),
    (Span::WheelCascade, false),
];
const EPOCH_SPANS: [(Span, bool); 5] = [
    (Span::Plan, true),
    (Span::DrainScan, true),
    (Span::EpochCompile, false),
    (Span::TelemetryFold, false),
    (Span::ArrivalPull, true),
];

/// The traced paper sweep's layer metrics; returns its wall time and
/// operations' outputs.
fn trace_sweep(seed: u64, m: &mut Metrics, tally: &mut Tally) -> (f64, Vec<Option<String>>) {
    let points = sweep::pass(seed, true);
    let ops = sweep::csv_lines(seed, &points);
    if seed == DEFAULT_SEED {
        tally.compare(&ops, &committed(Workload::PaperSweep));
    }
    let sum = |f: fn(&sweep::PointRun) -> f64| points.iter().map(f).sum::<f64>();
    let tasks = sum(|p| p.tasks as f64);
    let kernels = sum(|p| p.kernels as f64).max(1.0);
    let runs_ms: Vec<f64> = points.iter().map(|p| p.run_s * 1e3).collect();
    m.push(
        "core.offline.compile_us_per_task",
        sum(|p| p.compile_s) * 1e6 / tasks,
        "us",
    );
    m.push(
        "core.offline.allocs_per_task",
        sum(|p| p.compile_allocs as f64) / tasks,
        "allocs/task",
    );
    m.push(
        "core.sched.new_us",
        sum(|p| p.new_s) * 1e6 / points.len() as f64,
        "us",
    );
    m.push(
        "core.sched.run_ns_per_kernel",
        sum(|p| p.run_s) * 1e9 / kernels,
        "ns",
    );
    m.push(
        "core.sched.allocs_per_kernel",
        sum(|p| p.run_allocs as f64) / kernels,
        "allocs/kernel",
    );
    m.push("core.sched.kernels", sum(|p| p.kernels as f64), "count");
    m.push("core.point_p50_ms", quantile(&runs_ms, 0.5), "ms");
    m.push("core.point_p95_ms", quantile(&runs_ms, 0.95), "ms");
    let (pivot, fps) = sweep::paper_error(seed, &points).unwrap_or((f64::NAN, f64::NAN));
    m.push("paper_pivot_err_tasks", pivot, "tasks");
    m.push("paper_fps_err_pct", fps, "%");
    (sum(|p| p.run_s), ops)
}

/// The traced and profiled fleet runs of one engine; returns the
/// traced runs' median wall time and the first run's outputs.
fn trace_fleet(
    engine: metro::Engine,
    seed: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (f64, Vec<Option<String>>) {
    let sc = metro::scenario(engine, seed);
    let mut new_ms = Vec::new();
    let runs: Vec<metro::Run> = (0..TRACED_FLEET_REPS)
        .map(|_| {
            let setup = metro::setup(&sc, false);
            new_ms.push(setup.new_s * 1e3);
            metro::run(setup)
        })
        .collect();
    let profiled: Vec<metro::Run> = (0..PROFILED_FLEET_REPS)
        .map(|_| metro::run(metro::setup(&sc, true)))
        .collect();

    let first = vec![runs[0].output.clone()];
    let workload = match engine {
        metro::Engine::Event => Workload::MetroEvent10k,
        metro::Engine::Epoch => Workload::MetroEpoch512,
    };
    let expected = expectation(workload, seed, &first);
    for r in runs.iter().chain(&profiled) {
        tally.compare(std::slice::from_ref(&r.output), &expected);
    }

    let wall = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let per = |f: fn(&metro::Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let (tag, spans) = match engine {
        metro::Engine::Event => {
            m.push("cluster.fleet_new_ms", median(&new_ms), "ms");
            m.push(
                "cluster.event.ns_per_event",
                per(|r| r.wall_s * 1e9 / r.events.max(1) as f64),
                "ns",
            );
            m.push(
                "cluster.event.allocs_per_event",
                per(|r| r.allocs as f64 / r.events.max(1) as f64),
                "allocs/event",
            );
            m.push("cluster.event.events", runs[0].events as f64, "count");
            ("event", &EVENT_SPANS[..])
        }
        metro::Engine::Epoch => {
            m.push(
                "cluster.epoch.ns_per_job",
                per(|r| r.wall_s * 1e9 / r.released.max(1) as f64),
                "ns",
            );
            m.push(
                "cluster.epoch.allocs_per_job",
                per(|r| r.allocs as f64 / r.released.max(1) as f64),
                "allocs/job",
            );
            ("epoch", &EPOCH_SPANS[..])
        }
    };
    let profiles: Vec<_> = profiled.iter().filter_map(|r| r.profile.as_ref()).collect();
    for &(span, quantiles) in spans {
        let calls = profiles.first().map_or(0, |p| p.calls(span));
        let name = format!("cluster.{tag}.span.{}", span.name());
        m.push(format!("{name}.calls"), calls as f64, "count");
        if !quantiles {
            continue;
        }
        let mut hist = [0u64; sgprs_cluster::PLAN_LATENCY_BINS];
        for p in &profiles {
            for (h, c) in hist.iter_mut().zip(p.wall_hist(span)) {
                *h += c;
            }
        }
        m.push(
            format!("{name}.p50_ns"),
            log2_hist_quantile(&hist, 0.5),
            "ns",
        );
        m.push(
            format!("{name}.p99_ns"),
            log2_hist_quantile(&hist, 0.99),
            "ns",
        );
    }
    let profiled_wall = median(&profiled.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.push(
        format!("cluster.{tag}.prof_overhead_ratio"),
        profiled_wall / wall,
        "ratio",
    );
    (wall, first)
}

/// `perfbench_traced`: every per-layer metric, plus the traced run's
/// wall time over the untraced run's for the chosen workload.
#[must_use]
pub fn traced_main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench_traced: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let (ref_wall, ref_ops) = match spawn_reference(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench_traced: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let sweep = trace_sweep(seed, &mut m, &mut tally);
    let event = trace_fleet(metro::Engine::Event, seed, &mut m, &mut tally);
    let epoch = trace_fleet(metro::Engine::Epoch, seed, &mut m, &mut tally);
    let (wall, ops) = match args.workload {
        Workload::PaperSweep => sweep,
        Workload::MetroEvent10k => event,
        Workload::MetroEpoch512 => epoch,
    };
    let ref_ops: Vec<String> = ref_ops.into_iter().map(Option::unwrap_or_default).collect();
    tally.compare(&ops, &ref_ops);
    m.push("trace_overhead_ratio", wall / ref_wall, "ratio");

    let rt = probe::rt(seed);
    m.push("rt.edf.push_pop_ns", rt.edf_push_pop_ns, "ns");
    m.push("rt.bands.push_pop_ns", rt.bands_push_pop_ns, "ns");
    m.push("rt.allocs_per_op", rt.allocs_per_op, "allocs/op");
    let np2 = probe::gpu_sim(2, seed);
    let np3 = probe::gpu_sim(3, seed);
    m.push("gpu_sim.np2.ns_per_kernel", np2.ns_per_kernel, "ns");
    m.push("gpu_sim.np3.ns_per_kernel", np3.ns_per_kernel, "ns");
    m.push(
        "gpu_sim.allocs_per_kernel",
        (np2.allocs_per_kernel + np3.allocs_per_kernel) / 2.0,
        "allocs/kernel",
    );
    for nodes in [256, 1024, 10_000] {
        let (p50, p99) = probe::plan(nodes, seed);
        m.push(format!("cluster.plan.n{nodes}.p50_ns"), p50, "ns");
        m.push(format!("cluster.plan.n{nodes}.p99_ns"), p99, "ns");
    }
    m.push(
        "cluster.dispatch.ns_per_arrival",
        probe::dispatch(seed, 3),
        "ns",
    );
    m.push(
        "workload.arrival_pull_ns",
        probe::arrival_pull(seed, 5),
        "ns",
    );

    println!(
        "{} seed={seed} traced: {wall:.3} s vs {ref_wall:.3} s untraced, failed {}/{}",
        args.workload.name(),
        tally.failed,
        tally.attempted
    );
    println!(
        "{}",
        result_line(tally.failed == 0, tally.attempted, tally.failed, &m)
    );
    ExitCode::SUCCESS
}
