//! Layer probes: calls into one layer's public functions, timed from
//! outside with no other layer in the loop.

use crate::metro;
use crate::stats::{median, quantile};
use sgprs_bench::report::AllocStats;
use sgprs_cluster::{ChurnEvent, Fleet, TenantSpec};
use sgprs_core::SgprsConfig;
use sgprs_gpu_sim::{ContextConfig, ContextId, GpuEngine, KernelDesc, StreamClass};
use sgprs_rt::{EdfQueue, PriorityBands, PriorityLevel, SimTime};
use sgprs_workload::{FleetScenario, ScenarioSpec, SchedulerKind};
use std::hint::black_box;
use std::time::Instant;

/// A small deterministic generator for probe inputs (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Queue depth of the rt probe: 30 tasks × 6 stages, the sweep's
/// largest point.
pub const RT_DEPTH: usize = 180;
const RT_OPS: usize = 400_000;
/// Deadlines spread over one 30 fps period.
const PERIOD_NS: u64 = 33_333_333;

/// rt probe result: ns per push+pop pair for `EdfQueue` and
/// `PriorityBands` at [`RT_DEPTH`], and allocations per operation.
#[derive(Debug, Clone, Copy)]
pub struct RtProbe {
    /// `EdfQueue` push + pop.
    pub edf_push_pop_ns: f64,
    /// `PriorityBands` push + pop.
    pub bands_push_pop_ns: f64,
    /// Allocations per push or pop, both queues, after the prefill.
    pub allocs_per_op: f64,
}

/// Steady-state push/pop at a fixed depth: each pop is followed by a
/// push with a later deadline, as released stages follow served ones.
#[must_use]
pub fn rt(seed: u64) -> RtProbe {
    let mut rng = Rng::new(seed);
    let mut edf = EdfQueue::new();
    let mut bands = PriorityBands::new();
    let levels = PriorityLevel::DESCENDING;
    for i in 0..RT_DEPTH {
        let d = SimTime::from_nanos(rng.next() % PERIOD_NS);
        edf.push(i, d);
        bands.push(levels[i % 3], i, d);
    }
    let allocs = AllocStats::snapshot();
    let started = Instant::now();
    for _ in 0..RT_OPS {
        let e = edf.pop().expect("the queue holds RT_DEPTH entries");
        let d = e.deadline.as_nanos() + rng.next() % PERIOD_NS;
        edf.push(black_box(e.item), SimTime::from_nanos(d));
    }
    let edf_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..RT_OPS {
        let (_, e) = bands.pop().expect("the bands hold RT_DEPTH entries");
        let r = rng.next();
        let d = e.deadline.as_nanos() + r % PERIOD_NS;
        bands.push(
            levels[(r >> 40) as usize % 3],
            black_box(e.item),
            SimTime::from_nanos(d),
        );
    }
    let bands_s = started.elapsed().as_secs_f64();
    let allocs = AllocStats::snapshot().since(&allocs).allocs;
    RtProbe {
        edf_push_pop_ns: edf_s * 1e9 / RT_OPS as f64,
        bands_push_pop_ns: bands_s * 1e9 / RT_OPS as f64,
        allocs_per_op: allocs as f64 / (4 * RT_OPS) as f64,
    }
}

const GPU_KERNELS: usize = 60_000;

/// gpu-sim probe result for one pool.
#[derive(Debug, Clone, Copy)]
pub struct GpuProbe {
    /// Host ns per kernel through `submit` + `run_next`.
    pub ns_per_kernel: f64,
    /// Allocations per kernel inside the engine.
    pub allocs_per_kernel: f64,
}

/// Replays ResNet18's six `stage_profiles` through a `GpuEngine` built
/// like `SgprsScheduler::new` builds it (SGPRS 1.5 pool with `contexts`
/// contexts), keeping every stream busy. Kernel descriptors are built
/// before the clock starts, so only the engine's own work is timed.
#[must_use]
pub fn gpu_sim(contexts: usize, seed: u64) -> GpuProbe {
    let spec = ScenarioSpec::new(
        contexts,
        SchedulerKind::Sgprs {
            oversubscription: 1.5,
        },
        1,
    );
    let cfg = SgprsConfig::new(spec.pool()).with_seed(seed);
    let mut builder = GpuEngine::builder(cfg.pool.gpu.clone())
        .contention_model(cfg.contention)
        .seed(cfg.seed);
    for sm in cfg.pool.sm_allocations() {
        builder = builder.context(ContextConfig::new(sm));
    }
    let mut engine = builder.build();
    let task = spec.compile_tasks(1).remove(0);
    let mut descs = (0..GPU_KERNELS)
        .map(|i| KernelDesc::new(String::new(), task.stage_profiles[i % 6].clone()))
        .rev()
        .collect::<Vec<_>>();
    let submit = |engine: &mut GpuEngine, ctx: ContextId, desc: KernelDesc| {
        let class = if engine.snapshot(ctx).idle_high > 0 {
            StreamClass::High
        } else {
            StreamClass::Low
        };
        engine
            .submit(ctx, class, desc)
            .expect("submitted only to a context with an idle stream");
    };
    let allocs = AllocStats::snapshot();
    let started = Instant::now();
    for ctx in 0..engine.context_count() {
        for _ in 0..ContextConfig::new(1).total_streams() {
            if let Some(desc) = descs.pop() {
                submit(&mut engine, ContextId(ctx), desc);
            }
        }
    }
    let mut completed = 0usize;
    while let Some(ev) = engine.run_next() {
        completed += 1;
        if let Some(desc) = descs.pop() {
            submit(&mut engine, ev.context, desc);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let allocs = AllocStats::snapshot().since(&allocs).allocs;
    assert_eq!(completed, GPU_KERNELS, "every submitted kernel completes");
    GpuProbe {
        ns_per_kernel: secs * 1e9 / completed as f64,
        allocs_per_kernel: allocs as f64 / completed as f64,
    }
}

const PLAN_SAMPLES: usize = 2_000;

/// `Fleet::plan` latency `(p50_ns, p99_ns)` over [`PLAN_SAMPLES`] calls
/// on a metro fleet of `nodes` nodes, pre-loaded by dispatching the
/// first half of its arrivals; the rest are the tenants planned.
#[must_use]
pub fn plan(nodes: usize, seed: u64) -> (f64, f64) {
    let sc = FleetScenario::metro_scale(nodes, metro::SIM_SECS).with_seed(seed);
    let arrivals: Vec<TenantSpec> = sc
        .arrivals()
        .filter_map(|(_, e)| match e {
            ChurnEvent::Arrival(t) => Some(t),
            ChurnEvent::Departure(_) => None,
        })
        .collect();
    let (preload, planned) = arrivals.split_at(arrivals.len() / 2);
    let mut fleet = Fleet::new(sc.config());
    for t in preload {
        let _ = fleet.dispatch(t.clone());
    }
    let mut samples = Vec::with_capacity(PLAN_SAMPLES);
    for t in planned.iter().cycle().take(PLAN_SAMPLES) {
        let started = Instant::now();
        black_box(fleet.plan(black_box(t)));
        samples.push(started.elapsed().as_nanos() as f64);
    }
    (quantile(&samples, 0.5), quantile(&samples, 0.99))
}

/// `Fleet::replay_dispatch` on the `metro_event_10k` stream: median ns
/// per arrival over `reps` replays.
#[must_use]
pub fn dispatch(seed: u64, reps: usize) -> f64 {
    let sc = metro::scenario(metro::Engine::Event, seed);
    let per_arrival: Vec<f64> = (0..reps)
        .map(|_| {
            let mut fleet = Fleet::new(sc.config());
            let arrivals = sc.arrivals();
            let started = Instant::now();
            let replay = fleet.replay_dispatch(arrivals, sc.sim);
            started.elapsed().as_secs_f64() * 1e9 / replay.arrivals.max(1) as f64
        })
        .collect();
    median(&per_arrival)
}

/// `ArrivalStream::next_event` alone on the `metro_event_10k` stream:
/// median ns per event over `reps` drains.
#[must_use]
pub fn arrival_pull(seed: u64, reps: usize) -> f64 {
    let sc = metro::scenario(metro::Engine::Event, seed);
    let per_event: Vec<f64> = (0..reps)
        .map(|_| {
            let mut stream = sc.arrivals();
            let mut events = 0u64;
            let started = Instant::now();
            while let Some(e) = stream.next_event() {
                black_box(e);
                events += 1;
            }
            started.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64
        })
        .collect();
    median(&per_event)
}
