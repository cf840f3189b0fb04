//! Property-based tests of the device engine: conservation, determinism,
//! and monotonicity under randomised workloads.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgprs_gpu_sim::{
    ContentionModel, ContextConfig, ContextId, DeviceEvent, GpuEngine, GpuSpec, KernelDesc,
    OpClass, StreamClass, WorkProfile,
};
use sgprs_rt::SimTime;

fn engine(contexts: &[u32], seed: u64) -> GpuEngine {
    let mut b = GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(1_000))
        .seed(seed);
    for &sm in contexts {
        b = b.context(ContextConfig::new(sm));
    }
    b.build()
}

fn op_of(tag: u8) -> OpClass {
    match tag % 8 {
        0 => OpClass::Convolution,
        1 => OpClass::MaxPool,
        2 => OpClass::AvgPool,
        3 => OpClass::BatchNorm,
        4 => OpClass::Activation,
        5 => OpClass::ElementwiseAdd,
        6 => OpClass::Linear,
        _ => OpClass::Softmax,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted kernel eventually completes, exactly once.
    #[test]
    fn all_submitted_kernels_complete(
        kernels in prop::collection::vec((0u8..8, 1_000.0f64..5e6), 1..40),
        seed in any::<u64>(),
    ) {
        let mut e = engine(&[34, 34], seed);
        let mut submitted = 0u64;
        let mut completed = Vec::new();
        for (i, &(tag, work)) in kernels.iter().enumerate() {
            let ctx = ContextId(i % 2);
            let class = if i % 4 < 2 { StreamClass::High } else { StreamClass::Low };
            let desc = KernelDesc::new(
                format!("k{i}"),
                WorkProfile::single(op_of(tag), work),
            );
            // Make room if every slot of the class is busy.
            loop {
                match e.submit(ctx, class, desc.clone()) {
                    Ok(h) => {
                        submitted += 1;
                        completed.push(h);
                        break;
                    }
                    Err(_) => {
                        let ev = e.run_next().expect("kernels in flight");
                        prop_assert!(completed.contains(&ev.kernel));
                    }
                }
            }
        }
        let events = e.drain();
        let mut total_done = events.len() as u64;
        // Events already consumed while making room:
        total_done += submitted - e.snapshot_resident() as u64 - events.len() as u64
            - (submitted - e.completed_count());
        prop_assert_eq!(e.completed_count(), submitted, "conservation");
        prop_assert!(e.next_event_time().is_none(), "device drained");
        let _ = total_done;
    }

    /// Identical seeds give identical schedules; the engine is a pure
    /// function of its inputs.
    #[test]
    fn engine_is_deterministic(
        works in prop::collection::vec(1_000.0f64..2e6, 1..16),
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut e = engine(&[68, 68], seed);
            for (i, &w) in works.iter().enumerate() {
                let ctx = ContextId(i % 2);
                let desc = KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, w));
                if e.submit(ctx, StreamClass::High, desc.clone()).is_err() {
                    e.run_next();
                    let _ = e.submit(ctx, StreamClass::High, desc);
                }
            }
            e.drain().into_iter().map(|ev| ev.finished_at).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Adding work never makes previously submitted kernels finish
    /// *earlier* (the engine is work-monotone).
    #[test]
    fn extra_load_never_speeds_anyone_up(work in 1e5f64..5e6, extra in 1e5f64..5e6) {
        let finish_of_first = |with_extra: bool| {
            let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(0))
                .contention_model(ContentionModel::ideal())
                .context(ContextConfig::new(68))
                .build();
            let first = e
                .submit(
                    ContextId(0),
                    StreamClass::High,
                    KernelDesc::new("a", WorkProfile::single(OpClass::Convolution, work)),
                )
                .expect("idle");
            if with_extra {
                e.submit(
                    ContextId(0),
                    StreamClass::High,
                    KernelDesc::new("b", WorkProfile::single(OpClass::Convolution, extra)),
                )
                .expect("second high stream");
            }
            e.drain()
                .into_iter()
                .find(|ev| ev.kernel == first)
                .expect("first completes")
                .finished_at
        };
        prop_assert!(finish_of_first(true) >= finish_of_first(false));
    }

    /// Busy fractions always stay within [0, 1].
    #[test]
    fn busy_fractions_are_well_formed(
        works in prop::collection::vec(1_000.0f64..1e6, 1..12),
        horizon_ns in 1_000u64..1_000_000_000,
    ) {
        let mut e = engine(&[23, 23, 22], 7);
        for (i, &w) in works.iter().enumerate() {
            let ctx = ContextId(i % 3);
            let desc = KernelDesc::new("k", WorkProfile::single(OpClass::MaxPool, w));
            let _ = e.submit(ctx, StreamClass::Low, desc);
        }
        e.advance_to(SimTime::from_nanos(horizon_ns), &mut Vec::new());
        for c in 0..3 {
            let f = e.busy_fraction(ContextId(c));
            prop_assert!((0.0..=1.0).contains(&f), "ctx {c}: {f}");
        }
    }
}

/// Folds one 64-bit word into an FNV-1a hash, byte by byte.
fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn hash_events(hash: &mut u64, events: &[DeviceEvent]) {
    for ev in events {
        for word in [
            ev.kernel.0,
            ev.context.0 as u64,
            ev.stream.index as u64,
            ev.submitted_at.as_nanos(),
            ev.finished_at.as_nanos(),
        ] {
            fnv1a(hash, word);
        }
    }
}

/// Pins the engine bit for bit: one fixed-seed random schedule on three
/// 34-SM contexts (1.5× over-subscription of the 68-SM device) under the
/// calibrated contention model, so jitter is drawn on every submit.
/// Mixed high/low submits of multi-segment profiles are interleaved with
/// advances that stop both mid-flight and exactly at completions. Every
/// completion event and every context's busy-fraction bit pattern feed
/// one FNV-1a hash. Rounded sweep outputs would not notice a last-bit
/// float change in the reflow; this hash does.
#[test]
fn fixed_seed_schedule_is_pinned_bit_for_bit() {
    let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti())
        .contention_model(ContentionModel::calibrated())
        .seed(0x5EED_0015)
        .contexts(3, ContextConfig::new(34))
        .build();
    let mut rng = SmallRng::seed_from_u64(0xF1A7);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut submitted = 0u64;
    let mut events = Vec::new();
    for _ in 0..600 {
        let ctx = ContextId(rng.random_range(0..3usize));
        let class = if rng.random_range(0..2u32) == 0 {
            StreamClass::High
        } else {
            StreamClass::Low
        };
        let mut work = WorkProfile::new();
        for _ in 0..rng.random_range(1..5u32) {
            work.add(op_of(rng.random_range(0..8u8)), rng.random_range(1e5..3e6));
        }
        if e.submit(ctx, class, KernelDesc::new("k", work)).is_ok() {
            submitted += 1;
        }
        match rng.random_range(0..3u32) {
            0 => {
                let dt = rng.random_range(0..50_000u64);
                e.advance_to(SimTime::from_nanos(e.now().as_nanos() + dt), &mut events);
            }
            1 => {
                if let Some(t) = e.next_event_time() {
                    e.advance_to(t, &mut events);
                }
            }
            _ => {
                events.extend(e.run_next());
            }
        }
        hash_events(&mut hash, &events);
        events.clear();
    }
    let events = e.drain();
    hash_events(&mut hash, &events);
    for c in 0..3 {
        fnv1a(&mut hash, e.busy_fraction(ContextId(c)).to_bits());
    }
    assert_eq!(e.completed_count(), submitted);
    assert_eq!(hash, 0x67f5_e23b_be64_f148, "engine output drifted: hash {hash:#018x}");
}

/// Helper extension used by the conservation test.
trait ResidentCount {
    fn snapshot_resident(&self) -> usize;
}

impl ResidentCount for GpuEngine {
    fn snapshot_resident(&self) -> usize {
        (0..self.context_count())
            .map(|c| self.snapshot(ContextId(c)).resident)
            .sum()
    }
}
