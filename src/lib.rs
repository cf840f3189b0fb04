//! Umbrella crate for the SGPRS reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples under
//! `examples/` and the integration tests under `tests/` can use a single
//! dependency. Library users should depend on the individual crates
//! (`sgprs-core`, `sgprs-gpu-sim`, ...) directly.
//!
//! # Layer map
//!
//! * [`rt`] — simulated time, the periodic task model, EDF queues, and
//!   classic schedulability analysis.
//! * [`gpu_sim`] — the discrete-event GPU: contexts, prioritised
//!   streams, calibrated speedup curves, contention, tracing.
//! * [`dnn`] — the model zoo (ResNet18/34, VGG-16, AlexNet, MobileNet),
//!   the cost model, and stage partitioning.
//! * [`core`] — the SGPRS scheduler itself plus the naive and
//!   reconfiguring baselines, with shared metrics.
//! * [`cluster`] — the multi-GPU fleet: generator-driven arrival
//!   streams (`cluster::ArrivalStream`, lazy pull in O(active-tenants)
//!   memory, byte-identical to the materialised trace) feeding
//!   dispatching (flat, or two-level sharded via
//!   `cluster::FleetConfig::with_sharding`, routed by O(1)
//!   power-of-two-choices shard probes for 512–10,000-node fleets),
//!   utilisation-bound admission control, placement policies,
//!   policy-ordered wait queueing
//!   (`cluster::QueuePolicy`: FIFO, priority-weight, earliest queue
//!   deadline, weighted-fair with aging) with an fps re-pricing ladder
//!   (admit degraded instead of rejecting, upgrade back in place as
//!   capacity frees) and demand-aware expiry (provably hopeless waiters
//!   drop early), tenant churn with names interned to dense `u32` ids
//!   at the fleet boundary (`cluster::TenantInterner`: first-appearance
//!   order, LIFO slot recycling, names resolved only at the JSON render
//!   edge — the id table stays sized by the peak active population,
//!   millions of tenants per run), migration (LIFO or demand-aware
//!   victim selection), parallel per-epoch node execution with deterministic
//!   metrics, and fleet-level metrics with a golden-pinned,
//!   schema-versioned JSON export. Every dispatch decision lives in the
//!   shared `cluster::policy` kernel, consumed identically by both
//!   execution modes: the classic epoch grid, and the `cluster::event`
//!   discrete-event core (`Fleet::run_events`) — exact
//!   release/departure boundaries, zero epoch truncation, and mid-epoch
//!   migration paying an explicit state-transfer stall while re-pricing
//!   switches stay free, all driven by a hierarchical timing-wheel
//!   event queue whose pop order is byte-identical to the binary heap
//!   it replaced (O(1) amortised push/pop, allocation-free steady
//!   state, ~0.4 allocs/event at metro scale with versioned per-node
//!   capacity caches). The opt-in `cluster::telemetry` layer observes
//!   both engines without steering either: windowed time-series,
//!   mergeable deterministic quantile sketches (p50/p90/p99 queue wait
//!   and job latency in O(1) memory per node), an opt-in decision-trace
//!   ring, and hot-path profile counters — exported as schema v3 when
//!   enabled, byte-identical to the base schema v2 export when off.
//! * [`workload`] — scenarios and sweeps reproducing the paper's figures
//!   and the fleet-serving experiments beyond them.

pub use sgprs_cluster as cluster;
pub use sgprs_core as core;
pub use sgprs_dnn as dnn;
pub use sgprs_gpu_sim as gpu_sim;
pub use sgprs_rt as rt;
pub use sgprs_workload as workload;
