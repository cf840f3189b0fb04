//! Two-level sharded dispatch: shards of nodes behind a summary router.
//!
//! A flat [`crate::Fleet`] pays O(nodes) admission evaluations per
//! arrival (~40 µs at 64 nodes), which caps how fast the front door can
//! go exactly where the fleet gets interesting. Sharding splits the
//! nodes into contiguous groups and keeps one cached [`ShardSummary`]
//! per group:
//!
//! * **spare budget** — the summed admission headroom (budget − demand,
//!   clamped at zero) of the shard's nodes, decremented incrementally on
//!   placement and recomputed lazily after removals and migrations;
//! * **latency lower bound inputs** — the largest context allocation and
//!   smallest launch overhead in the shard, from which the router
//!   derives a best-case latency no node in the shard can beat.
//!
//! An arrival picks its shard by power-of-two-choices: it probes **two**
//! deterministically chosen shards (a seeded hash of the tenant name and
//! a routing serial) and tries the one with more spare budget first —
//! O(1) in the shard count, the difference between 64 shards and 128
//! shards vanishing from the arrival hot path. The regular
//! [`crate::PlacementPolicy`] then runs inside the chosen shard only.
//! Only when both probes refuse does the planner fall back to a sweep
//! of the remaining shards, so two-choice routing can narrow *where*
//! placement looks but never *whether* a feasible node is found.
//!
//! The summaries are heuristics, not admission decisions: real admission
//! always re-runs inside the shard, and when it disagrees the router
//! simply falls through to the next candidate, degrading to the flat
//! scan in the worst case rather than rejecting wrongly.

use crate::{AdmissionController, FleetNode, TenantSpec};
use std::ops::Range;

/// Cached capacity summary of one shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardSummary {
    /// Σ over the shard's nodes of `max(budget − demand, 0)`.
    spare_budget: f64,
    /// Largest single-context SM allocation of any node in the shard.
    max_context_sm: u32,
    /// Smallest per-stage launch overhead of any node in the shard.
    min_launch_overhead_ns: u64,
}

/// The first routing level: contiguous shards of node indices with
/// lazily maintained [`ShardSummary`]s, consulted by the two-choice
/// probe.
#[derive(Debug)]
pub(crate) struct ShardDirectory {
    shard_size: usize,
    n_nodes: usize,
    summaries: Vec<Option<ShardSummary>>,
    /// Serial mixed into the probe hash so repeated routing attempts
    /// for the same tenant spread over different shard pairs
    /// (deterministic: it advances once per routing decision).
    probe_serial: u64,
}

impl ShardDirectory {
    /// A directory over `n_nodes` nodes in shards of `shard_size` (the
    /// last shard may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    pub(crate) fn new(n_nodes: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "a shard needs at least one node");
        let shards = n_nodes.div_ceil(shard_size).max(1);
        ShardDirectory {
            shard_size,
            n_nodes,
            summaries: vec![None; shards],
            probe_serial: 0,
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.summaries.len()
    }

    /// The node-index range shard `shard` covers.
    pub(crate) fn range(&self, shard: usize) -> Range<usize> {
        let start = shard * self.shard_size;
        start..((start + self.shard_size).min(self.n_nodes))
    }

    /// The shard holding node `node_idx`.
    pub(crate) fn shard_of(&self, node_idx: usize) -> usize {
        node_idx / self.shard_size
    }

    /// Drops the cached summary of the shard holding `node_idx`; it is
    /// recomputed on the next routing decision.
    pub(crate) fn invalidate_node(&mut self, node_idx: usize) {
        let shard = self.shard_of(node_idx);
        self.summaries[shard] = None;
    }

    /// Accounts a committed placement on `node_idx` incrementally: the
    /// shard's spare budget shrinks by the tenant's demand. (The true
    /// budget also shifts with the resident mix; the summary is a
    /// routing heuristic, so the cheap update is preferred over a
    /// recompute.)
    pub(crate) fn note_place(&mut self, node_idx: usize, demand: f64) {
        let shard = self.shard_of(node_idx);
        if let Some(summary) = self.summaries[shard].as_mut() {
            summary.spare_budget = (summary.spare_budget - demand).max(0.0);
        }
    }

    /// The summary of `shard`, recomputing it from the nodes when the
    /// cache was invalidated.
    fn summary(
        &mut self,
        shard: usize,
        nodes: &[FleetNode],
        admission: &AdmissionController,
    ) -> ShardSummary {
        if self.summaries[shard].is_none() {
            let mut spare_budget = 0.0;
            let mut max_context_sm = 0u32;
            let mut min_launch_overhead_ns = u64::MAX;
            for node in &nodes[self.range(shard)] {
                spare_budget +=
                    (admission.budget(node, None) - node.total_demand()).max(0.0);
                max_context_sm = max_context_sm.max(node.max_context_sm());
                min_launch_overhead_ns =
                    min_launch_overhead_ns.min(node.spec.gpu.launch_overhead_ns);
            }
            self.summaries[shard] = Some(ShardSummary {
                spare_budget,
                max_context_sm,
                min_launch_overhead_ns: if min_launch_overhead_ns == u64::MAX {
                    0
                } else {
                    min_launch_overhead_ns
                },
            });
        }
        self.summaries[shard].expect("invariant: summary just refreshed above")
    }

    /// Whether the shard's best-case latency lower bound already rules
    /// `tenant` out (no node inside can ever admit it).
    pub(crate) fn latency_infeasible(
        &mut self,
        shard: usize,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> bool {
        let summary = self.summary(shard, nodes, admission);
        let bound = admission.best_case_latency_at(
            summary.max_context_sm,
            summary.min_launch_overhead_ns,
            tenant,
        );
        bound > tenant.period()
    }

    /// The shards to try first for `tenant`, better probe first: two
    /// distinct shards drawn from a deterministic hash of the tenant
    /// name and the routing serial, feasibility-filtered and ordered
    /// demand-covering first, then most spare budget, then shard index.
    /// Touches exactly two summaries, so the routing cost is independent
    /// of how many shards the fleet has; the caller sweeps the rest only
    /// if both refuse. A single shard is returned unfiltered, so a
    /// whole-fleet shard costs exactly one placement scan, as flat
    /// dispatch does.
    pub(crate) fn route(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> Vec<usize> {
        let n = self.shard_count();
        if n == 1 {
            return vec![0];
        }
        let h = splitmix64(fnv1a(&tenant.name) ^ self.probe_serial.wrapping_mul(0x9E37_79B9));
        self.probe_serial = self.probe_serial.wrapping_add(1);
        let a = (h % n as u64) as usize;
        let b = {
            let b = ((h >> 32) % (n as u64 - 1)) as usize;
            if b >= a { b + 1 } else { b }
        };
        let demand = tenant.demand_sm_equivalents();
        let period = tenant.period();
        let mut probes: Vec<(usize, f64, bool)> = Vec::with_capacity(2);
        for shard in [a, b] {
            let summary = self.summary(shard, nodes, admission);
            let bound = admission.best_case_latency_at(
                summary.max_context_sm,
                summary.min_launch_overhead_ns,
                tenant,
            );
            if bound > period {
                continue;
            }
            probes.push((shard, summary.spare_budget, summary.spare_budget >= demand));
        }
        probes.sort_by(|x, y| {
            y.2.cmp(&x.2)
                .then(y.1.total_cmp(&x.1))
                .then(x.0.cmp(&y.0))
        });
        probes.into_iter().map(|(shard, _, _)| shard).collect()
    }
}

/// FNV-1a over the tenant name: a stable, dependency-free string hash
/// (the std hasher is seeded per process and would break determinism).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The splitmix64 finalizer: spreads the probe hash over both halves so
/// the two shard draws are decorrelated.
fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DispatchOutcome, Fleet, FleetConfig, ModelKind, NodeSpec};
    use sgprs_gpu_sim::GpuSpec;
    use sgprs_rt::SimDuration;

    fn nodes(n: usize) -> Vec<NodeSpec> {
        (0..n)
            .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
            .collect()
    }

    fn tenant(i: usize) -> TenantSpec {
        TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0)
    }

    fn shard_ranges(fleet: &Fleet) -> Vec<Range<usize>> {
        let router = fleet.router().expect("sharding is configured");
        (0..router.shard_count()).map(|s| router.range(s)).collect()
    }

    #[test]
    fn shards_partition_the_nodes() {
        let fleet = Fleet::new(FleetConfig::new(nodes(10)).with_sharding(4));
        assert_eq!(fleet.router().map(ShardDirectory::shard_count), Some(3));
        assert_eq!(shard_ranges(&fleet), vec![0..4, 4..8, 8..10]);
        let covered: usize = shard_ranges(&fleet).iter().map(|r| r.len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn p2c_dispatch_saturates_at_the_same_population_as_flat() {
        let mut flat = Fleet::new(FleetConfig::new(nodes(8)));
        let mut p2c = Fleet::new(FleetConfig::new(nodes(8)).with_sharding(2));
        let mut flat_placed = 0;
        let mut p2c_placed = 0;
        for i in 0..300 {
            if matches!(flat.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                flat_placed += 1;
            }
            if matches!(p2c.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                p2c_placed += 1;
            }
        }
        // The fallback sweep guarantees p2c never strands capacity the
        // flat scan would use.
        assert_eq!(flat_placed, p2c_placed, "same capacity either way");
        assert!(p2c.queued() > 0);
    }

    #[test]
    fn p2c_spreads_load_across_every_shard() {
        let mut fleet = Fleet::new(FleetConfig::new(nodes(8)).with_sharding(2));
        for i in 0..32 {
            assert!(matches!(
                fleet.dispatch(tenant(i)),
                DispatchOutcome::Placed(_)
            ));
        }
        for range in shard_ranges(&fleet) {
            let resident: usize = fleet.nodes()[range.clone()]
                .iter()
                .map(|n| n.tenants.len())
                .sum();
            assert!(resident > 0, "shard {range:?} left idle");
        }
    }

    #[test]
    fn p2c_routing_is_deterministic() {
        let run_once = || {
            let mut fleet = Fleet::new(FleetConfig::new(nodes(12)).with_sharding(3));
            (0..24)
                .map(|i| match fleet.dispatch(tenant(i)) {
                    DispatchOutcome::Placed(idx) => idx,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once(), "same seq of routing decisions");
    }

    #[test]
    fn latency_infeasible_shards_are_skipped() {
        // Shard 0 holds tiny devices that can never meet a ResNet34@60fps
        // deadline; shard 1 holds full devices that can. The router must
        // land the tenant in shard 1 without ever scanning shard 0's
        // nodes through the placement policy.
        let mut specs = vec![
            NodeSpec::sgprs("tiny0", GpuSpec::synthetic(12)),
            NodeSpec::sgprs("tiny1", GpuSpec::synthetic(12)),
        ];
        specs.extend(nodes(2));
        let mut fleet = Fleet::new(FleetConfig::new(specs).with_sharding(2));
        let heavy = TenantSpec::new("r34", ModelKind::ResNet34, 60.0);
        match fleet.dispatch(heavy) {
            DispatchOutcome::Placed(idx) => assert!(idx >= 2, "placed on a full device"),
            other => panic!("expected placement, got {other:?}"),
        }
    }

    #[test]
    fn p2c_fallback_finds_the_only_feasible_shard() {
        // Three of four shards hold tiny devices a ResNet34@60fps tenant
        // can never run on; whatever pair p2c probes, the fallback sweep
        // must land it in the single feasible shard.
        let mut specs: Vec<NodeSpec> = (0..6)
            .map(|i| NodeSpec::sgprs(format!("tiny{i}"), GpuSpec::synthetic(12)))
            .collect();
        specs.extend(nodes(2));
        let mut fleet = Fleet::new(FleetConfig::new(specs).with_sharding(2));
        for k in 0..8 {
            let heavy = TenantSpec::new(format!("r34-{k}"), ModelKind::ResNet34, 60.0);
            match fleet.dispatch(heavy) {
                DispatchOutcome::Placed(idx) => assert!(idx >= 6, "full device only"),
                DispatchOutcome::Queued => {} // the feasible shard saturated
                other => panic!("expected placement or queue, got {other:?}"),
            }
        }
    }

    #[test]
    fn summaries_survive_remove_and_requeue_cycles() {
        let mut fleet = Fleet::new(FleetConfig::new(nodes(4)).with_sharding(2));
        let mut names = Vec::new();
        let mut i = 0;
        loop {
            let t = tenant(i);
            let name = t.name.clone();
            match fleet.dispatch(t) {
                DispatchOutcome::Placed(_) => names.push(name),
                DispatchOutcome::Queued => break,
                other => panic!("unexpected {other:?}"),
            }
            i += 1;
        }
        assert_eq!(fleet.queued(), 1);
        // A departure invalidates the shard summary; the queued tenant
        // must still find the freed room.
        assert!(fleet.remove(&names[0]));
        assert_eq!(fleet.drain_queue(), 1);
        assert_eq!(fleet.queued(), 0);
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run_once = || {
            let cfg = FleetConfig::new(nodes(6)).with_seed(11);
            let mut fleet = Fleet::new(cfg.with_sharding(2));
            let trace = crate::ChurnTrace::generate(
                &crate::ChurnConfig::default(),
                SimDuration::from_secs(3),
                5,
            );
            fleet.run(trace, SimDuration::from_secs(3))
        };
        assert_eq!(run_once(), run_once());
    }
}
