//! Lazy arrival streaming: churn pulled one event at a time.
//!
//! [`crate::ChurnTrace::generate`] materialises every arrival and
//! departure up front — O(trace) memory, which caps how much churn a
//! run can offer. An [`ArrivalStream`] delivers the *same* time-ordered
//! `(SimTime, ChurnEvent)` sequence lazily: the generator draws the
//! next arrival on demand and holds only the pending departures of
//! currently-live tenants, so memory is O(active tenants) no matter how
//! many millions of tenants the horizon covers.
//!
//! # Equivalence contract
//!
//! For the same `(config, horizon, seed)`,
//! [`ArrivalStream::generate`] yields **byte-identical** events, in the
//! identical order, to `ChurnTrace::generate(..).into_sorted()`. Both
//! pull from the one [`crate::churn::ChurnSampler`], so the RNG draw
//! order cannot drift; the merge below reproduces the materialised
//! path's *stable sort* tie-breaking exactly: at an equal instant, a
//! pending departure (pushed by an earlier arrival) precedes the next
//! arrival, a tenant's own zero-lifetime departure follows its arrival,
//! and same-instant departures keep generation order.

use crate::churn::{ChurnSampler, SampledArrival};
use crate::{ChurnConfig, ChurnEvent, ChurnTrace};
use sgprs_rt::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A time-ordered source of churn events, pulled lazily.
///
/// Built either [`ArrivalStream::generate`]d (O(active) memory) or
/// [`From`] a materialised [`ChurnTrace`] (tests, hand-built
/// populations, metro burst overlays). [`crate::Fleet::run`],
/// [`crate::Fleet::run_events`], and [`crate::Fleet::run_configured`]
/// accept either through `impl Into<ArrivalStream>`.
#[derive(Debug)]
pub struct ArrivalStream {
    /// One-event lookahead so callers can peek the next instant without
    /// consuming it (the epoch loop's boundary check).
    lookahead: Option<(SimTime, ChurnEvent)>,
    inner: StreamInner,
}

#[derive(Debug)]
enum StreamInner {
    /// A pre-materialised trace, already sorted.
    Materialised(VecDeque<(SimTime, ChurnEvent)>),
    /// The lazy generator.
    Generated(Box<ChurnGen>),
}

/// The lazy churn generator: the shared sampler plus the pending
/// departures of live tenants, merged into one sorted sequence.
#[derive(Debug)]
struct ChurnGen {
    sampler: ChurnSampler,
    /// The next arrival, drawn but not yet emitted.
    next_arrival: Option<SampledArrival>,
    /// Departures of already-emitted arrivals, keyed `(time, serial)` —
    /// the serial is the arrival's emission index, so same-instant
    /// departures keep generation order (the stable-sort order of the
    /// materialised path). Holds one entry per live tenant: the
    /// O(active) bound.
    pending: BinaryHeap<Reverse<(SimTime, u64, String)>>,
    /// Emission serial of the next arrival.
    emitted: u64,
}

impl ChurnGen {
    fn next_event(&mut self) -> Option<(SimTime, ChurnEvent)> {
        if self.next_arrival.is_none() {
            self.next_arrival = self.sampler.next_arrival();
        }
        // A pending departure was pushed by an earlier arrival, so on an
        // equal instant it precedes the next arrival — exactly the
        // materialised trace's stable-sort order. A tenant's own
        // zero-lifetime departure cannot jump its arrival: it only
        // enters `pending` when the arrival is emitted below.
        let depart_first = match (self.pending.peek(), &self.next_arrival) {
            (Some(Reverse((dt, _, _))), Some(arr)) => *dt <= arr.at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if depart_first {
            let Reverse((t, _, name)) = self
                .pending
                .pop()
                .expect("invariant: a peeked pending departure exists");
            return Some((t, ChurnEvent::Departure(name)));
        }
        let arrival = self.next_arrival.take()?;
        if let Some(departure) = arrival.departure {
            self.pending
                .push(Reverse((departure, self.emitted, arrival.tenant.name.clone())));
        }
        self.emitted += 1;
        Some((arrival.at, ChurnEvent::Arrival(arrival.tenant)))
    }
}

impl ArrivalStream {
    /// A lazily generated stream over `[0, horizon)` — the same event
    /// sequence as `ChurnTrace::generate(cfg, horizon, seed)` sorted,
    /// in O(active-tenants) memory.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, all weights are zero, or the mean
    /// inter-arrival gap is zero (as the materialised generator does).
    #[must_use]
    pub fn generate(cfg: &ChurnConfig, horizon: SimDuration, seed: u64) -> Self {
        ArrivalStream {
            lookahead: None,
            inner: StreamInner::Generated(Box::new(ChurnGen {
                sampler: ChurnSampler::new(cfg, horizon, seed),
                next_arrival: None,
                pending: BinaryHeap::new(),
                emitted: 0,
            })),
        }
    }

    /// `true` when the stream is generator-driven (lazy), `false` for a
    /// materialised trace.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        matches!(self.inner, StreamInner::Generated(_))
    }

    /// The instant of the next event without consuming it.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.lookahead.is_none() {
            self.lookahead = self.pull();
        }
        self.lookahead.as_ref().map(|&(t, _)| t)
    }

    /// The next event in time order.
    pub fn next_event(&mut self) -> Option<(SimTime, ChurnEvent)> {
        self.lookahead.take().or_else(|| self.pull())
    }

    fn pull(&mut self) -> Option<(SimTime, ChurnEvent)> {
        match &mut self.inner {
            StreamInner::Materialised(events) => events.pop_front(),
            StreamInner::Generated(gen) => gen.next_event(),
        }
    }
}

impl From<ChurnTrace> for ArrivalStream {
    fn from(trace: ChurnTrace) -> Self {
        ArrivalStream {
            lookahead: None,
            inner: StreamInner::Materialised(VecDeque::from(trace.into_sorted())),
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = (SimTime, ChurnEvent);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The equivalence contract, module-level: generated streams match
    /// the materialised trace byte for byte (the end-to-end suite pins
    /// the same property over the fleet's JSON export).
    #[test]
    fn generated_stream_matches_materialised_trace() {
        for seed in [1u64, 7, 42, 0x5672_5053] {
            let cfg = ChurnConfig {
                mean_interarrival: SimDuration::from_millis(40),
                min_lifetime: SimDuration::from_millis(100),
                max_lifetime: SimDuration::from_secs(3),
                ..ChurnConfig::default()
            };
            let horizon = SimDuration::from_secs(10);
            let lazy: Vec<_> = ArrivalStream::generate(&cfg, horizon, seed).collect();
            let eager = ChurnTrace::generate(&cfg, horizon, seed).into_sorted();
            assert_eq!(lazy, eager, "seed {seed}");
        }
    }

    /// Zero lifetimes put a tenant's departure at its own arrival
    /// instant — the stable-sort tie the merge must not flip.
    #[test]
    fn zero_lifetime_ties_keep_arrival_before_departure() {
        let cfg = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(10),
            min_lifetime: SimDuration::ZERO,
            max_lifetime: SimDuration::ZERO,
            ..ChurnConfig::default()
        };
        let horizon = SimDuration::from_secs(2);
        let lazy: Vec<_> = ArrivalStream::generate(&cfg, horizon, 9).collect();
        let eager = ChurnTrace::generate(&cfg, horizon, 9).into_sorted();
        assert_eq!(lazy, eager);
        let mut alive = std::collections::HashSet::new();
        for (_, e) in &lazy {
            match e {
                ChurnEvent::Arrival(t) => assert!(alive.insert(t.name.clone())),
                ChurnEvent::Departure(n) => assert!(alive.remove(n), "arrival first: {n}"),
            }
        }
    }

    #[test]
    fn materialised_streams_replay_their_trace() {
        let cfg = ChurnConfig::default();
        let horizon = SimDuration::from_secs(5);
        let trace = ChurnTrace::generate(&cfg, horizon, 3);
        let expected = trace.clone().into_sorted();
        let mut stream = ArrivalStream::from(trace);
        assert!(!stream.is_streaming());
        assert_eq!(stream.peek_time(), expected.first().map(|&(t, _)| t));
        let replayed: Vec<_> = stream.collect();
        assert_eq!(replayed, expected);
    }

    /// The memory contract: the generator's pending-departure heap holds
    /// one entry per live tenant, never the whole trace.
    #[test]
    fn generator_holds_only_live_departures() {
        let cfg = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(5),
            min_lifetime: SimDuration::from_millis(50),
            max_lifetime: SimDuration::from_millis(200),
            ..ChurnConfig::default()
        };
        let mut stream = ArrivalStream::generate(&cfg, SimDuration::from_secs(20), 5);
        let mut live = 0usize;
        let mut events = 0usize;
        while let Some((_, e)) = stream.next_event() {
            match e {
                ChurnEvent::Arrival(_) => live += 1,
                ChurnEvent::Departure(_) => live -= 1,
            }
            events += 1;
            if let StreamInner::Generated(gen) = &stream.inner {
                assert!(
                    gen.pending.len() <= live,
                    "pending departures ({}) exceed live tenants ({live})",
                    gen.pending.len()
                );
            }
        }
        assert!(events > 1000, "a real volume was streamed: {events}");
    }
}
