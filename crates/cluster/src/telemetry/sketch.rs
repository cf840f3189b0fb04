//! A small, fixed-size, deterministic quantile sketch for duration
//! distributions (queue wait, job latency).
//!
//! The structure is t-digest-style: the distribution is summarised by at
//! most [`QuantileSketch::capacity`] *centroids*, each an integer
//! nanosecond mean plus a sample count. Unlike the floating-point
//! t-digest, every operation here is integer arithmetic over a totally
//! ordered centroid list, so adding the same samples — or merging the
//! same sub-sketches in the same order — always produces bit-identical
//! centroids. That is the property the fleet needs: per-node sketches
//! merged in ascending node index yield byte-identical JSON regardless
//! of how many worker threads ran the nodes.
//!
//! # Rank-error bound
//!
//! Compression caps every centroid at `ceil(2·n / capacity)` samples
//! (`n` = total count), and a quantile query answers with the mean of
//! the centroid containing the target rank. Within one compression the
//! samples of a centroid are contiguous in sorted order, so the answer's
//! rank is off by less than one centroid's weight; merging sketches can
//! interleave neighbouring centroids' value ranges and widen that by a
//! small constant factor. The documented contract, pinned by the
//! proptests in `tests/telemetry_sketch.rs` over random inputs and the
//! production merge pattern (per-node sketches merged in index order),
//! is [`RANK_ERROR_NUMERATOR`]` / capacity`: the estimate for quantile
//! `p` has a rank within `4·n / capacity + 1` of `p·(n-1)`. With the
//! default capacity of 128 that is ≈ 3 % of the population — and exact
//! (error zero) while `n ≤ capacity / 2`, which covers the per-window
//! sketches of all but the most crowded windows.

/// Default number of centroids a sketch keeps (see the module docs for
/// the resulting rank-error bound).
pub const DEFAULT_SKETCH_CAPACITY: usize = 128;

/// Numerator of the documented rank-error bound: a quantile estimate is
/// within `RANK_ERROR_NUMERATOR · n / capacity + 1` ranks of exact.
pub const RANK_ERROR_NUMERATOR: u64 = 4;

/// One cluster of nearby samples: integer-nanosecond mean and count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Centroid {
    mean: u64,
    count: u64,
}

/// A mergeable, deterministic, fixed-size quantile sketch over `u64`
/// samples (nanoseconds by convention). See the module docs for the
/// determinism and rank-error contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    capacity: usize,
    /// Sorted by mean; at most `capacity + 1` entries after compression.
    centroids: Vec<Centroid>,
    /// Samples not yet folded into centroids (flushed when full).
    buffer: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(DEFAULT_SKETCH_CAPACITY)
    }
}

impl QuantileSketch {
    /// An empty sketch keeping at most `capacity` centroids.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 4` (the compression needs room to work).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "a sketch needs at least 4 centroids");
        QuantileSketch {
            capacity,
            centroids: Vec::new(),
            buffer: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total samples observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no sample was ever added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest observed sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// The largest observed sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds one sample.
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buffer.push(value);
        if self.buffer.len() >= self.capacity {
            self.flush();
        }
    }

    /// Merges `other` into `self`. Deterministic: merging the same
    /// sketches in the same order always yields bit-identical state, so
    /// per-node sketches folded in ascending node index give the same
    /// result for every worker count.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut items = std::mem::take(&mut self.centroids);
        items.extend(other.centroids.iter().copied());
        for &v in self.buffer.iter().chain(other.buffer.iter()) {
            items.push(Centroid { mean: v, count: 1 });
        }
        self.buffer.clear();
        self.centroids = compress(items, self.capacity, self.count);
    }

    /// Folds the buffered samples into the centroid list.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut items = std::mem::take(&mut self.centroids);
        for v in self.buffer.drain(..) {
            items.push(Centroid { mean: v, count: 1 });
        }
        self.centroids = compress(items, self.capacity, self.count);
    }

    /// Estimates the value at quantile `p` (clamped to `[0, 1]`): the
    /// mean of the centroid containing rank `p·(n-1)`, with `p = 0` and
    /// `p = 1` answered exactly from the tracked extremes. Returns 0 for
    /// an empty sketch.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return self.min();
        }
        if p >= 1.0 {
            return self.max;
        }
        // Merge centroids and the (sorted) buffer on the fly: queries are
        // rare (report time), so the copy is cheap and `&self` stays
        // immutable for callers holding a finished sketch.
        let mut items: Vec<Centroid> = self.centroids.clone();
        let mut buf = self.buffer.clone();
        buf.sort_unstable();
        items.extend(buf.into_iter().map(|v| Centroid { mean: v, count: 1 }));
        items.sort_by_key(|c| (c.mean, c.count));
        let target = p * (self.count.saturating_sub(1)) as f64;
        let mut cum = 0u64;
        for c in &items {
            // Ranks [cum, cum + count) live in this centroid.
            if target < (cum + c.count) as f64 {
                return c.mean;
            }
            cum += c.count;
        }
        self.max
    }
}

/// Compresses `items` (centroids in any order) down to at most
/// `capacity + 1` centroids by sorting and greedily merging neighbours,
/// capping each merged centroid at `ceil(2·total / capacity)` samples.
/// Pure function of its inputs — the determinism anchor.
fn compress(mut items: Vec<Centroid>, capacity: usize, total: u64) -> Vec<Centroid> {
    items.sort_by_key(|c| (c.mean, c.count));
    let limit = (2 * total).div_ceil(capacity as u64).max(1);
    let mut out: Vec<Centroid> = Vec::with_capacity(capacity + 1);
    for item in items {
        match out.last_mut() {
            Some(last) if last.count + item.count <= limit => {
                // Integer weighted mean; u128 so `mean · count` cannot
                // overflow (10-second waits over millions of samples).
                let weighted = u128::from(last.mean) * u128::from(last.count)
                    + u128::from(item.mean) * u128::from(item.count);
                let count = last.count + item.count;
                last.mean = u64::try_from(weighted / u128::from(count))
                    .expect("mean of u64 samples fits u64");
                last.count = count;
            }
            _ => out.push(item),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_zero() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn small_populations_are_exact() {
        // Below capacity/2 the compression limit is 1: every sample is
        // its own centroid and quantiles are exact.
        let mut s = QuantileSketch::new(128);
        for v in 1..=50u64 {
            s.add(v * 10);
        }
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(1.0), 500);
        assert_eq!(s.quantile(0.5), s.quantile(0.5));
        // Rank 0.5·(50-1) = 24.5 → the 25th sample (0-based 24) = 250.
        assert_eq!(s.quantile(0.5), 250);
    }

    #[test]
    fn quantiles_stay_ordered_and_bounded() {
        let mut s = QuantileSketch::new(32);
        for i in 0..10_000u64 {
            // A deterministic scramble so insertion order is not sorted.
            s.add((i * 2_654_435_761) % 100_000);
        }
        let q50 = s.quantile(0.5);
        let q90 = s.quantile(0.9);
        let q99 = s.quantile(0.99);
        assert!(q50 <= q90 && q90 <= q99, "{q50} {q90} {q99}");
        assert!(q99 <= s.max());
        assert!(s.quantile(0.0) == s.min());
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn merge_matches_merging_order_determinism() {
        let build = |range: std::ops::Range<u64>| {
            let mut s = QuantileSketch::new(64);
            for v in range {
                s.add((v * 48_271) % 7_919);
            }
            s
        };
        let parts = [build(0..500), build(500..900), build(900..1_700)];
        let mut a = QuantileSketch::new(64);
        for p in &parts {
            a.merge(p);
        }
        let mut b = QuantileSketch::new(64);
        for p in &parts {
            b.merge(p);
        }
        assert_eq!(a, b, "same merge order, bit-identical state");
        assert_eq!(a.count(), 1_700);
        for p in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(p), b.quantile(p));
        }
    }

    #[test]
    fn merged_sketch_tracks_global_extremes() {
        let mut lo = QuantileSketch::new(16);
        lo.add(5);
        lo.add(7);
        let mut hi = QuantileSketch::new(16);
        hi.add(1_000);
        let mut s = QuantileSketch::new(16);
        s.merge(&lo);
        s.merge(&hi);
        assert_eq!(s.min(), 5);
        assert_eq!(s.max(), 1_000);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = QuantileSketch::new(32);
        for i in 0..100_000u64 {
            s.add(i);
        }
        assert!(
            s.centroids.len() <= 33,
            "compression caps the centroid list: {}",
            s.centroids.len()
        );
        assert!(s.buffer.len() < 32);
    }
}
