//! Outer-relation sampling for partition sizing (paper §3.4 and §4.2).
//!
//! The number of samples comes from the **Kolmogorov test statistic**
//! (\[Con71\], as used for band-joins by \[DNS91\]): with 99% confidence
//! the percentile of each chosen partitioning chronon differs from the
//! exact choice by at most `1.63/√m`, so an error budget of `errorSize`
//! pages out of `|r|` pages requires
//!
//! ```text
//! (1.63 · |r|) / √m ≤ errorSize   ⇒   m ≥ ((1.63 · |r|) / errorSize)²
//! ```
//!
//! Sampling one tuple costs one random page read. §4.2 observes that once
//! `m · IO_ran` exceeds the cost of scanning the whole outer relation
//! (`IO_ran + (|r| − 1) · IO_seq`), it is cheaper to scan sequentially and
//! draw the samples from the paged-in pages — making the sampling cost
//! proportional to the relation's page count. [`collect_pool`] implements
//! both regimes and charges whichever is cheaper.

use crate::common::{JoinError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vtjoin_core::Interval;
use vtjoin_storage::{CostRatio, HeapFile};

/// The Kolmogorov 99%-confidence coefficient.
pub const KOLMOGOROV_99: f64 = 1.63;

/// Number of samples required so that, with 99% confidence, each chosen
/// partition boundary is within `error_pages` pages of the exact boundary
/// of an `r_pages`-page relation. Saturates at `u64::MAX`.
pub fn kolmogorov_samples(r_pages: u64, error_pages: u64) -> u64 {
    if error_pages == 0 {
        return u64::MAX;
    }
    let ratio = KOLMOGOROV_99 * r_pages as f64 / error_pages as f64;
    let m = (ratio * ratio).ceil();
    if m >= u64::MAX as f64 {
        u64::MAX
    } else {
        (m as u64).max(1)
    }
}

/// Cost of sequentially scanning a `pages`-page file: one seek plus
/// `pages − 1` sequential reads.
pub fn scan_cost(pages: u64, ratio: CostRatio) -> u64 {
    if pages == 0 {
        0
    } else {
        ratio.random + (pages - 1)
    }
}

/// Estimated cost of drawing `m` samples from an `r_pages`-page relation:
/// `m` random reads, capped at one full sequential scan (§4.2).
pub fn sample_cost(m: u64, r_pages: u64, ratio: CostRatio) -> u64 {
    let random_cost = m.saturating_mul(ratio.random);
    random_cost.min(scan_cost(r_pages, ratio))
}

/// A randomly ordered pool of sampled valid-time intervals. Any prefix of
/// the pool is itself a uniform random sample, which is how the planner's
/// incremental per-candidate sampling (Figure 10) is realized.
#[derive(Debug, Clone)]
pub struct SamplePool {
    intervals: Vec<Interval>,
    /// Total tuples in the sampled relation (for scale-up estimates).
    pub population: u64,
    /// Whether the pool was collected via a full sequential scan.
    pub scanned: bool,
}

impl SamplePool {
    /// The sampled intervals, randomly ordered.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The first `m` intervals — a uniform random subsample (clamped to the
    /// pool size).
    pub fn prefix(&self, m: u64) -> &[Interval] {
        &self.intervals[..(m as usize).min(self.intervals.len())]
    }
}

/// Physically collects a sample pool of up to `m_target` tuples from
/// `heap`, charging real I/O:
///
/// * if `m_target` random reads are cheaper than one scan, draws `m_target`
///   distinct tuples by random page reads (one read per sample, as the
///   paper charges it);
/// * otherwise scans the relation once and reservoir-samples during the
///   scan (the §4.2 optimization), shuffling afterwards so pool prefixes
///   stay uniform.
///
/// Either way only intervals are read: pages are walked as records
/// (checksum and cataloged count checked, no tuple built), and a random
/// read walks its page only up to the sampled slot.
pub fn collect_pool(
    heap: &HeapFile,
    m_target: u64,
    ratio: CostRatio,
    seed: u64,
) -> Result<SamplePool> {
    let population = heap.tuples();
    let m_target = m_target.min(population);
    let mut rng = StdRng::seed_from_u64(seed);

    if m_target == 0 || population == 0 {
        return Ok(SamplePool {
            intervals: Vec::new(),
            population,
            scanned: false,
        });
    }

    let random_cost = m_target.saturating_mul(ratio.random);
    if random_cost < scan_cost(heap.pages(), ratio) {
        // Random sampling without replacement: draw distinct tuple indices,
        // then one page read per sample (duplicate page reads are charged
        // again — a fresh random access each, exactly as the paper counts).
        let indices = sample_indices(&mut rng, population, m_target);
        let mut intervals = Vec::with_capacity(indices.len());
        for idx in indices {
            // A miss here means the sampler and the catalog disagree about
            // the population — surfaced as a typed error (not a panic) so
            // a fault-injected planning pass can degrade gracefully.
            let (page, slot) = heap.locate_tuple(idx).ok_or(JoinError::Internal(
                "sampled tuple index outside the heap population",
            ))?;
            intervals.push(heap.record_interval(page, slot)?);
        }
        intervals.shuffle(&mut rng);
        Ok(SamplePool {
            intervals,
            population,
            scanned: false,
        })
    } else {
        // Sequential scan with reservoir sampling.
        let mut reservoir: Vec<Interval> = Vec::with_capacity(m_target as usize);
        let mut seen = 0u64;
        for p in 0..heap.pages() {
            heap.for_each_record(p, |rec| {
                seen += 1;
                if (reservoir.len() as u64) < m_target {
                    reservoir.push(rec.valid());
                } else {
                    let j = rng.gen_range(0..seen);
                    if j < m_target {
                        reservoir[j as usize] = rec.valid();
                    }
                }
                Ok(())
            })?;
        }
        reservoir.shuffle(&mut rng);
        Ok(SamplePool {
            intervals: reservoir,
            population,
            scanned: true,
        })
    }
}

/// Draws `m` distinct indices from `[0, n)` (Floyd's algorithm), in random
/// order.
fn sample_indices(rng: &mut StdRng, n: u64, m: u64) -> Vec<u64> {
    use std::collections::HashSet;
    debug_assert!(m <= n);
    let mut chosen: HashSet<u64> = HashSet::with_capacity(m as usize);
    let mut out = Vec::with_capacity(m as usize);
    for j in (n - m)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out.shuffle(rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};
    use vtjoin_storage::SharedDisk;

    fn heap_with(n: i64) -> (SharedDisk, HeapFile) {
        let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared();
        let tuples = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i)], Interval::from_raw(i, i + 2).unwrap()))
            .collect();
        let rel = Relation::from_parts_unchecked(Arc::clone(&schema), tuples);
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &rel).unwrap();
        (disk, heap)
    }

    #[test]
    fn kolmogorov_bound_formula() {
        // Worked example: 8192-page relation, 100 error pages.
        let m = kolmogorov_samples(8192, 100);
        let exact = (1.63f64 * 8192.0 / 100.0).powi(2).ceil() as u64;
        assert_eq!(m, exact);
        assert!(m > 17_000 && m < 18_000);
        // Degenerate cases.
        assert_eq!(kolmogorov_samples(100, 0), u64::MAX);
        assert!(kolmogorov_samples(0, 5) >= 1);
        // Monotone: smaller error → more samples.
        assert!(kolmogorov_samples(8192, 10) > kolmogorov_samples(8192, 100));
    }

    #[test]
    fn paper_819_samples_worked_example() {
        // §4.2: at a 10:1 ratio, 819 random samples cost less than scanning
        // the whole 8192-page outer relation; 820 does not.
        let ratio = CostRatio::R10;
        let scan = scan_cost(8192, ratio);
        assert_eq!(scan, 10 + 8191);
        // The paper approximates the scan as 8192 sequential reads, giving
        // the break-even at exactly 819 samples; with the seek accounted
        // the break-even is one sample later — same conclusion.
        assert!(819 * 10 < scan);
        assert!(821 * 10 > scan);
        assert_eq!(sample_cost(819, 8192, ratio), 8190);
        assert_eq!(sample_cost(100_000, 8192, ratio), scan);
    }

    #[test]
    fn random_regime_charges_per_sample() {
        let (disk, heap) = heap_with(400); // 100 pages
        disk.reset_stats();
        let pool = collect_pool(&heap, 5, CostRatio::R10, 42).unwrap();
        assert_eq!(pool.len(), 5);
        assert!(!pool.scanned);
        let s = disk.stats();
        assert_eq!(s.random_reads + s.seq_reads, 5);
        // Each stand-alone page read is random.
        assert_eq!(s.random_reads, 5);
    }

    #[test]
    fn scan_regime_reads_whole_relation_once() {
        let (disk, heap) = heap_with(400); // 100 pages
        disk.reset_stats();
        // 50 samples × 10 = 500 ≥ scan cost 109 → scan regime.
        let pool = collect_pool(&heap, 50, CostRatio::R10, 42).unwrap();
        assert_eq!(pool.len(), 50);
        assert!(pool.scanned);
        let s = disk.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, heap.pages() - 1);
    }

    #[test]
    fn pool_prefixes_are_subsamples() {
        let (_, heap) = heap_with(100);
        let pool = collect_pool(&heap, 100, CostRatio::R2, 1).unwrap();
        assert_eq!(pool.len(), 100);
        assert_eq!(pool.prefix(10).len(), 10);
        assert_eq!(pool.prefix(1_000_000).len(), 100);
        // Distinct tuples have distinct intervals in this fixture: the pool
        // must have no duplicates (sampling without replacement).
        let mut seen = pool.intervals().to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (_, heap) = heap_with(200);
        let a = collect_pool(&heap, 20, CostRatio::R10, 7).unwrap();
        let b = collect_pool(&heap, 20, CostRatio::R10, 7).unwrap();
        let c = collect_pool(&heap, 20, CostRatio::R10, 8).unwrap();
        assert_eq!(a.intervals(), b.intervals());
        assert_ne!(a.intervals(), c.intervals());
    }

    #[test]
    fn empty_and_oversized_requests() {
        let (_, heap) = heap_with(10);
        let empty = collect_pool(&heap, 0, CostRatio::R5, 1).unwrap();
        assert!(empty.is_empty());
        let all = collect_pool(&heap, 1_000, CostRatio::R5, 1).unwrap();
        assert_eq!(all.len(), 10, "clamped to population");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, m) in [(10u64, 10u64), (100, 7), (5, 1), (1000, 999)] {
            let idx = sample_indices(&mut rng, n, m);
            assert_eq!(idx.len(), m as usize);
            assert!(idx.iter().all(|&i| i < n));
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), m as usize, "distinct");
        }
    }
}
