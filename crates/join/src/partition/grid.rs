//! 2D (key × time) grid planning.
//!
//! The paper partitions along one axis — valid time — so one skewed time
//! range caps parallel speedup no matter how many workers are available:
//! the largest partition is indivisible. Following the parallel spatial-
//! join literature (uniform grids with per-cell mini-joins and
//! replicate-along-one-axis deduplication), this module extends the
//! Kolmogorov-sampled time boundaries with a second, *hash* axis over the
//! join key: a cell is a (key-bucket, time-range) pair.
//!
//! Two properties make the key axis free of correctness concerns:
//!
//! * **matches co-bucket by construction** — the bucket of a tuple is a
//!   mask of its deterministic join-key hash ([`JoinSpec::outer_key_hash`]
//!   / [`JoinSpec::inner_key_hash`]), and a matching pair has equal keys,
//!   hence equal hashes, hence the same bucket. Tuples therefore replicate
//!   **only along the time axis** (the Leung–Muntz `replica_range` rule),
//!   never across key buckets: a K×N grid holds exactly as many tuple
//!   replicas as the 1×N time-only partitioning.
//! * **the canonical-partition emit rule generalizes unchanged** — a pair
//!   co-resides in every cell of its bucket row that its overlap spans,
//!   and is emitted only from the *canonical cell*: the one whose time
//!   range contains the overlap's endpoint. That is the same
//!   `contains_chronon(overlap.end())` filter the kernels already apply
//!   per time range, so every result tuple is emitted exactly once.
//!
//! Granularity is a cost decision, exactly like `partSize` in the
//! Figure 10 planner: [`plan_grid`] histograms both inputs over the finest
//! candidate grid, folds the histogram down to each coarser power-of-two
//! bucket count, prices each candidate with the
//! [`crate::cost::grid_makespan`] model, and keeps the cheapest —
//! **collapsing back to 1×N (time-only) when the key axis would not pay**,
//! i.e. when splitting the heaviest cell no longer shortens the critical
//! path enough to cover the added per-cell overhead.

use super::intervals::replica_range;
use crate::common::JoinSpec;
use crate::cost::{grid_makespan, GRID_CELL_OVERHEAD};
use std::fmt;
use vtjoin_core::{Interval, Relation};

/// Upper bound on the key-axis bucket count [`plan_grid`] will consider.
/// Beyond this, per-cell overhead dominates any balance gain at the
/// thread counts a single host offers.
pub const MAX_KEY_BUCKETS: u64 = 64;

/// Upper bound on the time-axis partition count a caller may ask
/// [`super::intervals::equal_width`] for (the CLI's `--partitions`). The
/// partition list and the grid built on it are sized by this count, so a
/// count that comes from outside the program is checked against it
/// before anything is allocated.
pub const MAX_TIME_PARTITIONS: u64 = 1 << 16;

/// Upper bound on the worker threads one in-memory run may spawn (the
/// CLI's `join --threads`, `serve --threads-per-query`, and `serve
/// --concurrency` submitter threads). A run spawns `min(threads, cells)`
/// workers, so a count from outside the program is checked against this
/// before any thread starts.
pub const MAX_WORKERS: u64 = 1 << 10;

/// How the grid's key axis is chosen (CLI `--grid`, serve `grid=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridChoice {
    /// The cost model picks the bucket count, including collapsing to
    /// time-only when the key axis would not pay. The default.
    Auto,
    /// Time-only: one key bucket, the paper's original 1×N partitioning.
    TimeOnly,
    /// Key axis forced on: the cost model picks among K ≥ 2.
    KeyTime,
    /// An explicit bucket count, rounded up to a power of two and capped
    /// at [`MAX_KEY_BUCKETS`]. `Fixed(1)` is equivalent to [`GridChoice::TimeOnly`].
    Fixed(u64),
}

impl GridChoice {
    /// Parses the CLI/request grammar: `auto`, `1xN` (time-only), `KxN`
    /// (key axis forced, cost-chosen K), or an explicit `<k>xN`.
    pub fn parse(s: &str) -> Option<GridChoice> {
        match s {
            "auto" => Some(GridChoice::Auto),
            "1xN" | "1xn" => Some(GridChoice::TimeOnly),
            "KxN" | "kxn" | "Kxn" | "kxN" => Some(GridChoice::KeyTime),
            _ => {
                let k = s.strip_suffix("xN").or_else(|| s.strip_suffix("xn"))?;
                let k: u64 = k.parse().ok()?;
                if k == 0 {
                    return None;
                }
                Some(if k == 1 {
                    GridChoice::TimeOnly
                } else {
                    GridChoice::Fixed(k)
                })
            }
        }
    }
}

impl fmt::Display for GridChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridChoice::Auto => write!(f, "auto"),
            GridChoice::TimeOnly => write!(f, "1xN"),
            GridChoice::KeyTime => write!(f, "KxN"),
            GridChoice::Fixed(k) => write!(f, "{k}xN"),
        }
    }
}

/// A chosen grid shape: `key_buckets` hash buckets × the time intervals.
/// `key_buckets` is always a power of two so bucket assignment is a mask
/// and histogram folding between candidate counts is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// Key-axis bucket count (power of two, ≥ 1; 1 = time-only).
    pub key_buckets: u64,
    /// Time-axis partitioning intervals (cover all of valid time).
    pub intervals: Vec<Interval>,
}

impl GridPlan {
    /// The 1×N time-only plan — the paper's original partitioning as a
    /// degenerate grid.
    pub fn time_only(intervals: Vec<Interval>) -> GridPlan {
        GridPlan {
            key_buckets: 1,
            intervals,
        }
    }

    /// A K×N plan with `k` rounded up to a power of two within
    /// [`MAX_KEY_BUCKETS`].
    pub fn with_buckets(k: u64, intervals: Vec<Interval>) -> GridPlan {
        GridPlan {
            key_buckets: k.max(1).next_power_of_two().min(MAX_KEY_BUCKETS),
            intervals,
        }
    }

    /// Total cell count `K × N`.
    pub fn cells(&self) -> usize {
        self.key_buckets as usize * self.intervals.len()
    }

    /// Key bucket of a join-key hash: the low bits. Matching tuples hash
    /// identically, so both sides of every result pair land here together.
    #[inline]
    pub fn key_bucket(&self, hash: u64) -> usize {
        (hash & (self.key_buckets - 1)) as usize
    }

    /// Flat cell index, **time-major**: cell (bucket `b`, time range `i`)
    /// lives at `i * K + b`. Time-major order makes the 1×N grid's cell
    /// order coincide with the time-only executor's partition order, so
    /// collapsing the key axis is byte-identical, not merely equivalent.
    #[inline]
    pub fn cell_index(&self, bucket: usize, part: usize) -> usize {
        part * self.key_buckets as usize + bucket
    }

    /// The time interval of a flat cell index — the cell's canonical emit
    /// window.
    #[inline]
    pub fn cell_interval(&self, cell: usize) -> Interval {
        self.intervals[cell / self.key_buckets as usize]
    }
}

/// One row of the grid planner's candidate table: the estimated work
/// profile of a `key_buckets × N` grid over the histogrammed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCandidate {
    /// Candidate key-axis bucket count (power of two).
    pub key_buckets: u64,
    /// Estimated total work: `Σ |r_c|·|s_c|` over all cells.
    pub est_cost_total: u64,
    /// Estimated heaviest cell.
    pub est_cost_max: u64,
    /// Cells with any estimated work.
    pub occupied_cells: u64,
    /// The makespan objective ([`grid_makespan`]) this candidate scored.
    pub est_makespan: u64,
}

impl GridCandidate {
    /// The heaviest cell's share of total estimated work, in percent.
    pub fn max_cell_share_percent(&self) -> u64 {
        (self.est_cost_max * 100)
            .checked_div(self.est_cost_total)
            .unwrap_or(0)
    }
}

/// The chosen plan plus the candidate table behind the choice.
#[derive(Debug, Clone)]
pub struct GridPlanOutput {
    /// The winning shape.
    pub plan: GridPlan,
    /// Every evaluated candidate, ascending by `key_buckets`. Empty for
    /// forced shapes ([`GridChoice::TimeOnly`] / [`GridChoice::Fixed`]),
    /// where no cost comparison runs.
    pub candidates: Vec<GridCandidate>,
}

/// Estimated per-cell work of a `k × n` grid, as a flat time-major
/// matrix. `r_counts`/`s_counts` are the inputs histogrammed at the
/// finest bucket count `k_max` (time-replicated, key-exact); folding a
/// power-of-two histogram down to `k ≤ k_max` buckets is exact, because
/// bucket `b` at `k_max` lands in `b & (k − 1)` — the same mask the finer
/// assignment used.
///
/// Key bucketing never *reduces* work — a key's matches all live in one
/// bucket, and the kernels already group by key internally — it only
/// spreads it. So each time partition's work is pinned to the 1D
/// estimate `|rᵢ|·|sᵢ|` and distributed over the partition's buckets
/// proportionally to the per-bucket products `r_b·s_b` (the share of
/// key-colocated pairs the bucket can hold). Totals are therefore
/// conserved across candidates, and a key axis that buys no balance
/// collapses on the tie rule.
fn fold_costs(r_counts: &[u64], s_counts: &[u64], k_max: usize, n: usize, k: usize) -> Vec<u64> {
    let mut costs = vec![0u64; k * n];
    let mask = k - 1;
    let mut r_fold = vec![0u64; k];
    let mut s_fold = vec![0u64; k];
    for i in 0..n {
        r_fold.iter_mut().for_each(|c| *c = 0);
        s_fold.iter_mut().for_each(|c| *c = 0);
        for b in 0..k_max {
            r_fold[b & mask] += r_counts[i * k_max + b];
            s_fold[b & mask] += s_counts[i * k_max + b];
        }
        let part_cost = r_fold.iter().sum::<u64>() * s_fold.iter().sum::<u64>();
        let products: Vec<u128> = (0..k)
            .map(|b| r_fold[b] as u128 * s_fold[b] as u128)
            .collect();
        let sum_p: u128 = products.iter().sum();
        if sum_p == 0 {
            // No bucket holds both sides: no key-colocated pairs at all,
            // hence no estimated join work in this time partition.
            continue;
        }
        // Exact distribution: every bucket gets its floored share, the
        // last occupied bucket absorbs the rounding remainder, so the
        // partition's buckets sum to `part_cost` exactly.
        let last_occupied = products.iter().rposition(|&p| p > 0).unwrap_or(0);
        let mut assigned = 0u64;
        for b in 0..k {
            if products[b] == 0 {
                continue;
            }
            let w = if b == last_occupied {
                part_cost - assigned
            } else {
                ((part_cost as u128 * products[b]) / sum_p) as u64
            };
            assigned += w;
            costs[i * k + b] = w;
        }
    }
    costs
}

fn candidate_for(
    r_counts: &[u64],
    s_counts: &[u64],
    k_max: usize,
    n: usize,
    k: usize,
    workers: u64,
) -> GridCandidate {
    let costs = fold_costs(r_counts, s_counts, k_max, n, k);
    let est_cost_total: u64 = costs.iter().sum();
    let est_cost_max = costs.iter().copied().max().unwrap_or(0);
    let occupied_cells = costs.iter().filter(|&&c| c > 0).count() as u64;
    GridCandidate {
        key_buckets: k as u64,
        est_cost_total,
        est_cost_max,
        occupied_cells,
        est_makespan: grid_makespan(
            est_cost_total,
            est_cost_max,
            occupied_cells,
            workers,
            GRID_CELL_OVERHEAD,
        ),
    }
}

/// Chooses the grid shape for `r ⋈ᵛ s` over the given time intervals and
/// worker count, Figure-10 style: histogram once at the finest power-of-
/// two bucket count, fold down to each coarser candidate, price every
/// candidate with the [`grid_makespan`] objective, keep the cheapest.
/// Ties go to the **smaller** bucket count, so a key axis that buys no
/// critical-path reduction collapses back to the 1×N time-only plan.
///
/// Forced choices ([`GridChoice::TimeOnly`], [`GridChoice::Fixed`]) skip
/// the cost loop; [`GridChoice::KeyTime`] runs it over K ≥ 2 only.
pub fn plan_grid(
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
    choice: GridChoice,
) -> GridPlanOutput {
    match choice {
        GridChoice::TimeOnly => {
            return GridPlanOutput {
                plan: GridPlan::time_only(intervals.to_vec()),
                candidates: Vec::new(),
            }
        }
        GridChoice::Fixed(k) => {
            return GridPlanOutput {
                plan: GridPlan::with_buckets(k, intervals.to_vec()),
                candidates: Vec::new(),
            }
        }
        GridChoice::Auto | GridChoice::KeyTime => {}
    }

    let workers = (threads.max(1) as u64).max(1);
    // Finest candidate: enough buckets that the heaviest cell could in
    // principle shrink well below one worker's fair share, capped so the
    // histogram stays small.
    let k_max = (workers * 4).next_power_of_two().clamp(2, MAX_KEY_BUCKETS) as usize;
    let n = intervals.len();

    let mut r_counts = vec![0u64; k_max * n];
    for t in r.iter() {
        let b = (spec.outer_key_hash(t) & (k_max as u64 - 1)) as usize;
        for i in replica_range(intervals, t.valid()) {
            r_counts[i * k_max + b] += 1;
        }
    }
    let mut s_counts = vec![0u64; k_max * n];
    for t in s.iter() {
        let b = (spec.inner_key_hash(t) & (k_max as u64 - 1)) as usize;
        for i in replica_range(intervals, t.valid()) {
            s_counts[i * k_max + b] += 1;
        }
    }

    let k_min = if choice == GridChoice::KeyTime { 2 } else { 1 };
    let mut candidates = Vec::new();
    let mut best: Option<GridCandidate> = None;
    let mut k = k_min;
    while k <= k_max {
        let cand = candidate_for(&r_counts, &s_counts, k_max, n, k, workers);
        // Strict improvement required: ties collapse to the smaller K,
        // and in particular to the 1×N time-only plan.
        if best.is_none_or(|b| cand.est_makespan < b.est_makespan) {
            best = Some(cand);
        }
        candidates.push(cand);
        k *= 2;
    }
    let winner = best.map(|b| b.key_buckets).unwrap_or(1);
    GridPlanOutput {
        plan: GridPlan {
            key_buckets: winner,
            intervals: intervals.to_vec(),
        },
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::intervals::equal_width;
    use vtjoin_core::{AttrDef, AttrType, Schema, Tuple, Value};

    fn rel(attr: &str, n: i64, keys: i64, clustered: bool) -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = (0..n)
            .map(|i| {
                // `clustered` piles most tuples into one narrow time range
                // (the skew the key axis is meant to break up).
                let start = if clustered && i % 4 != 0 {
                    i % 25
                } else {
                    (i * 37) % 400
                };
                let iv = Interval::from_raw(start, start + 2).unwrap();
                Tuple::new(vec![Value::Int(i % keys), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    fn spec_for(r: &Relation, s: &Relation) -> JoinSpec {
        JoinSpec::natural(r.schema(), s.schema()).unwrap()
    }

    #[test]
    fn grid_choice_grammar() {
        assert_eq!(GridChoice::parse("auto"), Some(GridChoice::Auto));
        assert_eq!(GridChoice::parse("1xN"), Some(GridChoice::TimeOnly));
        assert_eq!(GridChoice::parse("KxN"), Some(GridChoice::KeyTime));
        assert_eq!(GridChoice::parse("8xN"), Some(GridChoice::Fixed(8)));
        assert_eq!(GridChoice::parse("1xn"), Some(GridChoice::TimeOnly));
        assert_eq!(GridChoice::parse("0xN"), None);
        assert_eq!(GridChoice::parse("grid"), None);
        assert_eq!(GridChoice::parse("xN"), None);
        for c in [
            GridChoice::Auto,
            GridChoice::TimeOnly,
            GridChoice::KeyTime,
            GridChoice::Fixed(8),
        ] {
            assert_eq!(GridChoice::parse(&c.to_string()), Some(c), "{c}");
        }
    }

    #[test]
    fn fixed_buckets_round_to_powers_of_two() {
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        assert_eq!(GridPlan::with_buckets(3, ivs.clone()).key_buckets, 4);
        assert_eq!(GridPlan::with_buckets(8, ivs.clone()).key_buckets, 8);
        assert_eq!(GridPlan::with_buckets(1, ivs.clone()).key_buckets, 1);
        assert_eq!(
            GridPlan::with_buckets(1 << 20, ivs).key_buckets,
            MAX_KEY_BUCKETS
        );
    }

    #[test]
    fn cell_order_is_time_major() {
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 3);
        let plan = GridPlan::with_buckets(4, ivs.clone());
        assert_eq!(plan.cells(), 12);
        assert_eq!(plan.cell_index(0, 0), 0);
        assert_eq!(plan.cell_index(3, 0), 3);
        assert_eq!(plan.cell_index(0, 1), 4);
        assert_eq!(plan.cell_interval(0), ivs[0]);
        assert_eq!(plan.cell_interval(7), ivs[1]);
        assert_eq!(plan.cell_interval(11), ivs[2]);
    }

    #[test]
    fn time_skew_triggers_the_key_axis() {
        // Most of the work piles into a few time partitions; with more
        // workers than heavy partitions, splitting by key must pay.
        let r = rel("b", 4000, 512, true);
        let s = rel("c", 4000, 512, true);
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 8);
        let spec = spec_for(&r, &s);
        let out = plan_grid(&spec, &r, &s, &ivs, 4, GridChoice::Auto);
        assert!(
            out.plan.key_buckets > 1,
            "skewed workload must choose a key axis: {:?}",
            out.candidates
        );
        // The winner strictly beats time-only on the objective.
        let k1 = out.candidates.iter().find(|c| c.key_buckets == 1).unwrap();
        let win = out
            .candidates
            .iter()
            .find(|c| c.key_buckets == out.plan.key_buckets)
            .unwrap();
        assert!(win.est_makespan < k1.est_makespan);
        // Folding conserves total work across every candidate.
        for c in &out.candidates {
            assert_eq!(c.est_cost_total, k1.est_cost_total, "{c:?}");
        }
    }

    #[test]
    fn balanced_workload_collapses_to_time_only() {
        // Uniform time, plenty of partitions per worker: the heaviest
        // partition is already below a worker's fair share, so the key
        // axis cannot shorten the critical path and must collapse.
        let r = rel("b", 4000, 512, false);
        let s = rel("c", 4000, 512, false);
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 16);
        let spec = spec_for(&r, &s);
        let out = plan_grid(&spec, &r, &s, &ivs, 2, GridChoice::Auto);
        assert_eq!(
            out.plan.key_buckets, 1,
            "balanced workload must collapse to 1xN: {:?}",
            out.candidates
        );
    }

    #[test]
    fn forced_key_axis_never_collapses() {
        let r = rel("b", 4000, 512, false);
        let s = rel("c", 4000, 512, false);
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 16);
        let spec = spec_for(&r, &s);
        let out = plan_grid(&spec, &r, &s, &ivs, 2, GridChoice::KeyTime);
        assert!(out.plan.key_buckets >= 2);
        assert!(out.candidates.iter().all(|c| c.key_buckets >= 2));
    }

    #[test]
    fn splitting_by_key_shrinks_the_heaviest_cell() {
        let r = rel("b", 4000, 512, true);
        let s = rel("c", 4000, 512, true);
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 8);
        let spec = spec_for(&r, &s);
        let out = plan_grid(&spec, &r, &s, &ivs, 8, GridChoice::Auto);
        for w in out.candidates.windows(2) {
            assert!(
                w[1].est_cost_max <= w[0].est_cost_max,
                "max cell must shrink with K: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn forced_shapes_skip_the_cost_loop() {
        let r = rel("b", 400, 64, true);
        let s = rel("c", 400, 64, true);
        let ivs = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let spec = spec_for(&r, &s);
        let t = plan_grid(&spec, &r, &s, &ivs, 4, GridChoice::TimeOnly);
        assert_eq!(t.plan.key_buckets, 1);
        assert!(t.candidates.is_empty());
        let f = plan_grid(&spec, &r, &s, &ivs, 4, GridChoice::Fixed(8));
        assert_eq!(f.plan.key_buckets, 8);
        assert!(f.candidates.is_empty());
    }
}
